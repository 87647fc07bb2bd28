#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <thread>
#include <utility>

#include "bai/sequence_arms.h"
#include "cascade/planner.h"
#include "cascade/store.h"
#include "ckpt/store.h"
#include "cluster/coordinator.h"
#include "common/rng.h"
#include "detect/models.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "offline/ingest.h"
#include "offline/scoring.h"
#include "query/session.h"
#include "serve/server.h"
#include "storage/catalog.h"
#include "tools/pipeline_setup.h"

namespace perfbench {

namespace cascade = vaq::cascade;
namespace ckpt = vaq::ckpt;
namespace cluster = vaq::cluster;
namespace detect = vaq::detect;
namespace fault = vaq::fault;
namespace obs = vaq::obs;
namespace offline = vaq::offline;
namespace query = vaq::query;
namespace serve = vaq::serve;
namespace storage = vaq::storage;
namespace synth = vaq::synth;
namespace tools = vaq::tools;
using vaq::Status;
using vaq::StatusOr;

void Require(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

int ServeThreads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 1, 1, 3);
}

int64_t CounterValue(const char* name, const obs::Labels& labels) {
  return obs::MetricRegistry::Global().GetCounter(name, labels)->value();
}

namespace {

std::string Cam(int i) { return "cam" + std::to_string(i); }

// The seed of the online workloads' fault plans. The fault schedule is
// fixed, like the feeds: one plan acts on every stream of a server at once
// (its outage windows are by frame number), so a plan seeded from the
// workload seed moved every op's cost together, by up to 40% between
// seeds, where the per-stream model seeds average out over the streams.
constexpr uint64_t kFaultSeed = 1;

int64_t InferenceHits() {
  return CounterValue("vaq_serve_cache_hits_total", {{"domain", "inference"}});
}
int64_t InferenceMisses() {
  return CounterValue("vaq_serve_cache_misses_total",
                      {{"domain", "inference"}});
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string DescribeAll(const std::vector<serve::ServedQuery>& queries,
                        bool* all_ok) {
  std::string out;
  for (const serve::ServedQuery& q : queries) {
    if (!q.status.ok()) *all_ok = false;
    out += serve::DescribeServedQuery(q);
    out += '\n';
  }
  return out;
}

std::string RenderRanked(const std::vector<offline::RankedSequence>& ranked,
                         bool with_bounds) {
  std::string out;
  char buf[160];
  for (const offline::RankedSequence& seq : ranked) {
    if (with_bounds) {
      std::snprintf(buf, sizeof(buf), "[%lld,%lld] lb=%.17g ub=%.17g ",
                    static_cast<long long>(seq.clips.lo),
                    static_cast<long long>(seq.clips.hi), seq.lower_bound,
                    seq.upper_bound);
    } else {
      std::snprintf(buf, sizeof(buf), "[%lld,%lld] ",
                    static_cast<long long>(seq.clips.lo),
                    static_cast<long long>(seq.clips.hi));
    }
    out += buf;
    std::snprintf(buf, sizeof(buf), "ex=%.17g/%d;", seq.exact_score,
                  seq.has_exact ? 1 : 0);
    out += buf;
  }
  return out;
}

// The size of the largest CPU cache sysfs lists, e.g. "307200K".
std::string LastLevelCache() {
  std::string largest = "unknown";
  for (int index = 0; index < 8; ++index) {
    std::FILE* f = std::fopen(("/sys/devices/system/cpu/cpu0/cache/index" +
                               std::to_string(index) + "/size")
                                  .c_str(),
                              "r");
    if (f == nullptr) break;
    char size[32] = {0};
    if (std::fscanf(f, "%31s", size) == 1) largest = size;
    std::fclose(f);
  }
  return largest;
}

// Shared per-layer counts: the metrics a loop reports per op, zero where
// the loop never reaches the layer (the "should not move" side).
void PutCounts(Metrics* out, double ops, double inferences, double retries,
               double hit_ratio, double bundle_reuses, double wal_records,
               double seeks, double rows, double pulls) {
  (*out)["detect.inferences_per_op"] = {Ratio(inferences, ops), "count"};
  (*out)["detect.retries_per_op"] = {Ratio(retries, ops), "count"};
  (*out)["serve.inference_hit_ratio"] = {hit_ratio, "ratio"};
  (*out)["serve.bundle_reuses_per_op"] = {Ratio(bundle_reuses, ops), "count"};
  (*out)["ckpt.wal_records_per_op"] = {Ratio(wal_records, ops), "count"};
  (*out)["offline.seeks_per_op"] = {Ratio(seeks, ops), "count"};
  (*out)["offline.rows_per_op"] = {Ratio(rows, ops), "count"};
  (*out)["bai.pulls_per_op"] = {Ratio(pulls, ops), "count"};
}

// Probes every workload runs on its own inputs. `corpus` is the
// workload's repository when it has one; otherwise one is ingested from
// the first two streams so the offline layers are still measured.
Status ProbeCommon(const std::vector<synth::Scenario>& streams,
                   const Corpus* corpus,
                   const std::vector<std::string>& statements,
                   const std::vector<std::string>& serve_statements,
                   const std::vector<RankedQuery>& ranked, uint64_t seed,
                   bool probe_serve, bool probe_ckpt, Metrics* out) {
  ProbeScanstat(streams[0], seed, out);
  ProbeDetect(streams[0], seed, out);
  VAQ_RETURN_IF_ERROR(ProbeOnline(streams[0], seed, out));
  VAQ_RETURN_IF_ERROR(ProbeParse(statements, out));
  Corpus probe_corpus;
  if (corpus == nullptr) {
    TempDir dir("probe-catalog");
    Spans spans;
    const std::vector<synth::Scenario> two(streams.begin(),
                                           streams.begin() + 2);
    VAQ_ASSIGN_OR_RETURN(probe_corpus,
                         BuildCorpus(two, seed, dir.path(), &spans));
    SetupLayers({spans}, {}, out);
    corpus = &probe_corpus;
  }
  (*out)["storage.catalog_bytes_per_video"] = {
      static_cast<double>(corpus->catalog_bytes) /
          static_cast<double>(corpus->videos.size()),
      "bytes"};
  VAQ_RETURN_IF_ERROR(ProbeRanked(*corpus, ranked, out));
  if (probe_serve) {
    VAQ_RETURN_IF_ERROR(
        ProbeServe(streams, corpus, serve_statements, seed, out));
  }
  if (probe_ckpt) VAQ_RETURN_IF_ERROR(ProbeCkpt(streams, seed, out));
  return Status::OK();
}

// The demo ranked query shape (tools::DemoWorkload) at a few LIMITs.
std::vector<RankedQuery> DemoRankedQueries() {
  return {{"running", {"dog"}, 2}, {"running", {"dog"}, 5},
          {"running", {"dog"}, 10}};
}

// --- standing_streams --------------------------------------------------------
// Durable live monitoring: S demo streams, the demo online statements as
// standing queries, driven one tick at a time (a tick advances every
// stream by one clip, as when all cameras deliver their next clip)
// against a DirStore, with a checkpoint every kDefaultSnapshotEveryClips
// ticks. When every stream has played its whole video the session is
// checked (a second server recovers from the store and both must finish
// with identical results) and a fresh session starts, untimed.
//
// Why a tick and not one clip advance: advances come in two costs about
// 15x apart, near half each, so the median advance sits on the edge
// between them and jumps with the seed. A tick sums one advance of every
// stream.
class StandingStreams : public Workload {
 public:
  static constexpr int kStreams = 4;
  static constexpr int kQueries = 8;
  // Every session plays the same kPool feeds, so each tick repeats often
  // enough (over 100 times in 25 s) for its best time to be the program's
  // own. A larger pool rotates sessions over more feeds at the price of
  // fewer repeats. A multiple of kStreams.
  static constexpr int kPool = 4;

  Status Setup(uint64_t seed, Spans* spans) override {
    seed_ = seed;
    streams_ = GenerateStreams(kPool, spans);
    statements_ = tools::DemoWorkload(kStreams, kQueries,
                                      /*with_repository=*/false);
    clips_per_stream_ = streams_[0].layout().NumClips();
    return OpenSession(/*counted=*/false, spans);
  }

  Status PrepareReference() override {
    // The reference is the recovered replica, built per session.
    return Status::OK();
  }

  Status Warmup() override { return Tick(nullptr); }

  void Run(TimedLoop* loop, Spans* spans) override {
    loop->Resume();
    while (loop->More()) {
      if (session_->advances == kStreams * clips_per_stream_) {
        loop->Pause();
        CloseSession(loop, spans);
        Require(OpenSession(/*counted=*/true, spans), "open standing session");
        loop->Resume();
        continue;
      }
      // Sessions of the same feeds repeat the same ticks: the key is the
      // tick's place in its feed group's session.
      const int64_t key = session_->first / kStreams * clips_per_stream_ +
                          session_->advances / kStreams;
      const OpStart start;
      const Status status = Tick(spans);
      loop->RecordOp(key, start);
      ++session_->timed_ops;
      if (!status.ok()) {
        ++session_->failed_ops;
        loop->RecordFailure();
      }
    }
    loop->Pause();
  }

  void Finish(TimedLoop* loop, Spans* spans) override {
    CloseSession(loop, spans);
  }

  Status Layers(const Spans& loop_spans, Metrics* out) override {
    const double advances = static_cast<double>(advances_);
    PutCounts(out, advances, static_cast<double>(inferences_),
              static_cast<double>(retries_),
              Ratio(static_cast<double>(hits_),
                    static_cast<double>(hits_ + misses_)),
              static_cast<double>(bundle_reuses_),
              static_cast<double>(wal_records_), 0, 0, 0);
    (*out)["ckpt.checkpoint_ms"] = {loop_spans.MedianNs("ckpt.checkpoint") / 1e6,
                                    "ms"};
    (*out)["ckpt.recover_ms"] = {loop_spans.MedianNs("ckpt.recover") / 1e6,
                                 "ms"};
    (*out)["ckpt.snapshot_bytes"] = {
        Ratio(static_cast<double>(snapshot_bytes_),
              static_cast<double>(snapshots_)),
        "bytes"};
    return ProbeCommon({streams_.begin(), streams_.begin() + kStreams},
                       nullptr, statements_, statements_, DemoRankedQueries(),
                       seed_, /*probe_serve=*/true, /*probe_ckpt=*/false, out);
  }

  std::string Describe() const override {
    return "S=" + std::to_string(kStreams) + " streams x " +
           std::to_string(clips_per_stream_) + " clips, " +
           std::to_string(kQueries) + " standing queries, checkpoint every " +
           std::to_string(serve::kDefaultSnapshotEveryClips) +
           " clips per stream, DirStore (rename, no fsync), 1 thread; "
           "sessions rotate over " + std::to_string(kPool) + " feeds";
  }

 private:
  struct Session {
    std::unique_ptr<TempDir> dir;
    std::unique_ptr<ckpt::DirStore> store;
    std::unique_ptr<serve::Server> server;
    // Sessions opened by the loop feed the per-layer counts. The first,
    // opened in set-up, straddles the warm-up and the registry reset, so
    // it is checked but not counted.
    bool counted = false;
    int first = 0;          // Pool index of cam0.
    std::unique_ptr<fault::FaultPlan> plan;  // This group's faults.
    int64_t advances = 0;   // Clip advances, warm-up included.
    int64_t timed_ops = 0;  // Advances the loop timed.
    int64_t failed_ops = 0;  // Of those, advances that returned an error.
    int64_t wal0 = 0, snapshots0 = 0, snapshot_bytes0 = 0;
    int64_t hits0 = 0, misses0 = 0;
  };

  // cam<j> is pool feed (first + j) % kPool.
  std::unique_ptr<serve::Server> MakeServer(int first,
                                            const fault::FaultPlan* plan,
                                            ckpt::Store* store,
                                            Spans* spans) const {
    Span span(spans, "serve.register");
    serve::ServeOptions options;
    options.threads = 0;
    options.share_detection_cache = true;
    options.fault_plan = plan;
    options.checkpoint_store = store;
    auto server = std::make_unique<serve::Server>(options);
    for (int j = 0; j < kStreams; ++j) {
      const int feed = (first + j) % kPool;
      server->RegisterStream(Cam(j), streams_[static_cast<size_t>(feed)],
                             seed_ + static_cast<uint64_t>(feed));
    }
    return server;
  }

  Status OpenSession(bool counted, Spans* spans) {
    auto session = std::make_unique<Session>();
    session->counted = counted;
    session->first = (sessions_opened_++ * kStreams) % kPool;
    session->plan = std::make_unique<fault::FaultPlan>(
        tools::DemoFaultSpec(),
        vaq::MixSeed(kFaultSeed, static_cast<uint64_t>(session->first)));
    {
      Span span(spans, "ckpt.store_open");
      session->dir = std::make_unique<TempDir>("standing");
      session->store = std::make_unique<ckpt::DirStore>(session->dir->path());
    }
    session->server = MakeServer(session->first, session->plan.get(),
                                 session->store.get(), spans);
    Span span(spans, "serve.admit");
    for (const std::string& sql : statements_) {
      VAQ_RETURN_IF_ERROR(session->server->AddStandingQuery(sql).status());
    }
    session->wal0 = CounterValue("vaq_ckpt_wal_records_total");
    session->snapshots0 = CounterValue("vaq_ckpt_snapshots_total");
    session->snapshot_bytes0 = CounterValue("vaq_ckpt_snapshot_bytes_total");
    session->hits0 = InferenceHits();
    session->misses0 = InferenceMisses();
    session_ = std::move(session);
    return Status::OK();
  }

  // One clip on every stream, then the checkpoint when one is due.
  Status Tick(Spans* spans) {
    Session& s = *session_;
    Status status;
    for (int j = 0; j < kStreams; ++j) {
      Span span(spans, "serve.advance_stream");
      const Status advanced = s.server->AdvanceStream(Cam(j));
      if (status.ok()) status = advanced;
      ++s.advances;
    }
    if (status.ok() &&
        s.advances % (kStreams * serve::kDefaultSnapshotEveryClips) == 0) {
      Span span(spans, "ckpt.checkpoint");
      status = s.server->Checkpoint();
    }
    return status;
  }

  // The oracle: a replica recovered from the store must finish with the
  // same results as the live server. A mismatch fails every op the
  // session timed.
  void CloseSession(TimedLoop* loop, Spans* spans) {
    if (session_ == nullptr) return;
    Session& s = *session_;
    if (s.counted) {
      // Recovery restores the registry from the snapshot; read first.
      wal_records_ += CounterValue("vaq_ckpt_wal_records_total") - s.wal0;
      snapshots_ += CounterValue("vaq_ckpt_snapshots_total") - s.snapshots0;
      snapshot_bytes_ +=
          CounterValue("vaq_ckpt_snapshot_bytes_total") - s.snapshot_bytes0;
      hits_ += InferenceHits() - s.hits0;
      misses_ += InferenceMisses() - s.misses0;
    }

    std::unique_ptr<serve::Server> replica =
        MakeServer(s.first, s.plan.get(), s.store.get(), spans);
    bool ok = true;
    {
      Span span(spans, "ckpt.recover");
      ok = replica->Recover().ok();
    }
    const std::string live = DescribeAll(s.server->FinishStanding(), &ok);
    const std::string recovered = DescribeAll(replica->FinishStanding(), &ok);
    if (!ok || live != recovered || live.empty()) {
      std::fprintf(stderr, "standing_streams: session check failed\n");
      for (int64_t i = s.failed_ops; i < s.timed_ops; ++i) {
        loop->RecordFailure();
      }
    }
    if (s.counted) {
      const serve::ServeStats stats = s.server->stats();
      inferences_ +=
          stats.detector_stats.inferences + stats.recognizer_stats.inferences;
      retries_ += stats.detector_stats.retries + stats.recognizer_stats.retries;
      bundle_reuses_ += stats.cache_bundle_reuses;
      advances_ += s.advances;
    }
    replica.reset();
    session_.reset();
  }

  uint64_t seed_ = 0;
  std::vector<synth::Scenario> streams_;
  std::vector<std::string> statements_;
  int64_t clips_per_stream_ = 0;
  std::unique_ptr<Session> session_;
  int sessions_opened_ = 0;
  int64_t advances_ = 0, inferences_ = 0, retries_ = 0, bundle_reuses_ = 0;
  int64_t wal_records_ = 0, snapshots_ = 0, snapshot_bytes_ = 0;
  int64_t hits_ = 0, misses_ = 0;
};

// --- adhoc_serve -------------------------------------------------------------
// Concurrent ad-hoc queries over recorded streams: each op is one server
// lifetime (build, register the pre-generated sources, submit Q mixed
// statements, drain) on ServeThreads() workers, checked byte for byte
// against the inline (threads = 0) reference schedule. Ops cycle through
// kPool / kStreams disjoint groups of feeds, each with its own reference.
class AdhocServe : public Workload {
 public:
  static constexpr int kStreams = 4;
  static constexpr int kQueries = 8;
  // Three groups, so each repeats often enough (about 120 times in 25 s)
  // for its best time to be the program's own: with eight groups (45
  // repeats each) the three workers' best times still spread by 0.15
  // between seeds. An odd count keeps the median op on the middle group;
  // with two it would flip between them with the parity of the op count.
  static constexpr int kPool = 12;
  static constexpr int kGroups = kPool / kStreams;

  Status Setup(uint64_t seed, Spans* spans) override {
    seed_ = seed;
    streams_ = GenerateStreams(kPool, spans);
    plans_.clear();
    for (int group = 0; group < kGroups; ++group) {
      plans_.push_back(std::make_unique<fault::FaultPlan>(
          tools::DemoFaultSpec(),
          vaq::MixSeed(kFaultSeed, static_cast<uint64_t>(group))));
    }
    {
      // The ranked statements' repository, ingested the way
      // tools::RegisterDemoSources does.
      Span span(spans, "offline.ingest");
      const synth::Scenario& scenario = streams_[0];
      detect::ModelBundle models =
          detect::ModelBundle::MaskRcnnI3d(scenario.truth(), seed);
      const offline::PaperScoring scoring;
      offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                                 offline::IngestOptions{});
      VAQ_ASSIGN_OR_RETURN(library_,
                           ingestor.Ingest(scenario.truth(), models));
    }
    statements_ = tools::DemoWorkload(kStreams, kQueries,
                                      /*with_repository=*/true);
    std::mt19937_64 rng(seed);
    std::shuffle(statements_.begin(), statements_.end(), rng);
    return Status::OK();
  }

  Status PrepareReference() override {
    references_.clear();
    for (int group = 0; group < kGroups; ++group) {
      Outcome reference = Op(group, /*threads=*/0, nullptr);
      if (!reference.ok) return Status::Internal("reference run failed");
      references_.push_back(std::move(reference.described));
    }
    return Status::OK();
  }

  Status Warmup() override {
    return Op(0, ServeThreads(), nullptr).ok
               ? Status::OK()
               : Status::Internal("warm-up op failed");
  }

  void Run(TimedLoop* loop, Spans* spans) override {
    const int threads = ServeThreads();
    const int64_t hits0 = InferenceHits(), misses0 = InferenceMisses();
    loop->Resume();
    while (loop->More()) {
      const int group = static_cast<int>(ops_ % kGroups);
      const OpStart start;
      Outcome outcome = Op(group, threads, spans);
      loop->RecordOp(group, start);
      loop->Pause();
      if (!outcome.ok ||
          outcome.described != references_[static_cast<size_t>(group)]) {
        loop->RecordFailure();
      }
      ++ops_;
      const serve::ServeStats& st = outcome.stats;
      inferences_ += st.detector_stats.inferences + st.recognizer_stats.inferences;
      retries_ += st.detector_stats.retries + st.recognizer_stats.retries;
      bundle_reuses_ += st.cache_bundle_reuses;
      seeks_ += st.accesses.seeks();
      rows_ += st.accesses.sequential_rows();
      loop->Resume();
    }
    loop->Pause();
    hits_ += InferenceHits() - hits0;
    misses_ += InferenceMisses() - misses0;
  }

  void Finish(TimedLoop*, Spans*) override {}

  Status Layers(const Spans& loop_spans, Metrics* out) override {
    PutCounts(out, static_cast<double>(ops_), static_cast<double>(inferences_),
              static_cast<double>(retries_),
              Ratio(static_cast<double>(hits_),
                    static_cast<double>(hits_ + misses_)),
              static_cast<double>(bundle_reuses_), 0,
              static_cast<double>(seeks_), static_cast<double>(rows_), 0);
    (*out)["serve.register_ms"] = {loop_spans.MedianNs("serve.register") / 1e6,
                                   "ms"};
    (*out)["serve.submit_us"] = {loop_spans.MedianNs("serve.submit") / 1e3,
                                 "us"};
    (*out)["serve.drain_ms"] = {loop_spans.MedianNs("serve.drain") / 1e6, "ms"};
    return ProbeCommon({streams_.begin(), streams_.begin() + kStreams},
                       nullptr, statements_, statements_, DemoRankedQueries(),
                       seed_, /*probe_serve=*/false, /*probe_ckpt=*/true, out);
  }

  std::string Describe() const override {
    const auto ranked = std::count_if(
        statements_.begin(), statements_.end(), [](const std::string& sql) {
          return sql.find("ORDER BY") != std::string::npos;
        });
    return "S=" + std::to_string(kStreams) + " recorded streams, Q=" +
           std::to_string(kQueries) + " statements per op (" +
           std::to_string(ranked) + " ranked), " +
           std::to_string(ServeThreads()) +
           " server threads, fresh server per op, " +
           std::to_string(kGroups) + " groups of feeds";
  }

 private:
  struct Outcome {
    bool ok = true;
    std::string described;
    serve::ServeStats stats;
  };

  // One server lifetime over feed group `group` (cam<j> is pool feed
  // group * kStreams + j).
  Outcome Op(int group, int threads, Spans* spans) const {
    Outcome out;
    std::unique_ptr<serve::Server> server;
    {
      Span span(spans, "serve.register");
      serve::ServeOptions options;
      options.threads = threads;
      options.queue_capacity = kQueries;
      options.share_detection_cache = true;
      options.fault_plan = plans_[static_cast<size_t>(group)].get();
      server = std::make_unique<serve::Server>(options);
      for (int j = 0; j < kStreams; ++j) {
        const int feed = group * kStreams + j;
        server->RegisterStream(Cam(j), streams_[static_cast<size_t>(feed)],
                               seed_ + static_cast<uint64_t>(feed));
      }
      server->RegisterRepository(tools::kDemoRepositoryName, library_);
    }
    for (const std::string& sql : statements_) {
      Span span(spans, "serve.submit");
      if (!server->Submit(sql).ok()) out.ok = false;
    }
    std::vector<serve::ServedQuery> served;
    {
      Span span(spans, "serve.drain");
      served = server->Drain();
    }
    out.stats = server->stats();
    server.reset();  // Joins the workers: part of the server lifetime.
    out.described = DescribeAll(served, &out.ok);
    return out;
  }

  uint64_t seed_ = 0;
  std::vector<synth::Scenario> streams_;
  std::vector<std::unique_ptr<fault::FaultPlan>> plans_;  // Per feed group.
  storage::VideoIndex library_;
  std::vector<std::string> statements_;
  std::vector<std::string> references_;  // Per feed group.
  int64_t ops_ = 0, inferences_ = 0, retries_ = 0, bundle_reuses_ = 0;
  int64_t seeks_ = 0, rows_ = 0, hits_ = 0, misses_ = 0;
};

// --- ranked_adhoc ------------------------------------------------------------
// Interactive analysts over an ingested repository: one query::Session
// holding every video by name plus a 4-shard cluster::Coordinator under
// "corpus"; each op executes one statement drawn with skewed popularity
// from a seeded pool (single video or corpus; exact, WITH RECALL 0.9 or
// WITH CONFIDENCE 0.05; LIMIT 1-10).
class RankedAdhoc : public Workload {
 public:
  static constexpr int kVideos = 64;
  static constexpr int kPool = 48;
  static constexpr int kShards = 4;

  Status Setup(uint64_t seed, Spans* spans) override {
    seed_ = seed;
    std::vector<synth::Scenario> scenarios =
        GenerateStreams(kVideos, spans);
    catalog_dir_ = std::make_unique<TempDir>("catalog");
    VAQ_ASSIGN_OR_RETURN(
        corpus_, BuildCorpus(scenarios, seed, catalog_dir_->path(), spans));
    probe_streams_.assign(scenarios.begin(), scenarios.begin() + 2);
    {
      Span span(spans, "query.register");
      cluster::ClusterOptions options;
      options.num_shards = kShards;
      options.proxy = &corpus_.proxies;
      coordinator_ =
          std::make_unique<cluster::Coordinator>(&corpus_.repository, options);
      session_ = std::make_unique<query::Session>();
      for (const std::string& name : corpus_.videos) {
        session_->RegisterRepository(name, *corpus_.repository.Find(name));
      }
      session_->RegisterProxySet(&corpus_.proxies);
      session_->RegisterRankedBackend("corpus", coordinator_.get());
    }
    MakePool(seed);
    return Status::OK();
  }

  Status PrepareReference() override {
    for (Entry& entry : pool_) {
      VAQ_ASSIGN_OR_RETURN(const Rendered expected,
                           Reference(entry, entry.delta));
      entry.expected = expected.full;
      if (entry.delta > 0.0) {
        // WITH CONFIDENCE must identify the exact top-k, exactly scored.
        VAQ_ASSIGN_OR_RETURN(const Rendered exact, Reference(entry, 0.0));
        entry.confident_matches_exact = expected.top == exact.top;
      }
    }
    return Status::OK();
  }

  Status Warmup() override {
    for (const Entry& entry : pool_) {
      VAQ_RETURN_IF_ERROR(session_->Execute(entry.sql).status());
    }
    return Status::OK();
  }

  void Run(TimedLoop* loop, Spans* spans) override {
    loop->Resume();
    while (loop->More()) {
      const size_t pick = pick_(rng_);
      const Entry& entry = pool_[pick];
      const OpStart start;
      StatusOr<query::QueryResult> result = [&] {
        Span span(spans, "query.execute");
        return session_->Execute(entry.sql);
      }();
      const double latency_ns =
          loop->RecordOp(static_cast<int64_t>(pick), start);
      loop->Pause();
      if (spans == nullptr) {
        (entry.video == "corpus" ? corpus_ms_ : video_ms_)
            .push_back(latency_ns / 1e6);
      }
      ++ops_;
      if (!result.ok() || !entry.confident_matches_exact ||
          Render(result.value().ranked, result.value().accesses).full !=
              entry.expected) {
        loop->RecordFailure();
      }
      if (result.ok()) {
        seeks_ += result.value().accesses.seeks();
        rows_ += result.value().accesses.sequential_rows();
        pulls_ += result.value().bai_pulls;
      }
      loop->Resume();
    }
    loop->Pause();
  }

  void Finish(TimedLoop*, Spans*) override {}

  Status Layers(const Spans&, Metrics* out) override {
    PutCounts(out, static_cast<double>(ops_), 0, 0, 0, 0, 0,
              static_cast<double>(seeks_), static_cast<double>(rows_),
              static_cast<double>(pulls_));
    std::vector<std::string> statements;
    std::vector<std::string> single_video;
    std::vector<RankedQuery> ranked;
    for (const Entry& entry : pool_) {
      statements.push_back(entry.sql);
      if (entry.video != "corpus") single_video.push_back(entry.sql);
      ranked.push_back({"running", {entry.object}, entry.k});
    }
    return ProbeCommon(probe_streams_, &corpus_, statements, single_video,
                       ranked, seed_, /*probe_serve=*/true,
                       /*probe_ckpt=*/true, out);
  }

  std::string Describe() const override {
    int64_t table_bytes = 0;
    for (const std::string& name : corpus_.videos) {
      const storage::VideoIndex* index = corpus_.repository.Find(name);
      for (const auto* types : {&index->objects, &index->actions}) {
        for (const storage::TypeIndex& type : *types) {
          table_bytes += type.table.num_rows() *
                         static_cast<int64_t>(sizeof(storage::ScoreRow) +
                                              sizeof(double));
        }
      }
    }
    return "V=" + std::to_string(kVideos) + " videos (" +
           std::to_string(table_bytes / 1024) + " KiB of score rows, " +
           std::to_string(corpus_.catalog_bytes / 1024) +
           " KiB catalog; last-level cache " + LastLevelCache() +
           "), pool of " + std::to_string(kPool) +
           " statements, Zipf popularity, " + std::to_string(kShards) +
           " shards, 1 client thread";
  }

  // The two statement classes apart, so the mix hides neither.
  std::string LoopReport() const override {
    std::string out;
    char line[160];
    const std::pair<const char*, const std::vector<double>*> classes[] = {
        {"corpus", &corpus_ms_}, {"single-video", &video_ms_}};
    for (const auto& [label, latencies] : classes) {
      const Tail tail = TailLatency(*latencies);
      std::snprintf(line, sizeof(line),
                    "  %-12s ops=%zu p50=%.4f ms tail=%.4f ms (p%g)\n", label,
                    latencies->size(), Median(*latencies), tail.value_ms,
                    tail.percentile);
      out += line;
    }
    return out;
  }

 private:
  struct Entry {
    std::string sql;
    std::string video;   // "corpus" or "vid<i>".
    std::string object;  // "dog" or "car".
    int64_t k = 5;
    double recall = 1.0;
    double delta = 0.0;
    std::string expected;
    bool confident_matches_exact = true;
  };

  void MakePool(uint64_t seed) {
    std::mt19937_64 rng(vaq::MixSeed(seed, 0x706f6f6cULL));
    pool_.clear();
    std::vector<double> weights;
    for (int i = 0; i < kPool; ++i) {
      // The pool's shape is fixed by index — three entries in four ask
      // the whole corpus, modes and LIMITs cycle — so every seed has the
      // same mix of costs at each popularity rank; the seed picks which
      // video a single-video entry targets and the draw sequence. Cheap
      // single-video ops stay well below half of all draws, so the median
      // op lies among the many corpus cost levels, not on the edge
      // between the two classes. The mix is chosen for a steady median;
      // neither the paper nor a recorded workload gives one. LoopReport
      // prints each class's latencies apart.
      Entry entry;
      const bool corpus = i % 4 != 1;
      const int video = 1 + static_cast<int>(rng() % (kVideos - 1));
      entry.video = corpus ? "corpus" : "vid" + std::to_string(video);
      // vid0 is the only video without the "car" track; it is never a
      // single-video target, so every statement binds.
      entry.object = (i / 6) % 3 == 2 ? "car" : "dog";
      entry.k = 1 + i % 10;
      const int mode = i % 3;
      std::string with;
      if (mode == 1) {
        entry.recall = 0.9;
        with = " WITH RECALL 0.9";
      } else if (mode == 2) {
        entry.delta = 0.05;
        with = " WITH CONFIDENCE 0.05";
      }
      entry.sql =
          "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) FROM (PROCESS " +
          entry.video +
          " PRODUCE clipID, obj USING ObjectTracker, act USING "
          "ActionRecognizer) WHERE act='running' AND obj.include('" +
          entry.object + "') ORDER BY RANK(act, obj) LIMIT " +
          std::to_string(entry.k) + with;
      pool_.push_back(std::move(entry));
      // Zipf, s = 0.5: skewed, yet no statement holds more than 8%.
      weights.push_back(1.0 / std::sqrt(static_cast<double>(i + 1)));
    }
    pick_ = std::discrete_distribution<size_t>(weights.begin(), weights.end());
    rng_.seed(vaq::MixSeed(seed, 0x64726177ULL));
  }

  struct Rendered {
    std::string full;  // Sequences, bounds, exact scores and accesses.
    std::string top;   // Sequences and exact scores only.
  };
  static Rendered Render(const std::vector<offline::RankedSequence>& top,
                         const storage::AccessCounter& accesses) {
    return {RenderRanked(top, /*with_bounds=*/true) + "|" +
                accesses.ToString(),
            RenderRanked(top, /*with_bounds=*/false)};
  }

  // Single-node reference for one pool entry at confidence `delta`,
  // computed through offline:: directly: Repository::TopK for the corpus,
  // QueryVideoTopK for one video, with the plan and seeds Session and
  // Coordinator derive.
  StatusOr<Rendered> Reference(const Entry& entry, double delta) const {
    const offline::PaperScoring scoring;
    offline::RvaqOptions options;
    options.k = entry.k;
    std::unique_ptr<cascade::PlanFilters> filters;
    if (entry.recall < 1.0) {
      const cascade::Planner planner(&corpus_.proxies);
      VAQ_ASSIGN_OR_RETURN(const cascade::CascadePlan plan,
                           planner.Plan("running", {entry.object}, entry.recall));
      if (plan.use_cascade) {
        filters = std::make_unique<cascade::PlanFilters>(&corpus_.proxies, plan);
      }
    }
    std::unique_ptr<vaq::bai::SequenceArms> identifier;
    if (delta > 0.0) {
      identifier = std::make_unique<vaq::bai::SequenceArms>(
          vaq::bai::SequenceArms::AtConfidence(delta));
      options.identifier = identifier.get();
    }
    std::vector<offline::RankedSequence> top;
    storage::AccessCounter accesses;
    if (entry.video == "corpus") {
      options.prefilter = filters.get();
      options.identifier_seed = vaq::bai::kQueryBaseSeed;
      VAQ_ASSIGN_OR_RETURN(
          const offline::RepositoryTopKResult result,
          corpus_.repository.TopK("running", {entry.object}, scoring, options));
      for (const auto& ranked : result.top) top.push_back(ranked.sequence);
      accesses = result.accesses;
    } else {
      options.identifier_seed = offline::PerVideoIdentifierSeed(
          vaq::bai::kQueryBaseSeed, entry.video);
      if (filters != nullptr) {
        options.clip_filter = filters->SurvivingClips(entry.video);
        if (options.clip_filter != nullptr && options.clip_filter->empty()) {
          return Render({}, accesses);
        }
      }
      VAQ_ASSIGN_OR_RETURN(
          const offline::TopKResult result,
          offline::QueryVideoTopK(*corpus_.repository.Find(entry.video),
                                  "running", {entry.object}, scoring, options));
      top = result.top;
      accesses = result.accesses;
    }
    return Render(top, accesses);
  }

  uint64_t seed_ = 0;
  std::unique_ptr<TempDir> catalog_dir_;
  Corpus corpus_;
  std::vector<synth::Scenario> probe_streams_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::unique_ptr<query::Session> session_;
  std::vector<Entry> pool_;
  std::discrete_distribution<size_t> pick_;
  std::mt19937_64 rng_;
  int64_t ops_ = 0, seeks_ = 0, rows_ = 0, pulls_ = 0;
  // Untraced op latencies by statement class.
  std::vector<double> corpus_ms_, video_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "standing_streams") return std::make_unique<StandingStreams>();
  if (name == "adhoc_serve") return std::make_unique<AdhocServe>();
  if (name == "ranked_adhoc") return std::make_unique<RankedAdhoc>();
  return nullptr;
}

std::vector<synth::Scenario> GenerateStreams(int count, Spans* spans) {
  Span span(spans, "synth.generate");
  std::vector<synth::Scenario> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(tools::DemoScenario(i));
  return out;
}

StatusOr<Corpus> BuildCorpus(const std::vector<synth::Scenario>& scenarios,
                             uint64_t seed, const std::string& catalog_dir,
                             Spans* spans) {
  Corpus corpus;
  const storage::Catalog catalog(catalog_dir);
  const offline::PaperScoring scoring;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const synth::Scenario& scenario = scenarios[i];
    const std::string name = "vid" + std::to_string(i);
    const uint64_t video_seed = seed + i;
    storage::VideoIndex index;
    {
      Span span(spans, "offline.ingest");
      detect::ModelBundle models =
          detect::ModelBundle::MaskRcnnI3d(scenario.truth(), video_seed);
      offline::Ingestor ingestor(&scenario.vocab(), &scoring,
                                 offline::IngestOptions{});
      VAQ_ASSIGN_OR_RETURN(index, ingestor.Ingest(scenario.truth(), models));
    }
    {
      Span span(spans, "cascade.proxy_build");
      VAQ_ASSIGN_OR_RETURN(
          cascade::ProxyVideoIndex proxy,
          cascade::LoadOrBuildProxyIndex(nullptr, name, scenario,
                                         detect::ModelProfile::ProxyCnn(),
                                         video_seed));
      corpus.proxies.emplace(name, std::move(proxy));
    }
    {
      Span span(spans, "storage.catalog_save");
      VAQ_RETURN_IF_ERROR(catalog.Save(name, index));
    }
    corpus.videos.push_back(name);
  }
  corpus.catalog_bytes = DirBytes(catalog_dir);
  {
    Span span(spans, "storage.catalog_load");
    VAQ_RETURN_IF_ERROR(corpus.repository.AddFromCatalog(catalog));
  }
  return corpus;
}

}  // namespace perfbench
