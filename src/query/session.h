// Query execution session.
//
// A `Session` maps the video names appearing in FROM clauses to actual
// data sources:
//
//   * a *stream* — a video processed online with SVAQD (no ORDER BY);
//   * a *repository video* — an ingested storage::VideoIndex queried with
//     RVAQ (ORDER BY RANK ... LIMIT K).
//
// `Run` resolves a statement's source, dispatches to the right engine and
// returns a uniform result; `Execute` parses and counts a statement, then
// runs it there. serve::Server holds a Session and runs every batch
// statement through the same step.
#ifndef VAQ_QUERY_SESSION_H_
#define VAQ_QUERY_SESSION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cascade/planner.h"
#include "common/status.h"
#include "detect/models.h"
#include "obs/query_trace.h"
#include "offline/rvaq.h"
#include "online/svaqd.h"
#include "query/ast.h"
#include "synth/scenario.h"
#include "video/cnf_query.h"

namespace vaq {
namespace query {

// Uniform result of a statement.
struct QueryResult {
  bool online = false;
  // Online: the merged result sequences (clip granularity).
  IntervalSet sequences;
  // Offline: the top-K ranked sequences.
  std::vector<offline::RankedSequence> ranked;
  // Offline: access accounting of the run.
  storage::AccessCounter accesses;
  // Online: model invocation stats, including fault/retry/fallback
  // counters when the stream runs with fault injection.
  detect::ModelStats detector_stats;
  detect::ModelStats recognizer_stats;
  // Online: clips answered with at least one missing observation, and
  // clips lost wholesale (nonzero only under fault injection).
  int64_t degraded_clips = 0;
  int64_t dropped_clips = 0;
  // EXPLAIN ANALYZE only: the rendered per-phase profile tree
  // (obs::QueryTrace::RenderProfile). Empty otherwise.
  std::string profile_text;
  // WITH RECALL < 1.0 only: the chosen plan, rendered
  // (cascade::CascadePlan::ToString, or "exact(...)" on fallback).
  // Empty on the exact path so recall-1.0 results stay byte-identical.
  std::string cascade_plan;
  // Standing-query cascade only: clips the proxy ruled out and the
  // engine skipped without a model call.
  int64_t clips_pruned = 0;
  // WITH CONFIDENCE δ > 0 only: the adaptive-sampling certificate
  // (src/bai/) — total pulls drawn, arms eliminated before exact
  // evaluation, and a rendered summary including the stopping statistic.
  // All empty/zero on the exact path so δ-absent results stay
  // byte-identical. These are the documented certificate fields the chaos
  // byte-identity oracle is relaxed over — nothing else may differ.
  std::string bai_certificate;
  int64_t bai_pulls = 0;
  int64_t bai_arms_eliminated = 0;
};

// --- Stateless statement steps -----------------------------------------
// Session::Run builds on these, and so does the serving runtime's
// standing mode (src/serve/), so a standing query cannot drift from a
// session's semantics.

// Chooses the model stack selected by the statement's USING names
// (defaults to MaskRCNN + I3D) and builds a fresh bundle over `truth`.
detect::ModelBundle MakeStatementModels(const std::vector<std::string>& names,
                                        const synth::GroundTruth& truth,
                                        uint64_t seed);
// Canonical name of that stack ("maskrcnn_i3d", "yolo_i3d", "ideal"); the
// serving layer keys its shared detection cache by it.
const char* StatementModelStack(const std::vector<std::string>& names);

// The online engine's query for a statement: a conjunctive statement is
// lifted through CnfQuery::FromConjunctive, keeping Algorithm 2's
// objects-then-action order; any other is its CNF clauses.
StatusOr<CnfQuery> OnlineStatementQuery(const QueryStatement& stmt,
                                        const Vocabulary& vocab);

// The WITH RECALL step, shared by RankedStatement and serve::Server's
// standing admission. τ = 1.0 does nothing (no plan, counter or profile
// node), keeping the exact path byte-identical to a build without
// src/cascade/. Otherwise `planner` plans the statement; without one, or
// for a CNF statement (outside its cost model), an exact plan honors the
// clause. The plan is counted (cascade::CountPlan), rendered into
// `*plan_text` and reported on a "cascade" child of `ctx`. Returns the
// planned query when it cascades, null on the exact path.
StatusOr<std::shared_ptr<const cascade::PlannedQuery>> PlanRecall(
    const QueryStatement& stmt, const cascade::Planner* planner,
    const obs::QueryContext& ctx, std::string* plan_text);

// The ranked-statement front end: every executor (Session::Run on one
// video, cluster::Coordinator::ExecuteRanked on the corpus) plans
// its statement here and keeps only its execution step, which runs
// offline::ScopeToVideo per video, and its certificate renderer.
// options() holds k, the WITH RECALL prefilter and the WITH CONFIDENCE
// identifier at δ on bai::kQueryBaseSeed; scoring() is PaperScoring for a
// conjunction, CnfScoring for CNF.
class RankedStatement {
 public:
  static StatusOr<RankedStatement> Plan(const QueryStatement& stmt,
                                        const cascade::Planner* planner,
                                        const obs::QueryContext& ctx);

  const offline::ScoringModel& scoring() const { return *scoring_; }
  const offline::RvaqOptions& options() const { return options_; }
  // Modeled wire size of the prefilter's thresholds; 0 on the exact path.
  int64_t plan_wire_bytes() const { return plan_wire_bytes_; }

  // Creates a sampling statement's "bai" profile node now, ahead of the
  // executor's own phase nodes; Finish creates it after them otherwise.
  void OpenSamplingPhase();

  // The answer when the prefilter rules out the statement's one video:
  // the plan alone.
  QueryResult Pruned() && { return std::move(result_); }

  // The answer of a run: rows best first, their merged sequences and the
  // accesses. A sampling statement also gets its pull and elimination
  // counts, on the result and on the "bai" node, and the certificate the
  // executor's `certificate(delta, bai_node)` renders.
  template <typename Certificate>
  QueryResult Finish(std::vector<offline::RankedSequence> ranked,
                     const storage::AccessCounter& accesses,
                     int64_t bai_pulls, int64_t bai_arms_eliminated,
                     Certificate certificate) && {
    result_.ranked = std::move(ranked);
    result_.accesses = accesses;
    for (const offline::RankedSequence& seq : result_.ranked) {
      result_.sequences.Add(seq.clips);
    }
    if (identifier_ != nullptr) {
      OpenSamplingPhase();
      sampling_phase_.AddStat("pulls", bai_pulls);
      sampling_phase_.AddStat("arms_eliminated", bai_arms_eliminated);
      result_.bai_pulls = bai_pulls;
      result_.bai_arms_eliminated = bai_arms_eliminated;
      result_.bai_certificate = certificate(delta_, sampling_phase_);
    }
    return std::move(result_);
  }

 private:
  RankedStatement() = default;

  obs::QueryContext ctx_;
  obs::QueryContext sampling_phase_;
  const offline::ScoringModel* scoring_ = nullptr;
  offline::RvaqOptions options_;
  std::shared_ptr<const cascade::PlannedQuery> planned_;  // Null if exact.
  int64_t plan_wire_bytes_ = 0;
  std::unique_ptr<const offline::SequenceIdentifier> identifier_;
  double delta_ = 0.0;
  QueryResult result_;  // Holds the rendered plan until answered.
};

// A pluggable executor for ranked statements over a named source that is
// not a locally-held VideoIndex. The cluster coordinator implements this
// (src/cluster/coordinator.h), so ranked statements whose FROM clause
// names a registered backend route through sharded scatter–gather while
// the query layer stays free of cluster types (the dependency points
// cluster → query, never the reverse).
class RankedBackend {
 public:
  virtual ~RankedBackend() = default;

  // Executes a ranked statement; must return results identical to
  // running the statement against the equivalent single-node repository.
  // `ctx` attributes the backend's work (shard fan-out, batches, bytes on
  // the simulated network) to the query's trace; backends must tolerate
  // an inactive context.
  virtual StatusOr<QueryResult> ExecuteRanked(const QueryStatement& stmt,
                                              const obs::QueryContext& ctx) = 0;
};

// A registered streaming source: the scenario's video, the seed of the
// model bundle built over it, and the engine options every query against
// it runs with.
struct StreamSource {
  synth::Scenario scenario;
  uint64_t model_seed = 1;
  online::SvaqdOptions options;
};

// Supplies an online statement's model bundle over registered stream
// `name`: one the caller keeps (serve::Server's shared detection cache),
// or `*owned`, filled in. Its stack must match the statement's.
using ModelSource = std::function<detect::ModelBundle*(
    const std::string& name, const StreamSource& source,
    const QueryStatement& stmt, detect::ModelBundle* owned,
    const obs::QueryContext& ctx)>;

class Session {
 public:
  Session() = default;

  // Registers a streaming source: the scenario's video, processed per
  // statement by the bundle Run is given (by default a fresh one).
  // `svaqd_options` configures the engine.
  void RegisterStream(const std::string& name, synth::Scenario scenario,
                      uint64_t model_seed = 1,
                      online::SvaqdOptions svaqd_options = {});

  // Registers an ingested repository video.
  void RegisterRepository(const std::string& name,
                          storage::VideoIndex index);

  // Registers a ranked backend (e.g. a cluster coordinator) under a FROM
  // name. Ranked statements naming it are routed to the backend; the
  // backend is not owned and must outlive the session. A backend wins
  // over a repository video of the same name.
  void RegisterRankedBackend(const std::string& name, RankedBackend* backend);

  // Registers the ingest-time proxy tier consulted by WITH RECALL
  // statements over repository videos (keys must match the repository
  // names) and builds the session's cascade planner over it, which
  // plans each (concepts, τ) once. Not owned; nullptr unregisters.
  // Without one, approximate statements fall back to the exact path.
  // The set must not change while registered: after changing it,
  // register it again, or statements keep the plans of the old set.
  void RegisterProxySet(const cascade::ProxySet* proxy);

  // Parses and runs one statement. An EXPLAIN ANALYZE statement executes
  // normally and additionally fills QueryResult::profile_text with the
  // deterministic per-phase profile tree.
  StatusOr<QueryResult> Execute(const std::string& sql);

  // Runs an already-parsed statement through Run, counting it in
  // vaq_session_statements_total{kind=...}.
  StatusOr<QueryResult> Execute(const QueryStatement& stmt);

  // The one dispatch step. Resolves the statement's FROM name and runs
  // it, attributing its cost to `ctx`: a ranked statement on the backend
  // of that name, else on the repository video with the session's
  // planner; an online statement on the stream, over the bundle `models`
  // supplies (a fresh MakeStatementModels bundle when null). Counts no
  // statement. Once registration is done, concurrent calls are safe for
  // statements over distinct sources.
  StatusOr<QueryResult> Run(const QueryStatement& stmt,
                            const obs::QueryContext& ctx,
                            const ModelSource& models = nullptr) const;

  // kNotFound when the statement's FROM name is no registered source of
  // its kind (a backend or repository video for a ranked statement, a
  // stream otherwise): the check Run makes first.
  Status CheckSource(const QueryStatement& stmt) const;

  // The stream registered as `name`; null if there is none.
  const StreamSource* FindStream(const std::string& name) const;

 private:
  // A resolved FROM name: exactly one member is set.
  struct Source {
    RankedBackend* backend = nullptr;
    const storage::VideoIndex* repository = nullptr;
    const StreamSource* stream = nullptr;
  };
  StatusOr<Source> Resolve(const QueryStatement& stmt) const;

  std::map<std::string, StreamSource> streams_;
  std::map<std::string, storage::VideoIndex> repositories_;
  std::map<std::string, RankedBackend*> backends_;
  std::unique_ptr<const cascade::Planner> planner_;
};

}  // namespace query
}  // namespace vaq

#endif  // VAQ_QUERY_SESSION_H_
