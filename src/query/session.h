// Query execution session.
//
// A `Session` maps the video names appearing in FROM clauses to actual
// data sources:
//
//   * a *stream* — a video processed online with SVAQD (no ORDER BY);
//   * a *repository video* — an ingested storage::VideoIndex queried with
//     RVAQ (ORDER BY RANK ... LIMIT K).
//
// `Execute` parses a statement, resolves the source, dispatches to the
// right engine and returns a uniform result.
#ifndef VAQ_QUERY_SESSION_H_
#define VAQ_QUERY_SESSION_H_

#include <map>
#include <memory>
#include <string>
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

// Modeled disk cost of the offline access path: every seek-like access
// costs kModeledSeekMs, every sequentially streamed row kModeledRowMs.
// One definition shared by EXPLAIN ANALYZE profiles, the serving layer's
// per-query accounting and the benches, so the numbers reconcile.
inline constexpr double kModeledSeekMs = 5.0;
inline constexpr double kModeledRowMs = 0.01;

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

// --- Stateless execution cores -----------------------------------------
// `Session::Execute` and the concurrent serving runtime (src/serve/) run
// statements through the same functions, so a served query cannot drift
// from its single-session semantics.

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

// Runs an online (streaming) statement against `scenario` using
// caller-owned `models` (whose stack must match the statement; see
// MakeStatementModels). The returned stats are per-run deltas, so a
// bundle shared across successive statements reports each statement's
// marginal cost only. `ctx` (optional) attributes the run's simulated ms
// and model-call outcomes to a per-query trace; the context is also
// installed thread-locally for the duration so the resilient model
// wrappers charge the same query.
StatusOr<QueryResult> ExecuteOnlineStatement(
    const QueryStatement& stmt, const synth::Scenario& scenario,
    const online::SvaqdOptions& options, detect::ModelBundle* models,
    const obs::QueryContext& ctx = {});

// Runs a ranked (repository) statement against `index`. `scoring` serves
// conjunctive statements, `cnf_scoring` general CNF ones; both are
// stateless and may be shared across threads. `ctx` as above. When the
// statement carries WITH RECALL < 1.0 and `planner`'s proxy set covers
// the video, the cascade plan (src/cascade/) comes from `planner` and
// the proxy pre-filter prunes candidate sequences before RVAQ binds
// tables; otherwise the statement falls back to the exact path. A
// recall target of exactly 1.0 never consults the planner.
StatusOr<QueryResult> ExecuteRankedStatement(
    const QueryStatement& stmt, const storage::VideoIndex& index,
    const offline::ScoringModel& scoring,
    const offline::ScoringModel& cnf_scoring,
    const obs::QueryContext& ctx = {},
    const cascade::Planner* planner = nullptr);

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

class Session {
 public:
  Session() = default;

  // Registers a streaming source: the scenario's video processed by a
  // fresh model bundle per query. `svaqd_options` configures the engine.
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

  // Runs an already-parsed statement.
  StatusOr<QueryResult> Execute(const QueryStatement& stmt);

  // Runs a statement, attributing its cost to `ctx` (the serving layer
  // passes each admitted query's own trace node here).
  StatusOr<QueryResult> Execute(const QueryStatement& stmt,
                                const obs::QueryContext& ctx);

 private:
  struct StreamSource {
    synth::Scenario scenario;
    uint64_t model_seed;
    online::SvaqdOptions options;
  };

  std::map<std::string, StreamSource> streams_;
  std::map<std::string, storage::VideoIndex> repositories_;
  std::map<std::string, RankedBackend*> backends_;
  std::unique_ptr<const cascade::Planner> planner_;
  offline::PaperScoring scoring_;
  offline::CnfScoring cnf_scoring_;
};

}  // namespace query
}  // namespace vaq

#endif  // VAQ_QUERY_SESSION_H_
