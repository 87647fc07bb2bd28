#include "query/session.h"

#include <memory>

#include "bai/sequence_arms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "offline/repository.h"
#include "video/cnf_query.h"

#include "query/lexer.h"
#include "query/parser.h"

namespace vaq {
namespace query {
namespace {

// Binds a CNF statement to an ingested video by type names.
StatusOr<offline::QueryTables> BindCnfByName(
    const storage::VideoIndex& index,
    const std::vector<std::vector<std::string>>& clauses) {
  // Build a temporary vocabulary mirroring the index's type ids so
  // CnfQuery name resolution and BindCnf agree.
  Vocabulary vocab;
  for (const storage::TypeIndex& t : index.objects) {
    vocab.AddObjectType(t.type_name);
  }
  for (const storage::TypeIndex& t : index.actions) {
    vocab.AddActionType(t.type_name);
  }
  VAQ_ASSIGN_OR_RETURN(CnfQuery query, CnfQuery::FromNames(vocab, clauses));
  // The temporary vocabulary assigned dense ids in index order, which is
  // exactly how VideoIndex stores them when ingested from a Vocabulary —
  // but be safe and remap via names.
  for (Clause& clause : query.clauses) {
    for (Literal& literal : clause.literals) {
      if (literal.kind == Literal::Kind::kObject) {
        const storage::TypeIndex* entry =
            index.FindObjectByName(vocab.ObjectTypeName(literal.type));
        VAQ_CHECK(entry != nullptr);
        literal.type = entry->type_id;
      } else {
        const storage::TypeIndex* entry =
            index.FindActionByName(vocab.ActionTypeName(literal.type));
        VAQ_CHECK(entry != nullptr);
        literal.type = entry->type_id;
      }
    }
  }
  // BindCnf only consults the index (vocab is for error text).
  return offline::QueryTables::BindCnf(index, query, vocab);
}

}  // namespace

const char* StatementModelStack(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (KeywordEquals(name, "YOLOv3") || KeywordEquals(name, "yolo")) {
      return "yolo_i3d";
    }
    if (KeywordEquals(name, "Ideal") || KeywordEquals(name, "IdealModel")) {
      return "ideal";
    }
  }
  return "maskrcnn_i3d";
}

detect::ModelBundle MakeStatementModels(const std::vector<std::string>& names,
                                        const synth::GroundTruth& truth,
                                        uint64_t seed) {
  const std::string stack = StatementModelStack(names);
  if (stack == "yolo_i3d") return detect::ModelBundle::YoloI3d(truth, seed);
  if (stack == "ideal") return detect::ModelBundle::Ideal(truth, seed);
  return detect::ModelBundle::MaskRcnnI3d(truth, seed);
}

StatusOr<std::shared_ptr<const cascade::PlannedQuery>> PlanRecall(
    const QueryStatement& stmt, const cascade::Planner* planner,
    const obs::QueryContext& ctx, std::string* plan_text) {
  std::shared_ptr<const cascade::PlannedQuery> planned;
  if (stmt.recall_target >= 1.0) return planned;
  const obs::QueryContext phase = ctx.Child("cascade");
  cascade::CascadePlan fallback;
  fallback.recall_target = stmt.recall_target;
  if (planner != nullptr && stmt.IsConjunctive()) {
    VAQ_ASSIGN_OR_RETURN(planned, planner->Lookup(stmt.action, stmt.objects,
                                                  stmt.recall_target));
  }
  const cascade::CascadePlan& plan =
      planned != nullptr ? planned->plan : fallback;
  cascade::CountPlan(plan);
  *plan_text = plan.ToString();
  phase.AddStat("clips_total", plan.clips_total);
  phase.AddStat("clips_surviving", plan.clips_surviving);
  if (!plan.use_cascade) planned.reset();
  return planned;
}

StatusOr<RankedStatement> RankedStatement::Plan(
    const QueryStatement& stmt, const cascade::Planner* planner,
    const obs::QueryContext& ctx) {
  // Both scorings are stateless, so every statement shares one of each.
  static const offline::PaperScoring paper_scoring;
  static const offline::CnfScoring cnf_scoring;
  RankedStatement out;
  out.ctx_ = ctx;
  out.scoring_ = &paper_scoring;
  if (!stmt.IsConjunctive()) out.scoring_ = &cnf_scoring;
  out.options_.k = stmt.limit > 0 ? stmt.limit : 5;
  VAQ_ASSIGN_OR_RETURN(
      out.planned_,
      PlanRecall(stmt, planner, ctx, &out.result_.cascade_plan));
  if (out.planned_ != nullptr) {
    out.options_.prefilter = out.planned_->filters.get();
    out.plan_wire_bytes_ = out.planned_->plan.WireBytes();
  }
  // WITH CONFIDENCE δ > 0. Without it no identifier, "bai" node, metric
  // or certificate exists, keeping the exact path byte-identical to a
  // build without src/bai/. Rvaq::Run prefilters before it samples.
  if (stmt.confidence_delta > 0.0) {
    out.delta_ = stmt.confidence_delta;
    out.identifier_ = std::make_unique<const bai::SequenceArms>(
        bai::SequenceArms::AtConfidence(stmt.confidence_delta));
    out.options_.identifier = out.identifier_.get();
    out.options_.identifier_seed = bai::kQueryBaseSeed;
  }
  return out;
}

void RankedStatement::OpenSamplingPhase() {
  if (identifier_ != nullptr && !sampling_phase_.active()) {
    sampling_phase_ = ctx_.Child("bai");
  }
}

namespace {

// Runs a ranked statement against one repository video: the front end
// with `planner`, then one RVAQ run over the bound tables.
StatusOr<QueryResult> ExecuteRankedStatement(
    const QueryStatement& stmt, const storage::VideoIndex& index,
    const obs::QueryContext& ctx, const cascade::Planner* planner) {
  VAQ_TRACE_SPAN("session/ranked_query");
  VAQ_ASSIGN_OR_RETURN(RankedStatement ranked,
                       RankedStatement::Plan(stmt, planner, ctx));
  offline::RvaqOptions options = ranked.options();
  if (!offline::ScopeToVideo(stmt.video, &options)) {
    return std::move(ranked).Pruned();
  }
  const obs::QueryContext phase = ctx.Child("ranked");
  obs::ScopedQueryContext scoped(phase);
  offline::QueryTables tables;
  if (stmt.IsConjunctive()) {
    VAQ_ASSIGN_OR_RETURN(
        tables, offline::BindByName(index, stmt.action, stmt.objects));
  } else {
    VAQ_ASSIGN_OR_RETURN(tables, BindCnfByName(index, stmt.cnf_clauses));
  }
  offline::TopKResult topk =
      offline::Rvaq(&tables, &ranked.scoring(), options).Run();
  if (topk.candidates_pruned > 0) {
    phase.AddStat("candidates_pruned", topk.candidates_pruned);
  }
  phase.AddMs(topk.accesses.ModeledMs());
  phase.AddStat("seeks", topk.accesses.seeks());
  phase.AddStat("sequential_rows", topk.accesses.sequential_rows());
  phase.AddStat("results", static_cast<int64_t>(topk.top.size()));
  return std::move(ranked).Finish(
      std::move(topk.top), topk.accesses, topk.bai_pulls,
      topk.bai_arms_eliminated,
      [&topk](double delta, const obs::QueryContext& bai_phase) {
        bai_phase.AddStat("stopped", topk.bai_stopped ? 1 : 0);
        return bai::RenderCertificate(delta, topk.bai_pulls,
                                      topk.bai_arms_eliminated,
                                      topk.bai_stopped,
                                      topk.bai_stopping_statistic);
      });
}

}  // namespace

StatusOr<CnfQuery> OnlineStatementQuery(const QueryStatement& stmt,
                                        const Vocabulary& vocab) {
  if (!stmt.IsConjunctive()) {
    return CnfQuery::FromNames(vocab, stmt.cnf_clauses);
  }
  VAQ_ASSIGN_OR_RETURN(QuerySpec spec,
                       QuerySpec::FromNames(vocab, stmt.action, stmt.objects));
  return CnfQuery::FromConjunctive(spec);
}

namespace {

// Runs an online statement over `stream` with `models`. The returned stats
// are per-run deltas, so a bundle shared across successive statements
// reports each statement's marginal cost only.
StatusOr<QueryResult> ExecuteOnlineStatement(const QueryStatement& stmt,
                                             const StreamSource& stream,
                                             detect::ModelBundle* models,
                                             const obs::QueryContext& ctx) {
  VAQ_TRACE_SPAN("session/online_query");
  const obs::QueryContext phase = ctx.Child("online");
  // The resilient model wrappers read the thread-local context, so their
  // per-outcome call counts land on this query's "online" node.
  obs::ScopedQueryContext scoped(phase);
  VAQ_ASSIGN_OR_RETURN(CnfQuery query,
                       OnlineStatementQuery(stmt, stream.scenario.vocab()));
  online::OnlineResult online_result =
      online::Svaqd(std::move(query), stream.scenario.layout(), stream.options)
          .Run(models->detector.get(), models->recognizer.get());
  QueryResult result;
  result.online = true;
  result.sequences = std::move(online_result.sequences);
  result.detector_stats = online_result.detector_stats;
  result.recognizer_stats = online_result.recognizer_stats;
  result.degraded_clips = online_result.degraded_clips;
  result.dropped_clips = online_result.dropped_clips;
  phase.AddMs(result.detector_stats.simulated_ms +
              result.recognizer_stats.simulated_ms);
  phase.AddStat("detector_inferences", result.detector_stats.inferences);
  phase.AddStat("recognizer_inferences", result.recognizer_stats.inferences);
  if (result.degraded_clips > 0) {
    phase.AddStat("degraded_clips", result.degraded_clips);
  }
  if (result.dropped_clips > 0) {
    phase.AddStat("dropped_clips", result.dropped_clips);
  }
  return result;
}

}  // namespace

void Session::RegisterStream(const std::string& name,
                             synth::Scenario scenario, uint64_t model_seed,
                             online::SvaqdOptions svaqd_options) {
  streams_.insert_or_assign(
      name, StreamSource{std::move(scenario), model_seed,
                         std::move(svaqd_options)});
}

void Session::RegisterRepository(const std::string& name,
                                 storage::VideoIndex index) {
  repositories_.insert_or_assign(name, std::move(index));
}

void Session::RegisterProxySet(const cascade::ProxySet* proxy) {
  planner_.reset(proxy == nullptr ? nullptr : new cascade::Planner(proxy));
}

void Session::RegisterRankedBackend(const std::string& name,
                                    RankedBackend* backend) {
  backends_.insert_or_assign(name, backend);
}

StatusOr<QueryResult> Session::Execute(const std::string& sql) {
  VAQ_ASSIGN_OR_RETURN(QueryStatement stmt, Parse(sql));
  return Execute(stmt);
}

StatusOr<QueryResult> Session::Execute(const QueryStatement& stmt) {
  // Each kind's series is registered on its first statement.
  if (stmt.IsRanked()) {
    static obs::Counter* const ranked = obs::MetricRegistry::Global()
        .GetCounter("vaq_session_statements_total", {{"kind", "ranked"}});
    ranked->Increment();
  } else {
    static obs::Counter* const online = obs::MetricRegistry::Global()
        .GetCounter("vaq_session_statements_total", {{"kind", "online"}});
    online->Increment();
  }
  if (stmt.explain_analyze) {
    // EXPLAIN ANALYZE outside a serving context: profile into a private
    // trace and render it. The root name is fixed so the output is a
    // pure function of the statement's execution.
    obs::QueryTrace trace("explain");
    VAQ_ASSIGN_OR_RETURN(QueryResult result, Run(stmt, {&trace, 0}));
    result.profile_text = trace.RenderProfile();
    return result;
  }
  return Run(stmt, obs::QueryContext{});
}

StatusOr<Session::Source> Session::Resolve(const QueryStatement& stmt) const {
  if (!stmt.IsRanked()) {
    const StreamSource* stream = FindStream(stmt.video);
    if (stream == nullptr) {
      return Status::NotFound("no stream named '" + stmt.video + "'");
    }
    return Source{.stream = stream};
  }
  auto backend = backends_.find(stmt.video);
  if (backend != backends_.end()) return Source{.backend = backend->second};
  auto it = repositories_.find(stmt.video);
  if (it == repositories_.end()) {
    return Status::NotFound("no repository video named '" + stmt.video + "'");
  }
  return Source{.repository = &it->second};
}

Status Session::CheckSource(const QueryStatement& stmt) const {
  return Resolve(stmt).status();
}

const StreamSource* Session::FindStream(const std::string& name) const {
  auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : &it->second;
}

StatusOr<QueryResult> Session::Run(const QueryStatement& stmt,
                                   const obs::QueryContext& ctx,
                                   const ModelSource& models) const {
  VAQ_ASSIGN_OR_RETURN(const Source source, Resolve(stmt));
  if (source.backend != nullptr) {
    return source.backend->ExecuteRanked(stmt, ctx);
  }
  if (source.repository != nullptr) {
    return ExecuteRankedStatement(stmt, *source.repository, ctx,
                                  planner_.get());
  }
  const StreamSource& stream = *source.stream;
  detect::ModelBundle owned;
  detect::ModelBundle* bundle = &owned;
  if (models != nullptr) {
    bundle = models(stmt.video, stream, stmt, &owned, ctx);
  } else {
    owned = MakeStatementModels(stmt.models, stream.scenario.truth(),
                                stream.model_seed);
  }
  return ExecuteOnlineStatement(stmt, stream, bundle, ctx);
}

}  // namespace query
}  // namespace vaq
