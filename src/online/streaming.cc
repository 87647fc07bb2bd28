#include "online/streaming.h"

#include <algorithm>
#include <type_traits>

#include "ckpt/serializer.h"
#include "common/logging.h"
#include "detect/resilient.h"
#include "fault/sim_clock.h"
#include "obs/metrics.h"
#include "online/predicate_state.h"

namespace vaq {
namespace online {

using internal_online::PredicateState;

namespace {

// One literal's observation of the current clip.
struct Observation {
  bool evaluated = false;  // False when the clip short-circuited it away.
  int64_t units = 0;       // Frames or shots of the clip.
  int64_t positive = 0;    // Units observed positive.
  int64_t missing = 0;     // Units whose observation failed.
};

// Counts `type`'s positive units in `units`: the one place the engine
// invokes a model. The raw models answer bool; the resilient wrappers
// answer StatusOr<bool>, and a failed unit counts as missing.
template <typename Model>
void CountPositives(Model* model, int32_t type, Interval units,
                    Observation* out) {
  for (int64_t u = units.lo; u <= units.hi; ++u) {
    const auto positive = model->IsPositive(type, u);
    if constexpr (std::is_same_v<std::decay_t<decltype(positive)>, bool>) {
      if (positive) ++out->positive;
    } else if (!positive.ok()) {
      ++out->missing;
    } else if (*positive) {
      ++out->positive;
    }
  }
}

const char* PolicyName(MissingObsPolicy policy) {
  switch (policy) {
    case MissingObsPolicy::kAssumeNegative:
      return "assume_negative";
    case MissingObsPolicy::kCarryLast:
      return "carry_last";
    case MissingObsPolicy::kBackgroundPrior:
      return "background_prior";
  }
  return "?";
}

// Fallback positive probability for one literal's missing observations.
double FallbackRate(MissingObsPolicy policy, const PredicateState& state) {
  switch (policy) {
    case MissingObsPolicy::kAssumeNegative:
      return 0.0;
    case MissingObsPolicy::kCarryLast:
      return state.last_observed_rate;
    case MissingObsPolicy::kBackgroundPrior:
      return state.estimator.rate();
  }
  return 0.0;
}

// Record tags of the engine blob, layout StreamingSvaqd::kBlobLayout
// (append-only within a ckpt::kFormatVersion). Everything round-trips
// exactly: doubles travel as IEEE-754 bit patterns, so a restored engine
// continues on the identical floating-point trajectory.
enum BlobTag : uint32_t {
  kTagMeta = 1,
  kTagSequences = 2,
  kTagLiteral = 3,
  kTagDetectorCore = 4,
  kTagRecognizerCore = 5,
};

void EncodePredicateState(const PredicateState& p, ckpt::Payload* out) {
  const scanstat::KernelRateEstimator::State e = p.estimator.state();
  out->PutF64(e.event_weight);
  out->PutF64(e.total_weight);
  out->PutI64(e.num_observed);
  out->PutF64(p.p_at_last_compute);
  out->PutI64(p.kcrit);
  out->PutF64(p.last_observed_rate);
  out->PutF64(p.count_weight);
  out->PutF64(p.count_sum);
  out->PutF64(p.count_sq_sum);
  out->PutF64(p.window_sum);
}

Status DecodePredicateState(ckpt::PayloadReader* in, PredicateState* p) {
  scanstat::KernelRateEstimator::State e;
  VAQ_RETURN_IF_ERROR(in->GetF64(&e.event_weight));
  VAQ_RETURN_IF_ERROR(in->GetF64(&e.total_weight));
  VAQ_RETURN_IF_ERROR(in->GetI64(&e.num_observed));
  p->estimator.set_state(e);
  VAQ_RETURN_IF_ERROR(in->GetF64(&p->p_at_last_compute));
  VAQ_RETURN_IF_ERROR(in->GetI64(&p->kcrit));
  VAQ_RETURN_IF_ERROR(in->GetF64(&p->last_observed_rate));
  VAQ_RETURN_IF_ERROR(in->GetF64(&p->count_weight));
  VAQ_RETURN_IF_ERROR(in->GetF64(&p->count_sum));
  VAQ_RETURN_IF_ERROR(in->GetF64(&p->count_sq_sum));
  return in->GetF64(&p->window_sum);
}

using CoreState = detect::internal_detect::ResilientCore::State;

void EncodeCoreState(const CoreState& s, ckpt::Payload* out) {
  out->PutI64(s.attempt_nonce);
  out->PutI64(s.consecutive_failures);
  out->PutBool(s.breaker_open);
  out->PutF64(s.breaker_reopen_ms);
}

Status DecodeCoreState(ckpt::PayloadReader* in, CoreState* s) {
  VAQ_RETURN_IF_ERROR(in->GetI64(&s->attempt_nonce));
  VAQ_RETURN_IF_ERROR(in->GetI64(&s->consecutive_failures));
  VAQ_RETURN_IF_ERROR(in->GetBool(&s->breaker_open));
  return in->GetF64(&s->breaker_reopen_ms);
}

}  // namespace

struct StreamingSvaqd::State {
  // One entry per distinct literal, and the clauses as indices into it.
  std::vector<PredicateState> literals;
  std::vector<std::vector<size_t>> clauses;
  std::vector<Observation> observations;  // The current clip's.
  bool needs_detector = false;
  bool needs_recognizer = false;

  // Resilience state, which must persist across pushes so retries,
  // breaker and backoff evolve exactly as over one continuous stream.
  fault::SimClock clock;
  std::unique_ptr<detect::ResilientObjectDetector> rdetector;
  std::unique_ptr<detect::ResilientActionRecognizer> rrecognizer;
  // Retry/breaker state restored from a checkpoint before the wrappers
  // exist (they bind lazily to the model instances of the first push);
  // applied at wrapper creation.
  bool has_pending_det_core = false;
  bool has_pending_rec_core = false;
  CoreState pending_det_core;
  CoreState pending_rec_core;

  // Registry mirrors, resolved once per engine. Only logical quantities
  // are recorded (clip counts and *simulated* model milliseconds), so a
  // seeded run exports a byte-identical snapshot. Events are counted
  // where they occur, whether or not a callback is installed.
  obs::Counter* metric_clips = nullptr;
  obs::Counter* metric_rejections = nullptr;
  obs::Counter* metric_degraded = nullptr;
  obs::Counter* metric_dropped = nullptr;
  obs::Counter* metric_gap_policy = nullptr;
  obs::Histogram* metric_clip_ms = nullptr;
  obs::Counter* metric_event_opened = nullptr;
  obs::Counter* metric_event_extended = nullptr;
  obs::Counter* metric_event_closed = nullptr;
  obs::Counter* metric_event_gap = nullptr;
};

StreamingSvaqd::StreamingSvaqd(QuerySpec query, VideoLayout layout,
                               SvaqdOptions options, Callback callback)
    : StreamingSvaqd(CnfQuery::FromConjunctive(query), layout,
                     std::move(options), std::move(callback)) {}

StreamingSvaqd::StreamingSvaqd(CnfQuery query, VideoLayout layout,
                               SvaqdOptions options, Callback callback)
    : layout_(layout),
      options_(std::move(options)),
      callback_(std::move(callback)),
      state_(std::make_unique<State>()) {
  State& s = *state_;
  const SvaqOptions& base = options_.base;
  const std::vector<Literal> literals = query.DistinctLiterals();
  s.literals.reserve(literals.size());
  for (const Literal& literal : literals) {
    if (literal.kind == Literal::Kind::kObject) {
      s.needs_detector = true;
      s.literals.emplace_back(literal, options_.bandwidth_frames,
                              base.p0_object, options_.prior_weight,
                              ObjectScanConfig(layout_, base),
                              options_.burst_aware, options_.adaptive);
    } else {
      s.needs_recognizer = true;
      s.literals.emplace_back(literal, options_.bandwidth_shots,
                              base.p0_action, options_.prior_weight,
                              ActionScanConfig(layout_, base),
                              options_.burst_aware, options_.adaptive);
    }
  }
  for (const Clause& clause : query.clauses) {
    std::vector<size_t>& indices = s.clauses.emplace_back();
    for (const Literal& literal : clause.literals) {
      indices.push_back(static_cast<size_t>(
          std::find(literals.begin(), literals.end(), literal) -
          literals.begin()));
    }
  }
  s.observations.resize(literals.size());

  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const obs::Labels engine = {{"engine", options_.adaptive ? "svaqd" : "svaq"}};
  s.metric_clips = registry.GetCounter("vaq_clips_processed_total", engine);
  s.metric_rejections =
      registry.GetCounter("vaq_scanstat_rejections_total", engine);
  s.metric_degraded = registry.GetCounter("vaq_clips_degraded_total", engine);
  s.metric_dropped = registry.GetCounter("vaq_clips_dropped_total", engine);
  obs::Labels gap = engine;
  gap.emplace_back("policy", PolicyName(options_.missing_policy));
  s.metric_gap_policy =
      registry.GetCounter("vaq_gap_policy_activations_total", gap);
  s.metric_clip_ms = registry.GetHistogram(
      "vaq_clip_eval_simulated_ms", obs::DefaultLatencyBucketsMs(), engine);
  const auto event_counter = [&](const char* kind) {
    return registry.GetCounter("vaq_stream_events_total", {{"kind", kind}});
  };
  s.metric_event_opened = event_counter("opened");
  s.metric_event_extended = event_counter("extended");
  s.metric_event_closed = event_counter("closed");
  s.metric_event_gap = event_counter("gap");
}

StreamingSvaqd::~StreamingSvaqd() = default;

Status StreamingSvaqd::CheckCanPush() const {
  if (finished_) {
    return Status::FailedPrecondition("PushClip after Finish");
  }
  if (next_clip_ >= layout_.NumClips()) {
    return Status::OutOfRange(
        "stream exceeds the layout's design horizon of " +
        std::to_string(layout_.NumClips()) + " clips");
  }
  return Status::OK();
}

StatusOr<bool> StreamingSvaqd::PushClip(detect::ObjectDetector* detector,
                                        detect::ActionRecognizer* recognizer) {
  State& s = *state_;
  // Validate everything before touching any state.
  VAQ_RETURN_IF_ERROR(CheckCanPush());
  if (s.needs_detector && detector == nullptr) {
    return Status::InvalidArgument("query has an object literal but no "
                                   "detector was passed");
  }
  if (s.needs_recognizer && recognizer == nullptr) {
    return Status::InvalidArgument("query has an action literal but no "
                                   "recognizer was passed");
  }
  // The wrappers are bound to the models seen on the first push; the
  // retry nonces and breaker state are meaningless across instances.
  if (detector != nullptr && s.rdetector != nullptr &&
      s.rdetector->inner() != detector) {
    return Status::InvalidArgument(
        "PushClip called with a different detector instance");
  }
  if (recognizer != nullptr && s.rrecognizer != nullptr &&
      s.rrecognizer->inner() != recognizer) {
    return Status::InvalidArgument(
        "PushClip called with a different recognizer instance");
  }

  const ClipIndex clip = next_clip_++;
  const fault::FaultPlan* plan = options_.fault_plan;
  if (plan != nullptr) {
    s.clock.Advance(options_.resilience.clip_interval_ms);
    if (detector != nullptr && s.rdetector == nullptr) {
      s.rdetector = std::make_unique<detect::ResilientObjectDetector>(
          detector, plan, options_.resilience, &s.clock);
      if (s.has_pending_det_core) {
        s.rdetector->set_core_state(s.pending_det_core);
        s.has_pending_det_core = false;
      }
    }
    if (recognizer != nullptr && s.rrecognizer == nullptr) {
      s.rrecognizer = std::make_unique<detect::ResilientActionRecognizer>(
          recognizer, plan, options_.resilience, &s.clock);
      if (s.has_pending_rec_core) {
        s.rrecognizer->set_core_state(s.pending_rec_core);
        s.has_pending_rec_core = false;
      }
    }
  }
  const auto simulated_ms = [&] {
    double ms = 0.0;
    if (detector != nullptr) ms += detector->stats().simulated_ms;
    if (recognizer != nullptr) ms += recognizer->stats().simulated_ms;
    return ms;
  };
  const double clip_start_ms = simulated_ms();

  // A dropped clip never arrived: every literal is observed with all its
  // units missing, and its indicator is the missing-observation policy's.
  const bool dropped = plan != nullptr && plan->DropClip(clip);
  const bool probe = options_.adaptive && options_.probe_period > 0 &&
                     clip % options_.probe_period == 0;
  const bool short_circuit = options_.base.short_circuit && !probe && !dropped;
  for (Observation& o : s.observations) o.evaluated = false;
  bool positive = true;
  for (const std::vector<size_t>& clause : s.clauses) {
    bool fired = false;
    for (const size_t i : clause) {
      if (!s.observations[i].evaluated) {
        Observe(i, clip, dropped, detector, recognizer);
      }
      if (Fires(i)) {
        fired = true;
        if (short_circuit) break;
      }
    }
    if (!fired) {
      positive = false;
      if (short_circuit) break;
    }
  }
  bool degraded = dropped;
  for (const Observation& o : s.observations) {
    if (o.evaluated && o.missing > 0) degraded = true;
  }

  s.metric_clips->Increment();
  if (positive) s.metric_rejections->Increment();
  if (degraded) {
    ++degraded_clips_;
    s.metric_degraded->Increment();
    // A degraded clip is exactly one where the missing-observation (gap)
    // policy had to fill in for abandoned model calls.
    s.metric_gap_policy->Increment();
    s.metric_event_gap->Increment();
    if (callback_) {
      callback_({SequenceEvent::Kind::kGap, Interval(clip, clip), clip});
    }
  }
  if (dropped) {
    ++dropped_clips_;
    s.metric_dropped->Increment();
  }
  s.metric_clip_ms->Observe(simulated_ms() - clip_start_ms);

  UpdateAdaptiveState(positive);

  // Incremental sequence maintenance + events.
  if (!positive) {
    CloseOpenRun(clip - 1, clip);
  } else if (open_start_ < 0) {
    open_start_ = clip;
    s.metric_event_opened->Increment();
    if (callback_) {
      callback_({SequenceEvent::Kind::kOpened, Interval(clip, clip), clip});
    }
  } else {
    s.metric_event_extended->Increment();
    if (callback_) {
      callback_({SequenceEvent::Kind::kExtended, Interval(open_start_, clip),
                 clip});
    }
  }
  return positive;
}

void StreamingSvaqd::Observe(size_t i, ClipIndex clip, bool dropped,
                             detect::ObjectDetector* detector,
                             detect::ActionRecognizer* recognizer) {
  State& s = *state_;
  const Literal literal = s.literals[i].literal;
  const bool object = literal.kind == Literal::Kind::kObject;
  const Interval units =
      object ? layout_.ClipFrameRange(clip) : layout_.ClipShotRange(clip);
  Observation& o = s.observations[i];
  o = Observation{true, units.length(), 0, 0};
  if (dropped) {
    o.missing = o.units;
  } else if (object) {
    // The resilient wrappers exist exactly when faults are injected.
    if (s.rdetector != nullptr) {
      CountPositives(s.rdetector.get(), literal.type, units, &o);
    } else {
      CountPositives(detector, literal.type, units, &o);
    }
  } else if (s.rrecognizer != nullptr) {
    CountPositives(s.rrecognizer.get(), literal.type, units, &o);
  } else {
    CountPositives(recognizer, literal.type, units, &o);
  }
  if (o.missing > 0) {
    if (object) {
      s.rdetector->CountFallbacks(o.missing);
    } else {
      s.rrecognizer->CountFallbacks(o.missing);
    }
  }
}

bool StreamingSvaqd::Fires(size_t i) const {
  const PredicateState& p = state_->literals[i];
  const Observation& o = state_->observations[i];
  if (o.missing == 0) return o.positive >= p.kcrit;
  // Each missing unit contributes the policy's expected positive
  // probability: the literal fires when
  //   observed_count + missing * fallback >= k_crit.
  const double effective =
      static_cast<double>(o.positive) +
      static_cast<double>(o.missing) *
          FallbackRate(options_.missing_policy, p);
  return effective >= static_cast<double>(p.kcrit);
}

void StreamingSvaqd::UpdateAdaptiveState(bool positive) {
  State& s = *state_;
  const UpdatePolicy policy = options_.update_policy;
  // Which clips feed the background estimators.
  const bool clip_gate =
      options_.adaptive &&
      (policy == UpdatePolicy::kAllClips ||
       policy == UpdatePolicy::kSelfExcluding ||
       (policy == UpdatePolicy::kNegativeClipsOnly && !positive) ||
       (policy == UpdatePolicy::kPositiveClipsOnly && positive));
  for (size_t i = 0; i < s.literals.size(); ++i) {
    const Observation& o = s.observations[i];
    // Only successfully observed units count, so injected faults cannot
    // bias the background rate.
    const int64_t observed = o.units - o.missing;
    if (!o.evaluated || observed <= 0) continue;
    PredicateState& p = s.literals[i];
    p.last_observed_rate =
        static_cast<double>(o.positive) / static_cast<double>(observed);
    if (!clip_gate) continue;
    if (policy == UpdatePolicy::kSelfExcluding && 8 * o.positive >= observed) {
      continue;  // Literal plainly satisfied: not background.
    }
    p.estimator.ObserveBatch(observed, o.positive);
    p.ObserveCount(o.positive, observed);
    p.MaybeRecompute(options_.recompute_rel_tol);
  }
}

void StreamingSvaqd::CloseOpenRun(ClipIndex last, ClipIndex reported_at) {
  if (open_start_ < 0) return;
  const Interval closed(open_start_, last);
  sequences_.Add(closed);
  open_start_ = -1;
  state_->metric_event_closed->Increment();
  if (callback_) {
    callback_({SequenceEvent::Kind::kClosed, closed, reported_at});
  }
}

StatusOr<bool> StreamingSvaqd::PushPrunedClip() {
  VAQ_RETURN_IF_ERROR(CheckCanPush());
  const ClipIndex clip = next_clip_++;
  if (options_.fault_plan != nullptr) {
    // Keep virtual time on the clip cadence so the resilience wrappers'
    // breaker/backoff windows line up with the clips that DO run models.
    state_->clock.Advance(options_.resilience.clip_interval_ms);
  }
  CloseOpenRun(clip - 1, clip);
  return false;
}

void StreamingSvaqd::Finish() {
  if (finished_) return;
  finished_ = true;
  CloseOpenRun(next_clip_ - 1, next_clip_ - 1);
}

std::vector<Literal> StreamingSvaqd::literals() const {
  std::vector<Literal> out;
  for (const PredicateState& p : state_->literals) out.push_back(p.literal);
  return out;
}

std::vector<int64_t> StreamingSvaqd::kcrit() const {
  std::vector<int64_t> out;
  for (const PredicateState& p : state_->literals) out.push_back(p.kcrit);
  return out;
}

std::string StreamingSvaqd::SnapshotState() const {
  const State& s = *state_;
  ckpt::Serializer out;
  {
    ckpt::Payload meta;
    meta.PutI64(next_clip_);
    meta.PutI64(open_start_);
    meta.PutBool(finished_);
    meta.PutI64(degraded_clips_);
    meta.PutI64(dropped_clips_);
    meta.PutF64(s.clock.now_ms());
    meta.PutU32(static_cast<uint32_t>(s.literals.size()));
    out.Append(kTagMeta, meta);
  }
  {
    ckpt::Payload seqs;
    seqs.PutIntervalSet(sequences_);
    out.Append(kTagSequences, seqs);
  }
  for (size_t i = 0; i < s.literals.size(); ++i) {
    ckpt::Payload p;
    p.PutU32(static_cast<uint32_t>(i));
    EncodePredicateState(s.literals[i], &p);
    out.Append(kTagLiteral, p);
  }
  // A core state restored before its wrapper exists (no faulted push
  // since the restore) is still pending and must survive this snapshot.
  const auto append_core = [&out](uint32_t tag, const CoreState& core) {
    ckpt::Payload p;
    EncodeCoreState(core, &p);
    out.Append(tag, p);
  };
  if (s.rdetector != nullptr) {
    append_core(kTagDetectorCore, s.rdetector->core_state());
  } else if (s.has_pending_det_core) {
    append_core(kTagDetectorCore, s.pending_det_core);
  }
  if (s.rrecognizer != nullptr) {
    append_core(kTagRecognizerCore, s.rrecognizer->core_state());
  } else if (s.has_pending_rec_core) {
    append_core(kTagRecognizerCore, s.pending_rec_core);
  }
  return out.blob();
}

Status StreamingSvaqd::RestoreState(const std::string& blob) {
  if (next_clip_ != 0 || finished_) {
    return Status::FailedPrecondition(
        "RestoreState requires a fresh StreamingSvaqd");
  }
  State& s = *state_;
  auto records = ckpt::ParseBlob(blob);
  if (!records.ok()) return records.status();
  bool saw_meta = false;
  for (const ckpt::Record& record : records.value()) {
    ckpt::PayloadReader in(record.payload);
    switch (record.tag) {
      case kTagMeta: {
        int64_t next_clip = 0, open_start = 0;
        bool finished = false;
        double clock_ms = 0.0;
        uint32_t n_literals = 0;
        VAQ_RETURN_IF_ERROR(in.GetI64(&next_clip));
        VAQ_RETURN_IF_ERROR(in.GetI64(&open_start));
        VAQ_RETURN_IF_ERROR(in.GetBool(&finished));
        VAQ_RETURN_IF_ERROR(in.GetI64(&degraded_clips_));
        VAQ_RETURN_IF_ERROR(in.GetI64(&dropped_clips_));
        VAQ_RETURN_IF_ERROR(in.GetF64(&clock_ms));
        VAQ_RETURN_IF_ERROR(in.GetU32(&n_literals));
        if (n_literals != s.literals.size()) {
          return Status::InvalidArgument(
              "checkpoint does not match this engine's literal count");
        }
        next_clip_ = next_clip;
        open_start_ = open_start;
        finished_ = finished;
        // A fresh SimClock starts at 0, so one Advance lands on the
        // saved value exactly (0.0 + x == x in IEEE-754).
        s.clock.Advance(clock_ms);
        saw_meta = true;
        break;
      }
      case kTagSequences:
        VAQ_RETURN_IF_ERROR(in.GetIntervalSet(&sequences_));
        break;
      case kTagLiteral: {
        uint32_t index = 0;
        VAQ_RETURN_IF_ERROR(in.GetU32(&index));
        if (index >= s.literals.size()) {
          return Status::Corruption("literal index out of range");
        }
        VAQ_RETURN_IF_ERROR(DecodePredicateState(&in, &s.literals[index]));
        break;
      }
      case kTagDetectorCore:
        VAQ_RETURN_IF_ERROR(DecodeCoreState(&in, &s.pending_det_core));
        s.has_pending_det_core = true;
        break;
      case kTagRecognizerCore:
        VAQ_RETURN_IF_ERROR(DecodeCoreState(&in, &s.pending_rec_core));
        s.has_pending_rec_core = true;
        break;
      default:
        break;  // Unknown record from a newer writer: skip.
    }
  }
  if (!saw_meta) {
    return Status::Corruption("engine checkpoint missing meta record");
  }
  return Status::OK();
}

}  // namespace online
}  // namespace vaq
