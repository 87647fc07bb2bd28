// §5.2 "Runtime Superiority": online query time decomposition.
//
// Paper claims: (1) >98% of SVAQ/SVAQD query latency is model inference
// (168.7 of 171.8 minutes for q1); (2) predicate short-circuiting saves
// inference; (3) an end-to-end model fine-tuned per query costs >60 hours
// to train for a <0.05 F1 gain, so composing black-box models is the only
// scalable design.
//
// Inference is priced with the profiles' per-invocation latencies
// (ModelProfile::inference_ms), so the decomposition reproduces at any
// hardware scale. The algorithm column is the wall time of the
// `Svaqd::Run` call, timed here.
#include <chrono>

#include "bench/bench_util.h"
#include "detect/models.h"
#include "online/svaqd.h"
#include "synth/scenario.h"

int main() {
  using namespace vaq;
  const synth::Scenario scenario = synth::Scenario::YouTube(1);

  bench::TablePrinter table(
      "§5.2 — online runtime decomposition, q1 (washing dishes)",
      {"configuration", "algorithm_s", "inference_s", "total_s",
       "inference_share", "detector_inf", "recognizer_inf"});

  for (const bool short_circuit : {true, false}) {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), 7);
    online::SvaqdOptions options;
    options.base.short_circuit = short_circuit;
    const auto start = std::chrono::steady_clock::now();
    const online::OnlineResult result =
        online::Svaqd(scenario.query(), scenario.layout(), options)
            .Run(models.detector.get(), models.recognizer.get());
    const double algorithm_s = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
    const double inference_s = models.TotalSimulatedMs() / 1000.0;
    const double total_s = inference_s + algorithm_s;
    table.AddRow({short_circuit ? "SVAQD (short-circuit)" : "SVAQD (full)",
                  bench::Fmt("%.2f", algorithm_s),
                  bench::Fmt("%.1f", inference_s),
                  bench::Fmt("%.1f", total_s),
                  bench::Fmt("%.3f%%", 100.0 * inference_s / total_s),
                  bench::Fmt(result.detector_stats.inferences),
                  bench::Fmt(result.recognizer_stats.inferences)});
  }

  // The end-to-end alternative: fine-tuning an I3D-style network for this
  // exact (action, objects) combination. The paper measured >60 hours; we
  // model it as epochs over the video at training cost ~3x inference.
  {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(scenario.truth(), 7);
    const double per_shot_train_ms =
        3.0 * detect::ModelProfile::I3d().inference_ms;
    const double epochs = 50;
    const double train_s = epochs *
                           static_cast<double>(scenario.layout().NumShots()) *
                           per_shot_train_ms / 1000.0;
    (void)models;
    table.AddRow({"end-to-end model (train+infer)", "-",
                  bench::Fmt("%.0f", train_s), bench::Fmt("%.0f", train_s),
                  "-", "-", "-"});
  }
  table.Print();
  std::printf(
      "\nNote: the end-to-end row covers ONE query's model; every new\n"
      "predicate combination would need its own training run, which is the\n"
      "paper's scalability argument for composing black-box models.\n");
  return 0;
}
