// SQL shell: the paper's declarative front end end to end.
//
//   $ ./sql_shell                 # run the two demo statements
//   $ ./sql_shell "SELECT ..."    # run your own statement
//
// Registers one streaming video ("inputVideo", processed online with
// SVAQD) and one ingested repository video ("movieRepo", answered with
// RVAQ), then executes statements in the paper's SQL-like dialect.
#include <cstdio>
#include <string>
#include <vector>

#include "vaq/vaq.h"

namespace {

void RunStatement(vaq::query::Session& session, const std::string& sql) {
  using namespace vaq;
  std::printf("\nvaq> %s\n", sql.c_str());
  auto parsed = query::Parse(sql);
  if (!parsed.ok()) {
    std::printf("  syntax error: %s\n", parsed.status().message().c_str());
    return;
  }
  std::printf("  plan: %s (%s)\n", parsed->ToString().c_str(),
              parsed->IsRanked() ? "offline / RVAQ" : "online / SVAQD");
  auto result = session.Execute(*parsed);
  if (!result.ok()) {
    std::printf("  error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (result->online) {
    std::printf("  %zu sequences: %s\n", result->sequences.size(),
                result->sequences.ToString().c_str());
    std::printf("  inference: %lld frames, %lld shots\n",
                static_cast<long long>(result->detector_stats.inferences),
                static_cast<long long>(result->recognizer_stats.inferences));
  } else {
    for (size_t i = 0; i < result->ranked.size(); ++i) {
      std::printf("  #%zu  clips [%lld, %lld]  score %.1f\n", i + 1,
                  static_cast<long long>(result->ranked[i].clips.lo),
                  static_cast<long long>(result->ranked[i].clips.hi),
                  result->ranked[i].exact_score);
    }
    std::printf("  accesses: %s\n", result->accesses.ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vaq;
  query::Session session;

  // Streaming source: q4's video ("drinking beer", bottle + chair).
  const synth::Scenario stream = synth::Scenario::YouTube(4);
  session.RegisterStream("inputVideo", stream, /*model_seed=*/7);
  std::printf("registered stream 'inputVideo' (%s)\n", stream.name().c_str());

  // Repository source: an ingested movie.
  const synth::Scenario movie =
      synth::Scenario::Movie(synth::MovieId::kIronMan);
  {
    detect::ModelBundle models =
        detect::ModelBundle::MaskRcnnI3d(movie.truth(), 7);
    offline::PaperScoring scoring;
    offline::Ingestor ingestor(&movie.vocab(), &scoring,
                               offline::IngestOptions{});
    session.RegisterRepository(
        "movieRepo",
        std::move(ingestor.Ingest(movie.truth(), models)).value());
  }
  std::printf("registered repository 'movieRepo' (%s, ingested)\n",
              movie.name().c_str());

  if (argc > 1) {
    for (int i = 1; i < argc; ++i) RunStatement(session, argv[i]);
    return 0;
  }

  // The two statement forms from §2 of the paper.
  RunStatement(session,
               "SELECT MERGE(clipID) AS Sequence "
               "FROM (PROCESS inputVideo PRODUCE clipID, obj USING "
               "ObjectDetector, act USING ActionRecognizer) "
               "WHERE act='drinking beer' AND obj.include('bottle', 'chair')");
  RunStatement(session,
               "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "
               "FROM (PROCESS movieRepo PRODUCE clipID, obj USING "
               "ObjectTracker, act USING ActionRecognizer) "
               "WHERE act='robot dancing' AND obj.include('car', 'airplane') "
               "ORDER BY RANK(act, obj) LIMIT 5");
  return 0;
}
