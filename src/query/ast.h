// Abstract syntax of the paper's SQL-like query language (§1-2).
//
// Two statement forms are supported, mirroring the paper's examples:
//
//   -- online (streaming):
//   SELECT MERGE(clipID) AS Sequence
//   FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector,
//         act USING ActionRecognizer)
//   WHERE act='jumping' AND obj.include('car', 'human')
//
//   -- offline (repository, ranked):
//   SELECT MERGE(clipID) AS Sequence, RANK(act, obj)
//   FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker,
//         act USING ActionRecognizer)
//   WHERE act='jumping' AND obj.include('car', 'human')
//   ORDER BY RANK(act, obj) LIMIT K
//
// `obj.inc(...)` is accepted as an alias of `obj.include(...)`; keywords
// are case-insensitive; either or both of the act/obj predicates may be
// present. An optional `EXPLAIN ANALYZE` prefix executes the statement
// and attaches a deterministic per-phase cost profile to the result.
#ifndef VAQ_QUERY_AST_H_
#define VAQ_QUERY_AST_H_

#include <cstdint>
#include <string>
#include <vector>

namespace vaq {
namespace query {

struct QueryStatement {
  // FROM (PROCESS <video> ...): the registered stream/repository name.
  std::string video;
  // Models named in USING clauses, in order of appearance (informational;
  // the session decides the actual model bundle).
  std::vector<std::string> models;
  // WHERE act='<action>'; empty when absent or when the statement needs
  // the general CNF form (see cnf_clauses).
  std::string action;
  // WHERE obj.include('a', 'b', ...); empty when absent.
  std::vector<std::string> objects;
  // General CNF form: one entry per clause, literals prefixed "obj:" /
  // "act:". Always populated; `IsConjunctive()` says whether the simpler
  // action/objects fields fully describe the statement.
  std::vector<std::vector<std::string>> cnf_clauses;
  // SELECT ... RANK(...) and/or ORDER BY RANK(...) present.
  bool ranked = false;
  // LIMIT K; -1 when absent.
  int64_t limit = -1;
  // WITH RECALL τ; 1.0 when absent. τ < 1.0 lets the session/cluster
  // plan a proxy-model cascade (src/cascade/) that meets the target at
  // minimum modeled cost; exactly 1.0 always executes the exact path.
  double recall_target = 1.0;
  // WITH CONFIDENCE δ; 0.0 when absent. δ > 0 routes ranked execution
  // through best-arm identification (src/bai/): the top-k set is correct
  // with probability >= 1-δ at a fraction of the model invocations.
  // Absent or exactly 0.0 always executes today's exact path,
  // byte-identical including metric snapshots.
  double confidence_delta = 0.0;
  // EXPLAIN ANALYZE prefix: execute the statement and attach a per-phase
  // profile tree (query/session.h fills QueryResult::profile_text).
  bool explain_analyze = false;

  // True when the statement is a plain conjunction of at most one action
  // and object presences (the paper's core form); false when it uses
  // disjunctive clauses or multiple actions (footnotes 3-4).
  bool IsConjunctive() const;

  // True when the statement ranks (RANK or LIMIT present): it runs over a
  // repository with RVAQ, not online over a stream.
  bool IsRanked() const { return ranked || limit >= 0; }

  std::string ToString() const;
};

}  // namespace query
}  // namespace vaq

#endif  // VAQ_QUERY_AST_H_
