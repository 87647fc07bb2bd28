#include "offline/query_view.h"

#include <utility>

#include "common/logging.h"

namespace vaq {
namespace offline {
namespace {

StatusOr<const storage::TypeIndex*> FindObjectEntry(
    const storage::VideoIndex& index, ObjectTypeId type,
    const Vocabulary& vocab) {
  const storage::TypeIndex* entry = index.FindObject(type);
  if (entry == nullptr) {
    const std::string name = type >= 0 && type < vocab.num_object_types()
                                 ? vocab.ObjectTypeName(type)
                                 : "#" + std::to_string(type);
    return Status::NotFound("object type not ingested: " + name);
  }
  return entry;
}

StatusOr<const storage::TypeIndex*> FindActionEntry(
    const storage::VideoIndex& index, ActionTypeId type,
    const Vocabulary& vocab) {
  const storage::TypeIndex* entry = index.FindAction(type);
  if (entry == nullptr) {
    const std::string name = type >= 0 && type < vocab.num_action_types()
                                 ? vocab.ActionTypeName(type)
                                 : "#" + std::to_string(type);
    return Status::NotFound("action type not ingested: " + name);
  }
  return entry;
}

}  // namespace

StatusOr<QueryTables> QueryTables::Bind(const storage::VideoIndex& index,
                                        const QuerySpec& query,
                                        const Vocabulary& vocab) {
  QueryTables out;
  out.num_clips = index.num_clips;
  for (ObjectTypeId type : query.objects) {
    VAQ_ASSIGN_OR_RETURN(const storage::TypeIndex* entry,
                         FindObjectEntry(index, type, vocab));
    out.schema.clauses.push_back({static_cast<int>(out.tables.size())});
    out.tables.push_back(&entry->table);
    out.sequences.push_back(&entry->sequences);
  }
  out.schema.num_objects = static_cast<int>(out.tables.size());
  if (query.has_action()) {
    VAQ_ASSIGN_OR_RETURN(const storage::TypeIndex* entry,
                         FindActionEntry(index, query.action, vocab));
    out.schema.has_action = true;
    out.schema.clauses.push_back({static_cast<int>(out.tables.size())});
    out.tables.push_back(&entry->table);
    out.sequences.push_back(&entry->sequences);
  }
  if (out.num_tables() == 0) {
    return Status::InvalidArgument("query touches no tables");
  }
  return out;
}

StatusOr<QueryTables> QueryTables::BindCnf(const storage::VideoIndex& index,
                                           const CnfQuery& query,
                                           const Vocabulary& vocab) {
  QueryTables out;
  out.num_clips = index.num_clips;
  const std::vector<Literal> literals = query.DistinctLiterals();
  for (const Literal& literal : literals) {
    const storage::TypeIndex* entry = nullptr;
    if (literal.kind == Literal::Kind::kObject) {
      VAQ_ASSIGN_OR_RETURN(entry, FindObjectEntry(index, literal.type, vocab));
    } else {
      VAQ_ASSIGN_OR_RETURN(entry, FindActionEntry(index, literal.type, vocab));
    }
    out.tables.push_back(&entry->table);
    out.sequences.push_back(&entry->sequences);
  }
  for (const Clause& clause : query.clauses) {
    std::vector<int> indices;
    for (const Literal& literal : clause.literals) {
      for (size_t i = 0; i < literals.size(); ++i) {
        if (literals[i] == literal) {
          indices.push_back(static_cast<int>(i));
          break;
        }
      }
    }
    out.schema.clauses.push_back(std::move(indices));
  }
  if (out.num_tables() == 0) {
    return Status::InvalidArgument("query touches no tables");
  }
  return out;
}

IntervalSet QueryTables::ComputePq() const {
  IntervalSet pq;
  IntervalSet cover;
  IntervalSet scratch;
  ComputePq(&pq, &cover, &scratch);
  return pq;
}

void QueryTables::ComputePq(IntervalSet* pq, IntervalSet* cover,
                            IntervalSet* scratch) const {
  pq->Clear();
  pq->Add(Interval(0, num_clips - 1));
  for (const std::vector<int>& clause : schema.clauses) {
    // A clause is satisfied wherever any of its literals' individual
    // sequences cover the clip (footnote 4 of the paper).
    cover->Clear();
    for (int table : clause) {
      scratch->AssignUnion(*cover, *sequences[static_cast<size_t>(table)]);
      std::swap(*cover, *scratch);
    }
    scratch->AssignIntersection(*pq, *cover);
    std::swap(*pq, *scratch);
  }
}

double ExactSequenceScore(const QueryTables& tables,
                          const ScoringModel& scoring, const Interval& seq,
                          ExactScoreScratch* scratch) {
  const std::vector<const storage::ScoreTable*>& all = tables.AllTables();
  const size_t len = static_cast<size_t>(seq.length());
  std::vector<double>& columns = scratch->columns;
  columns.clear();
  for (const storage::ScoreTable* table : all) {
    table->RangeScores(seq.lo, seq.hi, &columns);
  }
  std::vector<double>& values = scratch->values;
  values.resize(all.size());
  double total = scoring.Identity();
  for (size_t i = 0; i < len; ++i) {
    for (size_t t = 0; t < all.size(); ++t) values[t] = columns[t * len + i];
    total = scoring.Combine(total, scoring.ClipScore(values, tables.schema));
  }
  return total;
}

double ExactSequenceScore(const QueryTables& tables,
                          const ScoringModel& scoring, const Interval& seq) {
  ExactScoreScratch scratch;
  return ExactSequenceScore(tables, scoring, seq, &scratch);
}

ClipScoreSource::ClipScoreSource(const QueryTables* tables,
                                 const ScoringModel* scoring) {
  Reset(tables, scoring);
}

void ClipScoreSource::Reset(const QueryTables* tables,
                            const ScoringModel* scoring) {
  VAQ_CHECK(tables != nullptr);
  VAQ_CHECK(scoring != nullptr);
  tables_ = tables;
  scoring_ = scoring;
  num_clips_ = static_cast<size_t>(tables->num_clips);
  const size_t entries =
      static_cast<size_t>(tables->num_tables()) * num_clips_;
  entry_value_.assign(entries, 0.0);
  entry_known_.assign(entries, false);
  full_score_.assign(num_clips_, 0.0);
  full_known_.assign(num_clips_, false);
  values_.resize(static_cast<size_t>(tables->num_tables()));
}

void ClipScoreSource::NoteKnownEntry(int table_idx, ClipIndex clip,
                                     double score) {
  const size_t e = EntryIndex(static_cast<size_t>(table_idx), clip);
  entry_value_[e] = score;
  entry_known_[e] = true;
}

int64_t ClipScoreSource::MissingEntries(ClipIndex clip) const {
  if (full_known_[static_cast<size_t>(clip)]) return 0;
  int64_t missing = 0;
  for (size_t t = 0; t < tables_->tables.size(); ++t) {
    if (!entry_known_[EntryIndex(t, clip)]) ++missing;
  }
  return missing;
}

double ClipScoreSource::BoundWith(ClipIndex clip,
                                  const std::vector<double>& fill) const {
  VAQ_CHECK_EQ(fill.size(), tables_->tables.size());
  for (size_t t = 0; t < fill.size(); ++t) {
    const size_t e = EntryIndex(t, clip);
    values_[t] = entry_known_[e] ? entry_value_[e] : fill[t];
  }
  return scoring_->ClipScore(values_, tables_->schema);
}

double ClipScoreSource::Score(ClipIndex clip) {
  const size_t c = static_cast<size_t>(clip);
  if (full_known_[c]) return full_score_[c];
  const std::vector<const storage::ScoreTable*>& all = tables_->AllTables();
  for (size_t t = 0; t < all.size(); ++t) {
    const size_t e = EntryIndex(t, clip);
    if (!entry_known_[e]) {
      entry_value_[e] = all[t]->RandomScore(clip);  // Counted random access.
      entry_known_[e] = true;
    }
    values_[t] = entry_value_[e];
  }
  const double score = scoring_->ClipScore(values_, tables_->schema);
  full_score_[c] = score;
  full_known_[c] = true;
  return score;
}

}  // namespace offline
}  // namespace vaq
