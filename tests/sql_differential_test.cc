// Differential harness: the parallel batch executor against a reference.
//
// Every query — the committed golden corpus plus hundreds of
// generator-driven random queries — is planned once, executed by the
// engine, and evaluated by the single-threaded reference interpreter in
// tests/sql_reference.h over the same plan. The two results must be
// identical as unordered multisets (SUM/AVG doubles within a relative
// 1e-9). The generator is seeded, so a failure reproduces by rerunning the
// test; the failing SQL text is printed with the first differing row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/fs_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "sql/engine.h"
#include "sql_corpus.h"
#include "sql_reference.h"

namespace sqlink {
namespace {

/// Compares an engine result with the reference as multisets of rows.
/// Values must be identical, except that doubles in the reference's approx
/// (SUM/AVG) columns may differ by a relative 1e-9. Returns "" on a match,
/// else the first difference.
std::string DiffAgainstReference(std::vector<Row> actual,
                                 const ReferenceResult& expected) {
  // Exact columns render into the sort key; approx ones are compared below.
  auto keyed = [&](std::vector<Row> rows) {
    std::vector<std::pair<std::string, Row>> out;
    for (Row& row : rows) {
      std::string key;
      for (size_t c = 0; c < row.size(); ++c) {
        const bool approx = c < expected.approx.size() && expected.approx[c];
        key += approx ? "~" : (row[c].is_null() ? "NULL" : row[c].ToString());
        key += "|";
      }
      out.emplace_back(std::move(key), std::move(row));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto got = keyed(std::move(actual));
  const auto want = keyed(expected.rows);
  if (got.size() != want.size()) {
    return "engine has " + std::to_string(got.size()) + " rows, reference " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    bool same = got[i].first == want[i].first;
    for (size_t c = 0; same && c < expected.approx.size(); ++c) {
      if (!expected.approx[c]) continue;
      const Value& a = got[i].second[c];
      const Value& b = want[i].second[c];
      same = a.is_double() && b.is_double()
                 ? std::fabs(a.double_value() - b.double_value()) <=
                       1e-9 * std::max(std::fabs(a.double_value()),
                                       std::fabs(b.double_value()))
                 : a == b;
    }
    if (!same) {
      return "engine row " + got[i].first + " vs reference row " +
             want[i].first + " (sorted position " + std::to_string(i) + ")";
    }
  }
  return "";
}

/// Outcome of one engine run: either a canonical result or an error text.
struct RunOutcome {
  bool ok = false;
  std::string canonical;  ///< Sorted pipe-joined rows when ok.
  std::string error;      ///< Status message when !ok.
};

class SqlDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_ = std::make_unique<ScopedTempDir>("sql_diff");
    auto cluster = Cluster::Make(4, temp_->path());
    ASSERT_TRUE(cluster.ok());
    engine_ = SqlEngine::Make(*cluster);
    RegisterCorpusTables(engine_.get());
  }

  /// Plans `sql`, runs the plan on the engine and through the reference
  /// interpreter, and asserts both succeed with the same rows. Returns the
  /// engine's outcome for further checks.
  RunOutcome ExpectMatchesReference(const std::string& sql) {
    RunOutcome outcome;
    auto plan = engine_->Plan(sql);
    if (!plan.ok()) {
      outcome.error = plan.status().ToString();
      ADD_FAILURE() << sql << "\nplan error: " << outcome.error;
      return outcome;
    }
    auto result = engine_->ExecutePlan(*plan);
    auto expected = ReferenceEvaluate(*plan);
    if (!result.ok()) outcome.error = result.status().ToString();
    EXPECT_TRUE(result.ok()) << sql << "\nengine error: " << outcome.error;
    EXPECT_TRUE(expected.ok())
        << sql << "\nreference error: " << expected.status().ToString();
    if (!result.ok() || !expected.ok()) return outcome;
    outcome.ok = true;
    std::vector<Row> rows = (*result)->GatherRows();
    outcome.canonical = CanonicalResult(rows);
    const std::string diff = DiffAgainstReference(std::move(rows), *expected);
    EXPECT_TRUE(diff.empty()) << sql << "\n" << diff;
    return outcome;
  }

  std::unique_ptr<ScopedTempDir> temp_;
  SqlEnginePtr engine_;
};

TEST_F(SqlDifferentialTest, GoldenCorpusMatchesReference) {
  auto corpus = LoadQueryCorpus();
  ASSERT_GE(corpus.size(), 14u) << "query corpus missing from " SQLINK_QUERY_DIR;
  const bool update = EnvInt64("SQLINK_UPDATE_GOLDENS", 0) != 0;
  for (const CorpusQuery& query : corpus) {
    SCOPED_TRACE(query.name);
    RunOutcome engine = ExpectMatchesReference(query.sql);
    ASSERT_TRUE(engine.ok) << query.sql << " -> " << engine.error;
    if (update) {
      ASSERT_TRUE(WriteFileAtomic(query.expected_path, engine.canonical).ok());
      continue;
    }
    auto golden = ReadFileToString(query.expected_path);
    ASSERT_TRUE(golden.ok())
        << query.expected_path
        << " missing; regenerate with SQLINK_UPDATE_GOLDENS=1";
    EXPECT_EQ(engine.canonical, *golden) << query.sql;
  }
}

// ---------------------------------------------------------------------------
// Generator-driven differential fuzzing.
// ---------------------------------------------------------------------------

struct CorpusColumn {
  const char* name;
  DataType type;
};

constexpr CorpusColumn kEventColumns[] = {{"k", DataType::kInt64},
                                          {"v", DataType::kDouble},
                                          {"s", DataType::kString},
                                          {"flag", DataType::kBool}};

const char* const kEventTables[] = {"e0", "e1", "e1023", "e1024", "e1025"};

std::string GenLiteral(Random& rng, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return std::to_string(rng.UniformInt(-2, 33));
    case DataType::kDouble:
      return std::to_string(rng.UniformInt(-500, 500)) + ".5";
    case DataType::kString: {
      static const char* const kStrings[] = {"alpha", "beta", "gamma",
                                             "delta", "",     "x"};
      return std::string("'") + kStrings[rng.Uniform(6)] + "'";
    }
    case DataType::kBool:
      return rng.Bernoulli(0.5) ? "TRUE" : "FALSE";
    default:
      return "0";
  }
}

/// A single type-compatible predicate over `prefix`-qualified event columns.
std::string GenComparison(Random& rng, const std::string& prefix) {
  const CorpusColumn& col = kEventColumns[rng.Uniform(4)];
  std::string ref = prefix + col.name;
  switch (rng.Uniform(8)) {
    case 0:
      return ref + " IS NULL";
    case 1:
      return ref + " IS NOT NULL";
    default: {
      const char* ops_numeric[] = {"=", "<>", "<", "<=", ">", ">="};
      const char* op = (col.type == DataType::kInt64 ||
                        col.type == DataType::kDouble)
                           ? ops_numeric[rng.Uniform(6)]
                           : (rng.Bernoulli(0.5) ? "=" : "<>");
      return ref + " " + op + " " + GenLiteral(rng, col.type);
    }
  }
}

std::string GenPredicate(Random& rng, const std::string& prefix, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.45)) return GenComparison(rng, prefix);
  switch (rng.Uniform(3)) {
    case 0:
      return "(" + GenPredicate(rng, prefix, depth - 1) + " AND " +
             GenPredicate(rng, prefix, depth - 1) + ")";
    case 1:
      return "(" + GenPredicate(rng, prefix, depth - 1) + " OR " +
             GenPredicate(rng, prefix, depth - 1) + ")";
    default:
      return "NOT (" + GenPredicate(rng, prefix, depth - 1) + ")";
  }
}

std::string GenProjection(Random& rng, const std::string& prefix) {
  switch (rng.Uniform(5)) {
    case 0:
      return prefix + "k + " + std::to_string(rng.UniformInt(-3, 3));
    case 1:
      return prefix + "v * " + std::to_string(rng.UniformInt(1, 4));
    case 2:
      return prefix + "s";
    case 3:
      return prefix + "flag";
    default:
      return prefix + std::string(kEventColumns[rng.Uniform(4)].name);
  }
}

std::string GenQuery(Random& rng) {
  const std::string table = kEventTables[rng.Uniform(5)];
  switch (rng.Uniform(10)) {
    case 0:
    case 1:
    case 2: {  // Single-table filter + projection.
      std::string sql = "SELECT ";
      const size_t ncols = 1 + rng.Uniform(3);
      for (size_t i = 0; i < ncols; ++i) {
        if (i) sql += ", ";
        sql += GenProjection(rng, "");
      }
      sql += " FROM " + table;
      if (rng.Bernoulli(0.8)) sql += " WHERE " + GenPredicate(rng, "", 2);
      return sql;
    }
    case 3:
    case 4: {  // DISTINCT over low-cardinality projections.
      std::string sql = "SELECT DISTINCT k";
      if (rng.Bernoulli(0.5)) sql += ", flag";
      if (rng.Bernoulli(0.3)) sql += ", s";
      sql += " FROM " + table;
      if (rng.Bernoulli(0.6)) sql += " WHERE " + GenPredicate(rng, "", 1);
      return sql;
    }
    case 5:
    case 6:
    case 7: {  // Join with dims, optionally DISTINCT and filtered.
      std::string sql = "SELECT ";
      if (rng.Bernoulli(0.4)) sql += "DISTINCT ";
      sql += GenProjection(rng, "e.") + ", d.label FROM " + table +
             " e JOIN dims d ON e.k = d.k";
      if (rng.Bernoulli(0.7)) sql += " WHERE " + GenPredicate(rng, "e.", 1);
      return sql;
    }
    case 8: {  // Self join on k.
      return "SELECT a.k, b.v FROM " + table + " a, " + table +
             " b WHERE a.k = b.k AND " + GenPredicate(rng, "a.", 1);
    }
    default: {  // Aggregation.
      std::string sql = "SELECT k, COUNT(*), ";
      sql += rng.Bernoulli(0.5) ? "SUM(v)" : "MAX(v)";
      sql += " FROM " + table;
      if (rng.Bernoulli(0.5)) sql += " WHERE " + GenPredicate(rng, "", 1);
      sql += " GROUP BY k";
      return sql;
    }
  }
}

TEST_F(SqlDifferentialTest, GeneratedQueriesMatchReference) {
  // >= 200 generated queries, each compared; bump via SQLINK_DIFF_QUERIES.
  const int64_t total = EnvInt64("SQLINK_DIFF_QUERIES", 220);
  int compared = 0;
  for (const uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Random rng(seed);
    for (int64_t i = 0; i < total / 4 + 1; ++i) {
      const std::string sql = GenQuery(rng);
      SCOPED_TRACE("seed=" + std::to_string(seed) + " i=" + std::to_string(i) +
                   "\n" + sql);
      if (ExpectMatchesReference(sql).ok) ++compared;
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(compared, 200);
}

// Join-heavy differential sweep pinning the costed join paths: the same
// queries under forced hash and forced sort-merge strategy must each match
// the reference, and so each other.
TEST_F(SqlDifferentialTest, JoinStrategiesMatchReference) {
  Random rng(99);
  for (int i = 0; i < 30; ++i) {
    const std::string table = kEventTables[rng.Uniform(5)];
    // Every third query keys on a DOUBLE = INT64 pair, which must compare
    // numerically (e.v = 7.0 matches d.k = 7).
    const char* key = i % 3 == 2 ? "e.v = d.k" : "e.k = d.k";
    std::string sql = "SELECT e.k, e.s, d.label FROM " + table +
                      " e JOIN dims d ON " + key;
    if (rng.Bernoulli(0.6)) sql += " WHERE " + GenPredicate(rng, "e.", 1);
    SCOPED_TRACE(sql);

    engine_->set_join_strategy(JoinStrategy::kHash);
    RunOutcome hash = ExpectMatchesReference(sql);
    engine_->set_join_strategy(JoinStrategy::kSortMerge);
    RunOutcome merge = ExpectMatchesReference(sql);
    engine_->set_join_strategy(JoinStrategy::kAuto);

    ASSERT_TRUE(hash.ok) << hash.error;
    ASSERT_TRUE(merge.ok) << merge.error;
    EXPECT_EQ(hash.canonical, merge.canonical);
  }
}

}  // namespace
}  // namespace sqlink
