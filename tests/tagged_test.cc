// Differential tests for k-way tagged execution: the fused
// BypassPartition±[k] operator must route every row to exactly one of its
// k+1 streams (first satisfied disjunct, or the remainder) and the
// re-united result must be multiset-identical to both the canonical plan
// and the binary σ± cascade it replaces — across k ∈ {2..5}, batch sizes
// {1, 7, 1024}, NULL-heavy data (UNKNOWN rows belong in the remainder),
// the row-at-a-time fallback, and the morsel-parallel executor.
#include <algorithm>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::LoadSmallRst;

// k = 2..5 simple disjuncts of mixed selectivity (values live in [0, 6])
// ahead of a scalar subquery disjunct; the last query overlaps two
// predicates on the same column so correlated disjuncts are exercised.
const char* kTaggedQueries[] = {
    "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
    "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 OR a3 = 3 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
    "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 OR a3 = 3 OR a4 <= 1 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
    "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 OR a3 = 3 OR a4 <= 1 "
    "OR a1 >= 5 OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
};

constexpr int kRowsR = 40;

QueryOptions TaggedOptions(size_t batch_size, int num_threads,
                           bool columnar = true) {
  QueryOptions opts = QueryOptions::With(ExecutionStrategy::kUnnested);
  opts.rewrite.use_tagged_partition = true;
  opts.batch_size = batch_size;
  opts.num_threads = num_threads;
  opts.morsel_size = 8;  // split even the small test tables
  opts.enable_columnar = columnar;
  return opts;
}

/// Runs `sql` under the tagged plan and asserts (a) the partition really
/// engaged, (b) every input row was claimed by exactly one stream, and
/// (c) the result matches both the canonical plan and the binary-cascade
/// oracle.
void ExpectTaggedAgrees(Database* db, const std::string& sql,
                        const QueryOptions& tagged_opts) {
  auto canonical =
      db->Query(sql, QueryOptions::With(ExecutionStrategy::kCanonical));
  ASSERT_TRUE(canonical.ok())
      << canonical.status().ToString() << "\nsql: " << sql;
  auto cascade = db->Query(sql, QueryOptions::With(ExecutionStrategy::kUnnested));
  ASSERT_TRUE(cascade.ok())
      << cascade.status().ToString() << "\nsql: " << sql;
  auto tagged = db->Query(sql, tagged_opts);
  ASSERT_TRUE(tagged.ok())
      << tagged.status().ToString() << "\nsql: " << sql;

  // Guard against a vacuous pass: the rewrite must have produced the
  // partition and the executor must have run it.
  EXPECT_NE(std::find(tagged->applied_rules.begin(),
                      tagged->applied_rules.end(), "TaggedK"),
            tagged->applied_rules.end())
      << "tagged rewrite did not fire\nsql: " << sql << "\nplan:\n"
      << tagged->optimized_plan;
  EXPECT_GT(tagged->stats.tagged_batches, 0) << "sql: " << sql;
  // The cascade runs σ± (k = 1 partitions) only: nothing counts as tagged.
  EXPECT_EQ(cascade->stats.tagged_batches, 0) << "sql: " << sql;
  // Each scanned row lands in exactly one of the k+1 streams.
  const int64_t routed = std::accumulate(
      tagged->stats.tagged_stream_rows.begin(),
      tagged->stats.tagged_stream_rows.end(), int64_t{0});
  EXPECT_EQ(routed, kRowsR) << "sql: " << sql;

  EXPECT_TRUE(RowMultisetsEqual(canonical->rows, tagged->rows))
      << "tagged disagrees with canonical\nsql: " << sql
      << "\ncanonical rows: " << canonical->rows.size()
      << "\ntagged rows: " << tagged->rows.size() << "\nplan:\n"
      << tagged->physical_plan;
  EXPECT_TRUE(RowMultisetsEqual(cascade->rows, tagged->rows))
      << "tagged disagrees with the bypass cascade\nsql: " << sql
      << "\ncascade rows: " << cascade->rows.size()
      << "\ntagged rows: " << tagged->rows.size() << "\nplan:\n"
      << tagged->physical_plan;
}

TEST(TaggedDifferential, MatchesCascadeAcrossKAndBatchSizes) {
  for (const uint64_t seed : {1u, 7u}) {
    Database db;
    LoadSmallRst(&db, seed, kRowsR, 30, 20);
    for (const char* sql : kTaggedQueries) {
      SCOPED_TRACE(sql);
      for (const size_t batch_size : {1u, 7u, 1024u}) {
        ExpectTaggedAgrees(&db, sql,
                           TaggedOptions(batch_size, /*num_threads=*/1));
      }
    }
  }
}

// UNKNOWN disjuncts must not claim a row: with NULLs in every column the
// remainder stream carries false ∪ unknown, exactly like σ±'s negative
// stream, and the subquery disjunct still sees those rows.
TEST(TaggedDifferential, MatchesCascadeOnNullHeavyData) {
  Database db;
  LoadSmallRst(&db, /*seed=*/11, kRowsR, 30, 20, /*null_fraction=*/0.3);
  for (const char* sql : kTaggedQueries) {
    SCOPED_TRACE(sql);
    for (const size_t batch_size : {1u, 7u, 1024u}) {
      ExpectTaggedAgrees(&db, sql,
                         TaggedOptions(batch_size, /*num_threads=*/1));
    }
  }
}

// enable_columnar=false forces the per-level Expr::PartitionBatch
// fallback inside the same operator — both paths must agree.
TEST(TaggedDifferential, RowFallbackMatchesColumnarKernel) {
  Database db;
  LoadSmallRst(&db, /*seed=*/3, kRowsR, 30, 20, /*null_fraction=*/0.2);
  for (const char* sql : kTaggedQueries) {
    SCOPED_TRACE(sql);
    for (const bool columnar : {true, false}) {
      ExpectTaggedAgrees(
          &db, sql,
          TaggedOptions(/*batch_size=*/1024, /*num_threads=*/1, columnar));
    }
  }
}

// Morsel-parallel execution: concurrent Consume with per-worker scratch,
// deterministic worker-order fan-in through the n-ary union.
TEST(TaggedParallelDifferential, MatchesSerialAcrossThreads) {
  Database db;
  LoadSmallRst(&db, /*seed=*/5, kRowsR, 30, 20, /*null_fraction=*/0.2);
  for (const char* sql : kTaggedQueries) {
    SCOPED_TRACE(sql);
    for (const size_t batch_size : {7u, 1024u}) {
      ExpectTaggedAgrees(&db, sql,
                         TaggedOptions(batch_size, /*num_threads=*/4));
    }
  }
}

}  // namespace
}  // namespace bypass
