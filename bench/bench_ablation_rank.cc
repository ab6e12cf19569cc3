// E6 — ablation of the paper's Sec. 3.1 remark: within a disjunct
// cascade, should the simple predicate (Eqv. 2) or the unnested subquery
// (Eqv. 3) be evaluated first? We sweep the simple predicate's
// selectivity (a4 > threshold) and its evaluation cost (a cheap
// comparison vs an arithmetic-heavy expression) and compare the two
// forced orders against the rank-based default. Each cell reports the
// best of several repetitions.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/rst.h"

namespace {

using namespace bypass;        // NOLINT(build/namespaces)
using namespace bypass::bench;  // NOLINT(build/namespaces)

std::string CellForOrder(Database* db, const std::string& sql,
                         DisjunctOrder order, int repetitions) {
  QueryOptions options;
  options.unnest = true;
  options.rewrite.disjunct_order = order;
  options.collect_plans = false;
  // Plan once, execute `repetitions` times: the sweep compares execution
  // strategies, so re-optimizing per repetition would only add noise.
  auto prepared = db->Prepare(sql, options);
  if (!prepared.ok()) return "ERR";
  double best = 1e9;
  for (int i = 0; i < repetitions; ++i) {
    auto result = prepared->Execute();
    if (!result.ok()) return "ERR";
    best = std::min(best, result->execution_seconds());
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fms", best * 1000);
  return buf;
}

void RunSweep(Database* db, const char* title, const char* predicate,
              const std::vector<int64_t>& thresholds, int repetitions) {
  std::printf("\n-- %s --\n", title);
  std::vector<std::string> headers;
  for (int64_t t : thresholds) {
    std::string header = ">";
    header += std::to_string(t);
    headers.push_back(std::move(header));
  }
  ResultTable table(headers);
  struct Order {
    const char* name;
    DisjunctOrder order;
  };
  const Order orders[] = {
      {"simple-first (Eqv.2)", DisjunctOrder::kSimpleFirst},
      {"subquery-first (Eqv.3)", DisjunctOrder::kSubqueryFirst},
      {"rank-based (default)", DisjunctOrder::kByRank},
  };
  for (const Order& order : orders) {
    std::vector<std::string> cells;
    for (int64_t t : thresholds) {
      std::string sql =
          "SELECT DISTINCT * FROM r "
          "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR " +
          std::string(predicate) + " > " + std::to_string(t);
      cells.push_back(CellForOrder(db, sql, order.order, repetitions));
    }
    table.AddRow(order.name, std::move(cells));
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t rows_per_sf = flags.GetInt("rows-per-sf", 20000);
  const int sf = static_cast<int>(flags.GetInt("sf", 5));
  const int repetitions = static_cast<int>(flags.GetInt("reps", 3));

  PrintBanner("E6 bench_ablation_rank",
              "Sec. 3.1 remark: Eqv. 2 vs Eqv. 3 (rank-based ordering)",
              "rows/SF=" + std::to_string(rows_per_sf) +
                  ", SF=" + std::to_string(sf) + ", best of " +
                  std::to_string(repetitions) +
                  " reps; sweep over the simple predicate's threshold "
                  "(low = passes almost everything)");

  Database db;
  RstOptions opts;
  opts.rows_per_sf = rows_per_sf;
  Status st = LoadRst(&db, sf, sf, sf, opts);
  if (!st.ok()) {
    std::printf("data load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const std::vector<int64_t> thresholds = {500, 3000, 6000, 9000, 9900};
  // Cheap disjunct: a plain comparison — Eqv. 2 should win when it
  // passes most tuples (they bypass the join machinery entirely).
  RunSweep(&db, "cheap simple predicate: a4 > t", "a4", thresholds,
           repetitions);
  // Expensive disjunct: an arithmetic-heavy expression — the rank model
  // charges it more, moving the unnested subquery forward (Eqv. 3).
  RunSweep(&db,
           "expensive simple predicate: a4*a3*a2*a1*a4*a3*a2 % scale > t",
           "a4 * a3 * a2 * a1 * a4 * a3 * a2 / 100000000", thresholds,
           repetitions);
  std::printf(
      "\nnote: the canonical nested-loop baseline for this configuration "
      "is orders of magnitude slower (see bench_q1)\n");
  return 0;
}
