#include "bench_common.h"

#include <algorithm>

#include "workload/rst.h"
#include <cstdio>
#include <cstdlib>

namespace bypass {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = std::string("1");
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::atof(it->second.c_str());
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::atoll(it->second.c_str());
}

std::vector<Strategy> StudyStrategies(double timeout_seconds,
                                      size_t batch_size, int num_threads) {
  const auto timeout = std::chrono::milliseconds(
      static_cast<int64_t>(timeout_seconds * 1000));
  // The study's mapping: S1-like = nested loops without even the OR
  // short-circuit; S2-like = nested loops + memoization; Natix canonical
  // and Natix unnested (the paper's bypass plans).
  const struct {
    const char* name;
    ExecutionStrategy strategy;
  } presets[] = {
      {"canonical-noshort", ExecutionStrategy::kCanonicalNoShortcut},
      {"canonical-memo", ExecutionStrategy::kCanonicalMemo},
      {"canonical", ExecutionStrategy::kCanonical},
      {"unnested", ExecutionStrategy::kUnnested},
  };
  std::vector<Strategy> strategies;
  for (const auto& preset : presets) {
    Strategy s{preset.name, QueryOptions::With(preset.strategy)};
    s.options.timeout = timeout;
    s.options.collect_plans = false;
    s.options.batch_size = batch_size;
    s.options.num_threads = num_threads;
    strategies.push_back(std::move(s));
  }
  return strategies;
}

std::string RunCell(Database* db, const std::string& sql,
                    const QueryOptions& options, int64_t* rows_out) {
  auto prepared = db->Prepare(sql, options);
  if (!prepared.ok()) {
    return "ERR(" +
           std::string(StatusCodeToString(prepared.status().code())) + ")";
  }
  auto result = prepared->Execute();
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kTimeout) return "n/a";
    return "ERR(" +
           std::string(StatusCodeToString(result.status().code())) + ")";
  }
  if (rows_out != nullptr) {
    *rows_out = static_cast<int64_t>(result->rows.size());
  }
  char buf[32];
  const double s = result->execution_seconds();
  if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1000);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

ResultTable::ResultTable(std::vector<std::string> column_headers)
    : headers_(std::move(column_headers)) {}

void ResultTable::AddRow(const std::string& label,
                         std::vector<std::string> cells) {
  rows_.emplace_back(label, std::move(cells));
}

void ResultTable::Print() const {
  size_t label_width = 8;
  for (const auto& [label, cells] : rows_) {
    label_width = std::max(label_width, label.size());
  }
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& [label, cells] : rows_) {
      if (c < cells.size()) {
        widths[c] = std::max(widths[c], cells[c].size());
      }
    }
  }
  std::printf("%-*s", static_cast<int>(label_width + 2), "");
  for (size_t c = 0; c < headers_.size(); ++c) {
    std::printf("%*s", static_cast<int>(widths[c] + 2),
                headers_[c].c_str());
  }
  std::printf("\n");
  for (const auto& [label, cells] : rows_) {
    std::printf("%-*s", static_cast<int>(label_width + 2), label.c_str());
    for (size_t c = 0; c < cells.size(); ++c) {
      std::printf("%*s", static_cast<int>(widths[c] + 2),
                  cells[c].c_str());
    }
    std::printf("\n");
  }
}

void RunRstGrid(const std::string& experiment,
                const std::string& paper_artifact, const std::string& sql,
                const Flags& flags, int64_t default_rows_per_sf) {
  const int64_t rows_per_sf =
      flags.Has("paper") ? 10000
                         : flags.GetInt("rows-per-sf", default_rows_per_sf);
  const double timeout = flags.GetDouble(
      "timeout", flags.Has("paper") ? 21600.0 : 5.0);
  const int num_threads = static_cast<int>(flags.GetInt("threads", 1));
  const std::vector<int> sfs =
      flags.Has("quick") ? std::vector<int>{1} : std::vector<int>{1, 5, 10};

  PrintBanner(experiment, paper_artifact,
              "rows/SF=" + std::to_string(rows_per_sf) +
                  "  per-cell timeout=" + std::to_string(timeout) +
                  "s  threads=" + std::to_string(num_threads) +
                  "  (--paper for the paper's sizes; timeouts print "
                  "n/a, as in the paper)");
  std::printf("query:%s\n", sql.c_str());

  std::vector<std::string> headers;
  for (int sf1 : sfs) {
    for (int sf2 : sfs) {
      headers.push_back(std::to_string(sf1) + "x" + std::to_string(sf2));
    }
  }
  ResultTable table(headers);

  const std::vector<Strategy> strategies =
      StudyStrategies(timeout, kDefaultBatchSize, num_threads);
  std::vector<std::vector<std::string>> cells(
      strategies.size(), std::vector<std::string>(headers.size()));
  size_t col = 0;
  for (int sf1 : sfs) {
    for (int sf2 : sfs) {
      Database db;
      RstOptions opts;
      opts.rows_per_sf = rows_per_sf;
      Status st = LoadRst(&db, sf1, sf2, sf2, opts);
      if (!st.ok()) {
        std::printf("data load failed: %s\n", st.ToString().c_str());
        return;
      }
      int64_t reference_rows = -1;
      for (size_t s = 0; s < strategies.size(); ++s) {
        int64_t rows = -1;
        cells[s][col] = RunCell(&db, sql, strategies[s].options, &rows);
        if (rows >= 0) {
          if (reference_rows < 0) reference_rows = rows;
          if (rows != reference_rows) {
            cells[s][col] += "!";  // result-cardinality mismatch
          }
        }
      }
      ++col;
    }
  }
  for (size_t s = 0; s < strategies.size(); ++s) {
    table.AddRow(strategies[s].name, cells[s]);
  }
  std::printf("columns: SF1xSF2 (outer x inner scale factor)\n");
  table.Print();
}

void PrintBanner(const std::string& experiment,
                 const std::string& paper_artifact,
                 const std::string& notes) {
  std::printf(
      "==============================================================\n");
  std::printf("%s — reproduces %s\n", experiment.c_str(),
              paper_artifact.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf(
      "==============================================================\n");
}

}  // namespace bench
}  // namespace bypass
