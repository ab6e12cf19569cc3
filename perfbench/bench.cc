#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "codegen/codegen_engine.h"
#include "codegen/install.h"
#include "frontend/translator.h"
#include "planner/cost_model.h"
#include "planner/planner.h"
#include "rewrite/unnest.h"
#include "sql/parser.h"

namespace perfbench {

using bypass::Row;
using bypass::Value;

void Die(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

void Expect(const bypass::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ------------------------------------------------------------- tracing

int SpanLog::Open(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, Clock::now(), {}, parent, request_});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int index) {
  spans_[static_cast<size_t>(index)].end = Clock::now();
  open_.pop_back();
}

void WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  Clock::time_point origin = Clock::time_point::max();
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) {
      origin = std::min(origin, s.start);
    }
  }
  struct Total {
    int64_t count = 0;
    double wall_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Total> totals;
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  out << "[\n";
  bool first = true;
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<SpanLog::Span>& spans = logs[t]->spans();
    // Children of one thread nest strictly inside their parent, so the
    // part of the parent's interval they cover is the sum of their
    // durations.
    std::vector<double> child_us(spans.size(), 0.0);
    for (const SpanLog::Span& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += Us(s.start, s.end);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanLog::Span& s = spans[i];
      const double wall = Us(s.start, s.end);
      const double self = wall - child_us[i];
      Total& total = totals[s.name];
      ++total.count;
      total.wall_us += wall;
      total.self_us += self;
      char line[512];
      std::snprintf(line, sizeof(line),
                    "%s{\"thread\": %zu, \"id\": %zu, \"parent\": %d, "
                    "\"request\": %lld, \"name\": \"%s\", "
                    "\"start_us\": %.3f, \"end_us\": %.3f, "
                    "\"self_us\": %.3f}",
                    first ? "" : ",\n", t, i, s.parent,
                    static_cast<long long>(s.request), s.name,
                    Us(origin, s.start), Us(origin, s.end), self);
      out << line;
      first = false;
    }
  }
  out << "\n]\n";
  for (const auto& [name, total] : totals) {
    std::printf("span %-40s count=%-7lld wall_ms=%.3f self_ms=%.3f\n",
                name.c_str(), static_cast<long long>(total.count),
                total.wall_us / 1e3, total.self_us / 1e3);
  }
  std::printf("spans written to %s\n", path.c_str());
}

// ------------------------------------------------------- result digest

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const char* data, size_t n) {  // FNV-1a 64
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashValue(const Value& v) {
  if (v.is_null()) return 0x6e756c6cULL;
  if (v.is_bool()) return Mix(v.bool_value() ? 3 : 5);
  if (v.is_string()) {
    const std::string& s = v.string_value();
    return HashBytes(s.data(), s.size());
  }
  // Integral numbers hash as integers, so an integral double and the
  // equal int64 agree; other doubles hash their value at 10 significant
  // digits.
  if (v.is_int64()) return Mix(static_cast<uint64_t>(v.int64_value()));
  const double d = v.double_value();
  if (d == std::trunc(d) && std::fabs(d) < 9.0e15) {
    return Mix(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%.10g", d);
  return HashBytes(buf, static_cast<size_t>(n));
}

uint64_t RowHash(const Row& row) {
  uint64_t h = 0x726f77ULL;
  for (const Value& v : row) h = Mix(h ^ HashValue(v));
  return h;
}

}  // namespace

Digest DigestRows(const std::vector<Row>& rows, bool ordered) {
  Digest d;
  d.rows = static_cast<int64_t>(rows.size());
  for (const Row& row : rows) {
    const uint64_t h = RowHash(row);
    d.hash = ordered ? Mix(d.hash ^ h) : d.hash + Mix(h);
  }
  return d;
}

void SelfCheckDigest(const std::vector<Row>& rows, bool ordered) {
  if (rows.size() < 2 || rows[0].empty()) {
    Die("digest self-check needs a result with two or more rows");
  }
  const Digest base = DigestRows(rows, ordered);
  auto expect_changed = [&](std::vector<Row> perturbed, const char* what) {
    if (DigestRows(perturbed, ordered) == base) {
      Die(std::string("digest self-check missed a perturbation: ") + what);
    }
  };
  std::vector<Row> dropped = rows;
  dropped.pop_back();
  expect_changed(std::move(dropped), "dropped row");
  std::vector<Row> duplicated = rows;
  duplicated.push_back(rows[0]);
  duplicated.erase(duplicated.begin() + 1);  // same count, one row twice
  if (RowHash(rows[0]) != RowHash(rows[1])) {
    expect_changed(std::move(duplicated), "duplicated row");
  }
  std::vector<Row> changed = rows;
  Value& cell = changed[rows.size() / 2][0];
  cell = cell.is_int64()    ? Value::Int64(cell.int64_value() + 1)
         : cell.is_double() ? Value::Double(cell.double_value() * 1.01 + 1)
         : cell.is_string() ? Value::String(cell.string_value() + "x")
                            : Value::Int64(7);
  expect_changed(std::move(changed), "changed value");
  if (ordered && RowHash(rows.front()) != RowHash(rows.back())) {
    std::vector<Row> swapped = rows;
    std::swap(swapped.front(), swapped.back());
    expect_changed(std::move(swapped), "swapped rows");
  }
}

// ---------------------------------------------------------- statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void Served::Serve(const bypass::ServerOptions& options, int num_sessions) {
  server = std::make_unique<bypass::Server>(db.get(), options);
  for (int i = 0; i < num_sessions; ++i) sessions.push_back(server->Connect());
}

void Served::Clear() {
  sessions.clear();
  server.reset();
  db.reset();
}

double TimedSetups(int reps, const std::function<void()>& teardown,
                   const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    teardown();
    TrimHeap();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(Us(start, Clock::now()) / 1e6);
  }
  return Median(seconds);
}

QueryClass WarmClass(std::string name, bool ordered, QueryFn run,
                     SpanLog* log, const char* span) {
  QueryClass c;
  c.name = std::move(name);
  c.ordered = ordered;
  c.plan_reused = true;
  c.run = std::move(run);
  auto digest = [&] {
    ScopedSpan warm(log, span);
    return DigestRows(Expect(c.run(), c.name).rows, ordered);
  };
  c.expected = digest();
  if (digest() != c.expected) Die("repeated run of " + c.name + " differs");
  return c;
}

bypass::QueryOptions OracleOptions() {
  bypass::QueryOptions o =
      bypass::QueryOptions::With(bypass::ExecutionStrategy::kCanonicalMemo);
  o.num_threads = static_cast<int>(std::thread::hardware_concurrency());
  o.collect_plans = false;
  return o;
}

void GateClass(const QueryClass& c, bypass::Database* db,
               const std::string& sql, bool at_scale,
               const bypass::QueryOptions& options, Report* report) {
  const Digest oracle = QueryDigest(db, sql, OracleOptions(), c.ordered);
  const Digest bench =
      at_scale ? c.expected : QueryDigest(db, sql, options, c.ordered);
  if (oracle != bench) {
    Die("class " + c.name + " differs from the canonical-memo oracle");
  }
  report->info["oracle_scale." + c.name] =
      at_scale ? "\"workload\"" : "\"check\"";
}

void RunRounds(std::vector<QueryClass>* classes, double seconds,
               SpanLog* log, const char* span, Window* w) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  while (Clock::now() < deadline) {
    for (QueryClass& c : *classes) {
      if (log != nullptr) log->set_request(w->attempted);
      ScopedSpan query_span(log, "bench.query");
      ++w->attempted;
      const Clock::time_point t0 = Clock::now();
      bypass::Result<bypass::QueryResult> result = [&] {
        ScopedSpan call(log, span);
        return c.run();
      }();
      const double wall_ms = Us(t0, Clock::now()) / 1e3;
      if (!result.ok()) {
        ++w->failed;
        continue;
      }
      if (DigestRows(result->rows, c.ordered) != c.expected) {
        Die("result of class " + c.name + " differs from its checked result");
      }
      const double exec_ms = Us(result->execution_time) / 1e3;
      w->latency_ms.push_back(wall_ms);
      w->exec_ms[c.name].push_back(exec_ms);
      const double optimize_ms =
          c.plan_reused ? 0.0 : Us(result->optimize_time) / 1e3;
      w->overhead_ms.push_back(wall_ms - exec_ms - optimize_ms);
      w->stats.Add(result->stats);
    }
    ++w->rounds;
  }
  if (log != nullptr) log->set_request(-1);
  w->elapsed_s += Us(start, Clock::now()) / 1e6;
}

void AddLatencyMetrics(const Window& w, double tail_pct, Report* report) {
  const double n = static_cast<double>(w.latency_ms.size());
  const double beyond = n - std::ceil(tail_pct / 100.0 * n);
  const double completed = static_cast<double>(w.attempted - w.failed);
  report->metrics["throughput_qps"] = completed / w.elapsed_s;
  report->metrics["latency_p50_ms"] = Median(w.latency_ms);
  report->metrics["peak_rss_mb"] = WindowPeakRssMb();
  report->metrics["latency_tail_ms"] = Percentile(w.latency_ms, tail_pct);
  report->metrics["success_rate"] =
      completed / static_cast<double>(w.attempted);
  report->info["tail_percentile"] = std::to_string(tail_pct);
  report->info["latency_samples"] = std::to_string(w.latency_ms.size());
  report->info["samples_beyond_tail"] =
      std::to_string(static_cast<int64_t>(beyond));
  report->info["window_s"] = std::to_string(w.elapsed_s);
  report->attempted = w.attempted;
  report->failed = w.failed;
}

Window MeasureWindow(const Args& args, double tail_pct, Report* report,
                     const SliceFn& slice) {
  if (!args.trace) {
    TrimHeap();
    ResetPeakRss();
    const Window w = slice(args.seconds, false);
    AddLatencyMetrics(w, tail_pct, report);
    return w;
  }
  Window plain;
  Window traced;
  for (double done = 0; done < args.seconds; done += 2 * kTraceSliceSeconds) {
    AppendWindow(slice(kTraceSliceSeconds, false), &plain);
    AppendWindow(slice(kTraceSliceSeconds, true), &traced);
  }
  report->metrics["bench.trace_overhead_pct"] =
      TraceOverheadPct(plain, traced);
  report->attempted = plain.attempted + traced.attempted;
  report->failed = plain.failed + traced.failed;
  return traced;
}

Window MeasureRounds(std::vector<QueryClass>* classes, const Args& args,
                     SpanLog* log, const char* span, double tail_pct,
                     Report* report) {
  return MeasureWindow(args, tail_pct, report, [&](double seconds,
                                                   bool traced) {
    Window w;
    log->set_enabled(traced);
    RunRounds(classes, seconds, traced ? log : nullptr, span, &w);
    log->set_enabled(false);
    return w;
  });
}

void AppendWindow(const Window& from, Window* into) {
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  for (const auto& [name, ms] : from.exec_ms) {
    std::vector<double>& dst = into->exec_ms[name];
    dst.insert(dst.end(), ms.begin(), ms.end());
  }
  into->overhead_ms.insert(into->overhead_ms.end(), from.overhead_ms.begin(),
                           from.overhead_ms.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->elapsed_s += from.elapsed_s;
  into->rounds += from.rounds;
  into->stats.Add(from.stats);
}

double TraceOverheadPct(const Window& plain, const Window& traced) {
  const double plain_qps =
      static_cast<double>(plain.attempted) / plain.elapsed_s;
  const double traced_qps =
      static_cast<double>(traced.attempted) / traced.elapsed_s;
  return (plain_qps / traced_qps - 1.0) * 100.0;
}

void AddExecMetrics(const Window& w, const std::string& prefix,
                    Report* report) {
  double exec_ms = 0;
  for (const auto& [name, samples] : w.exec_ms) {
    report->metrics["exec." + prefix + "." + name + "_ms"] = Median(samples);
    for (const double ms : samples) exec_ms += ms;
  }
  if (w.stats.rows_scanned > 0) {
    report->metrics["exec.ns_per_row"] =
        exec_ms * 1e6 / static_cast<double>(w.stats.rows_scanned);
  }
  if (w.rounds > 0) {
    report->metrics["exec.subquery_executions"] =
        static_cast<double>(w.stats.subquery_executions) /
        static_cast<double>(w.rounds);
  }
  report->metrics["engine.overhead_ms"] = Median(w.overhead_ms);
}

void AddPlanningMetrics(
    const std::map<std::string, std::vector<double>>& samples,
    Report* report) {
  for (const auto& [name, series] : samples) {
    report->metrics[name] = Median(series);
  }
}

void AddServerMetrics(const bypass::ServerStats& before,
                      const bypass::ServerStats& after, Report* report) {
  const double hits =
      static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double misses = static_cast<double>(after.plan_cache.misses -
                                            before.plan_cache.misses);
  const double evictions = static_cast<double>(
      after.plan_cache.capacity_evictions +
      after.plan_cache.stale_evictions -
      before.plan_cache.capacity_evictions -
      before.plan_cache.stale_evictions);
  const double queries = static_cast<double>(after.queries_started -
                                             before.queries_started);
  const double waits =
      static_cast<double>(after.admission_waits - before.admission_waits);
  if (hits + misses > 0) {
    report->metrics["engine.plan_cache_hit_rate"] = hits / (hits + misses);
  }
  if (queries > 0) {
    report->metrics["engine.plan_cache_evictions_per_kq"] =
        evictions * 1e3 / queries;
    report->metrics["engine.admission_waits_per_kq"] = waits * 1e3 / queries;
  }
}

// ------------------------------------------------------ layer decompose

int DecomposePlanning(bypass::Database* db, const std::string& sql,
                      const bypass::QueryOptions& options, SpanLog* log,
                      std::map<std::string, std::vector<double>>* samples) {
  ScopedSpan whole(log, "bench.plan_decompose");
  const bypass::Catalog* catalog = db->catalog();
  auto timed = [&](const char* span, const char* metric, auto&& fn) {
    ScopedSpan s(log, span);
    const Clock::time_point start = Clock::now();
    auto out = fn();
    (*samples)[metric].push_back(Us(start, Clock::now()));
    return out;
  };
  bypass::SelectStmtPtr stmt =
      Expect(timed("sql.ParseSelect", "sql.parse_us",
                   [&] { return bypass::ParseSelect(sql); }),
             "parse");
  bypass::Translator translator(catalog);
  bypass::LogicalOpPtr plan =
      Expect(timed("frontend.Translator::Translate", "frontend.translate_us",
                   [&] { return translator.Translate(*stmt); }),
             "translate");
  int rules = 0;
  if (options.unnest) {
    bypass::RewriteOptions ropts = options.rewrite;
    ropts.enable_unnesting = true;
    ropts.catalog = catalog;
    bypass::UnnestingRewriter rewriter(ropts);
    plan = Expect(timed("rewrite.UnnestingRewriter::Rewrite",
                        "rewrite.rewrite_us",
                        [&] { return rewriter.Rewrite(plan); }),
                  "rewrite");
    rules = static_cast<int>(rewriter.applied_rules().size());
  }
  timed("planner.EstimatePlan", "planner.estimate_us",
        [&] { return bypass::EstimatePlan(*plan, catalog); });
  bypass::PlannerOptions popts;
  popts.memoize_subqueries = options.memoize_subqueries;
  bypass::Planner planner(catalog, popts);
  bypass::PhysicalPlan physical =
      Expect(timed("planner.Planner::Lower", "planner.lower_us",
                   [&] { return planner.Lower(plan); }),
             "lower");
  if (options.enable_codegen) {
    timed("codegen.InstallCompiledPipelines", "codegen.install_us", [&] {
      return bypass::InstallCompiledPipelines(
          &physical, db->codegen_engine(), options,
          catalog->stats_epoch(), bypass::CgHashSource(sql));
    });
  }
  timed("engine.Database::Prepare", "planner.prepare_us",
        [&] { return Expect(db->Prepare(sql, options), "prepare"); });
  return rules;
}

namespace {

double MaxJoinGroupQError(const bypass::QueryResult& result) {
  double worst = 1.0;
  for (const bypass::OperatorFeedback& f : result.operator_feedback) {
    const bool join = f.label.find("Join") != std::string::npos;
    const bool group = f.label.find("GroupBy") != std::string::npos ||
                       f.label.find("ScalarAgg") != std::string::npos;
    if ((join || group) && f.estimated >= 0) {
      worst = std::max(worst, f.q_error);
    }
  }
  return worst;
}

}  // namespace

double PlanningPass(bypass::Database* db, const std::string& sql,
                    const bypass::QueryOptions& options, SpanLog* log,
                    std::map<std::string, std::vector<double>>* samples,
                    Report* report) {
  int rules = 0;
  for (int rep = 0; rep < 3; ++rep) {
    rules = DecomposePlanning(db, sql, options, log, samples);
  }
  report->metrics["rewrite.rules_applied"] += rules;
  bypass::QueryOptions plans = options;
  plans.collect_plans = true;
  return MaxJoinGroupQError(Expect(db->Query(sql, plans), sql));
}

Digest QueryDigest(bypass::Database* db, const std::string& sql,
                   const bypass::QueryOptions& options, bool ordered) {
  return DigestRows(Expect(db->Query(sql, options), sql).rows, ordered);
}

void AnalyzeEach(bypass::Database* db, SpanLog* log,
                 std::vector<double>* analyze_ms) {
  for (const std::string& table : db->catalog()->TableNames()) {
    ScopedSpan span(log, "stats.Database::Analyze");
    const Clock::time_point start = Clock::now();
    Expect(db->Analyze(table), "analyze " + table);
    analyze_ms->push_back(Us(start, Clock::now()) / 1e3);
  }
}

void TrimHeap() { malloc_trim(0); }

void MaterializeRowShims(bypass::Database* db) {
  for (const std::string& table : db->catalog()->TableNames()) {
    Expect(db->catalog()->GetTable(table), table)->rows();
  }
}

double ProcessPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current resident set
}

double WindowPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return ProcessPeakRssMb();
}

int64_t LoadedColumnBytes(bypass::Database* db, const std::string& table) {
  const bypass::Table* t = Expect(db->catalog()->GetTable(table), table);
  int64_t bytes = 0;
  for (const bypass::ColumnVector& c : t->columns().columns) {
    const int64_t n = static_cast<int64_t>(c.size());
    switch (c.type()) {
      case bypass::DataType::kString:
        bytes += 8 * (n + 1) +
                 static_cast<int64_t>(c.string_offsets()[c.size()]);
        break;
      case bypass::DataType::kBool:
        bytes += n;
        break;
      default:
        bytes += 8 * n;
    }
  }
  return bytes;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
