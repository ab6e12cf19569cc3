// Shared pieces of the end-to-end benchmark: the command line, the span
// recorder behind the traced run, the order-insensitive result digest the
// correctness gate compares, and the per-run report every workload fills.
//
// Everything here lives outside the library: spans are recorded around
// the benchmark's own calls into each layer's public functions, never
// inside src/.
#ifndef BYPASSDB_PERFBENCH_BENCH_H_
#define BYPASSDB_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/query_options.h"
#include "engine/server.h"
#include "engine/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
};

/// Microseconds between two steady_clock points.
inline double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Prints to stderr and exits with status 1 — for setup failures and
/// correctness-gate mismatches, which must end the run without a result.
[[noreturn]] void Die(const std::string& message);

/// The value of a Result, or Die() with `what` and its status.
template <typename T>
T Expect(bypass::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}
void Expect(const bypass::Status& status, const std::string& what);

// ------------------------------------------------------------- tracing

/// One client thread's spans, kept in memory until the run ends. A span
/// records its name, start, end, the span open around it (its parent)
/// and the request it served. Disabled logs record nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;        ///< index into this log, -1 at the top
    int64_t request;   ///< client request id; -1 outside requests
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_request(int64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  int Open(const char* name);
  void Close(int index);

 private:
  bool enabled_;
  int64_t request_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `log` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log != nullptr && log->enabled() ? log : nullptr),
        index_(log_ != nullptr ? log_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Writes every span of `logs` (self time = duration minus the time its
/// children cover) to `path` as JSON, and prints per-name totals of
/// count, wall and self time to stdout.
void WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path);

// ------------------------------------------------------- result digest

/// Multiset digest of a result: row count plus a sum of mixed per-row
/// hashes (order-insensitive), or a chained hash when `ordered` (ORDER BY
/// results). Doubles are hashed at 10 significant digits so summation
/// order under parallel aggregation does not show.
struct Digest {
  int64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};
Digest DigestRows(const std::vector<bypass::Row>& rows, bool ordered);

/// Proves the gate can fail: perturbs `rows` (drop, duplicate, change a
/// value, and swap two rows when ordered) and checks every perturbation
/// changes the digest. Dies otherwise.
void SelfCheckDigest(const std::vector<bypass::Row>& rows, bool ordered);

// ---------------------------------------------------------- statistics

double Median(std::vector<double> v);
/// The p-th percentile (0 < p < 100), nearest-rank.
double Percentile(std::vector<double> v, double p);

// -------------------------------------------------------------- report

/// What one workload run hands back to main(). A run that fails a check
/// never returns one: it exits through Die().
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Metric name → value; units live in BENCHMARK.json.
  std::map<std::string, double> metrics;
  /// Free-form facts about the run (sizes, threads, percentiles), as
  /// JSON values keyed by name.
  std::map<std::string, std::string> info;
};

/// A database served by one Server, and the sessions connected to it.
struct Served {
  std::unique_ptr<bypass::Database> db;
  std::unique_ptr<bypass::Server> server;
  std::vector<std::shared_ptr<bypass::Session>> sessions;

  /// Starts the server over `db` and connects `num_sessions` sessions.
  void Serve(const bypass::ServerOptions& options, int num_sessions);
  /// Tears down in dependency order: sessions, the server, then the data
  /// (a Server must not outlive its database).
  void Clear();
};

/// Median wall time of `reps` runs of `setup`, each building a fresh
/// world; `teardown` drops the previous one before each run, untimed.
double TimedSetups(int reps, const std::function<void()>& teardown,
                   const std::function<void()>& setup);

/// Per-query latency samples of a timed window, split by class.
struct Window {
  std::vector<double> latency_ms;  ///< every successful query
  std::map<std::string, std::vector<double>> exec_ms;  ///< per class
  std::vector<double> overhead_ms;  ///< wall - optimize - execute
  int64_t attempted = 0;
  int64_t failed = 0;
  double elapsed_s = 0;
  int64_t rounds = 0;  ///< completed passes over every class
  bypass::ExecStats stats;  ///< summed over successful queries
};

using QueryFn = std::function<bypass::Result<bypass::QueryResult>()>;

/// One query class of a closed-loop mix: how to issue it, and the digest
/// every one of its results must match.
struct QueryClass {
  std::string name;
  bool ordered = false;  ///< ORDER BY result: digest keeps row order
  QueryFn run;
  Digest expected;
  /// The class runs a plan prepared before the window (plan-cache hit or
  /// client-held handle). Its results then report the original planning
  /// time as optimize_time, which engine.overhead_ms must not subtract.
  bool plan_reused = false;
};

/// Warm-up of one class whose plan is then reused (cached or held by the
/// client): runs `run` twice, each inside a span named `span`, and dies
/// unless both succeed with the same digest, which every later result of
/// the class must match.
QueryClass WarmClass(std::string name, bool ordered, QueryFn run,
                     SpanLog* log, const char* span);

/// The correctness oracle: canonical-memo (nested-loop semantics with
/// memoized subqueries), `nproc` threads.
bypass::QueryOptions OracleOptions();

/// Correctness gate of one class, against the canonical-memo oracle on
/// `db`. At workload scale (`at_scale`) the oracle must match the digest
/// the class produced in warm-up; at check scale `db` holds a
/// reduced-scale copy of the data and the oracle must match the
/// benchmark's own plan (`options`) run there. A mismatch ends the run;
/// the scale is recorded as info oracle_scale.<class>.
void GateClass(const QueryClass& c, bypass::Database* db,
               const std::string& sql, bool at_scale,
               const bypass::QueryOptions& options, Report* report);

/// Closed loop, one client: issues every class in turn, round after
/// round, until `seconds` have passed (the last round completes), adding
/// to `w`. Each result is checked against its class's digest — a
/// mismatch ends the run. `span` names the library call the client makes.
void RunRounds(std::vector<QueryClass>* classes, double seconds,
               SpanLog* log, const char* span, Window* w);

/// Untraced and traced slices alternate in a traced run, so drift in the
/// host's speed reaches both sides alike.
inline constexpr double kTraceSliceSeconds = 1.0;

/// Measures one slice of `seconds`, with span recording on or off.
using SliceFn = std::function<Window(double seconds, bool traced)>;

/// The timed part of a run. Untraced, one slice of `args.seconds` gives
/// the end-to-end metrics. Traced, untraced and traced slices alternate
/// over `args.seconds`; the report gets bench.trace_overhead_pct
/// (throughput lost to tracing) and the traced slices are returned for
/// the per-layer metrics.
Window MeasureWindow(const Args& args, double tail_pct, Report* report,
                     const SliceFn& slice);

/// MeasureWindow over RunRounds of `classes`, recording into `log`.
Window MeasureRounds(std::vector<QueryClass>* classes, const Args& args,
                     SpanLog* log, const char* span, double tail_pct,
                     Report* report);

/// Adds `from`'s samples and counts to `into`.
void AppendWindow(const Window& from, Window* into);

/// Throughput the traced window lost against the untraced one, in %.
double TraceOverheadPct(const Window& plain, const Window& traced);

/// Adds exec.<prefix>.<class>_ms (median execute time per class),
/// exec.ns_per_row, exec.subquery_executions (per round) and
/// engine.overhead_ms (median) from a window.
void AddExecMetrics(const Window& w, const std::string& prefix,
                    Report* report);

/// Adds the median of every planning-layer sample series.
void AddPlanningMetrics(
    const std::map<std::string, std::vector<double>>& samples,
    Report* report);

/// Adds the plan-cache and admission metrics of a window from the
/// difference of two ServerStats snapshots.
void AddServerMetrics(const bypass::ServerStats& before,
                      const bypass::ServerStats& after, Report* report);

/// Adds the end-to-end latency/throughput metrics of `w` to `report`:
/// throughput as completed queries over the window's wall time, the
/// median latency, the tail at percentile `tail_pct` (recorded with its
/// sample count and the number of samples beyond it) and peak_rss_mb,
/// the peak resident set since the window started.
void AddLatencyMetrics(const Window& w, double tail_pct, Report* report);

/// Times the library's planning layers one public call at a time for
/// `sql` under `options`, recording a span per call. Adds the per-call
/// microseconds to `samples` keyed by metric name and returns how many
/// rewrite rules the rank-based rewriter applied.
int DecomposePlanning(bypass::Database* db, const std::string& sql,
                      const bypass::QueryOptions& options, SpanLog* log,
                      std::map<std::string, std::vector<double>>* samples);

/// The planning layers' per-layer metrics for one query text: three
/// DecomposePlanning passes (samples into `samples`, the rules applied
/// added to rewrite.rules_applied) and one execution with plan
/// collection. Returns the max q-error over its join and group-by
/// operators.
double PlanningPass(bypass::Database* db, const std::string& sql,
                    const bypass::QueryOptions& options, SpanLog* log,
                    std::map<std::string, std::vector<double>>* samples,
                    Report* report);

/// Runs `sql` through Database::Query (dying on failure) and digests its
/// rows.
Digest QueryDigest(bypass::Database* db, const std::string& sql,
                   const bypass::QueryOptions& options, bool ordered);

/// ANALYZE of every table, one timed Database::Analyze call (and span)
/// per table; appends the milliseconds to `analyze_ms`.
void AnalyzeEach(bypass::Database* db, SpanLog* log,
                 std::vector<double>* analyze_ms);

/// Peak resident set of this process since it started, in MiB.
double ProcessPeakRssMb();
/// Starts a new peak-resident-set interval (Linux /proc/self/clear_refs).
void ResetPeakRss();
/// Peak resident set since the last ResetPeakRss(), in MiB: the memory
/// the workload holds while it serves, without the transient peaks of
/// repeated set-ups and of the oracle.
double WindowPeakRssMb();

/// Returns freed heap memory to the operating system (glibc malloc_trim)
/// so each set-up and the window start from the same resident baseline.
void TrimHeap();

/// Materializes every table's row shim (Table::rows(), built lazily by
/// the first flat scan) on the calling thread. Left to the first query,
/// whichever worker thread scans first builds it, and the allocator then
/// places it in that thread's arena: peak RSS would vary by ~190 MB per
/// 1M rows from run to run with thread scheduling alone.
void MaterializeRowShims(bypass::Database* db);

/// Bytes of the table's loaded columns (typed arrays and string arenas).
int64_t LoadedColumnBytes(bypass::Database* db, const std::string& table);

std::string JsonString(const std::string& s);

// ----------------------------------------------------------- workloads

Report RunOlapUnnest(const Args& args);
Report RunAdhocServing(const Args& args);
Report RunCompiledRepeat(const Args& args);
Report RunOutOfCore(const Args& args);

}  // namespace perfbench

#endif  // BYPASSDB_PERFBENCH_BENCH_H_
