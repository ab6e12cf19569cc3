// adhoc_serving: nproc client sessions on one Server issue the paper's
// query shapes with fresh literals, so nearly every query misses the plan
// cache and parsing, translation, rewriting, cost-based planning and the
// serving engine do most of the work. One session re-ANALYZEs s every
// kAnalyzeEvery queries ("writes beside reads"), bumping the statistics
// epoch and evicting cached plans.
#include <memory>
#include <random>
#include <thread>

#include "bench.h"
#include "engine/session.h"
#include "workload/rst.h"

namespace perfbench {
namespace {

using bypass::Database;
using bypass::ExecutionStrategy;
using bypass::QueryOptions;

constexpr int64_t kRstRows = 2000;
constexpr size_t kPlanCacheEntries = 256;
constexpr int64_t kAnalyzeEvery = 200;   // queries of session 0
constexpr int64_t kCheckEvery = 50;      // queries per client
constexpr int kSetupReps = 5;
constexpr int kWarmupQueries = 25;       // per client, during set-up
// 17k-30k samples per 16 s window (with the shared host's speed). With
// nproc busy client threads on nproc vCPUs every preemption lands in the
// top 1-2% of latencies: p99 spread 0.41 of its median over ten seeds on
// a shared host, p95 (850-1500 samples beyond it) stays steady.
constexpr double kTailPct = 95;

using Rng = std::mt19937_64;

int64_t Uniform(Rng& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

struct Template {
  const char* name;
  std::string (*make)(Rng& rng);
};

// The E1/E3/E8/E12 shapes and a plain scan. Literal ranges keep every
// result non-trivial on 2000-row RST (*4 in [0, 10000), *2 in [0, 1000)).
const Template kTemplates[] = {
    {"q1_eqv2",
     [](Rng& rng) {
       return "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) "
              "FROM s WHERE a2 = b2) OR a4 > " +
              std::to_string(Uniform(rng, 1000, 9999));
     }},
    {"q2corr_eqv4",
     [](Rng& rng) {
       return "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s "
              "WHERE a2 = b2 OR b4 > " +
              std::to_string(Uniform(rng, 9900, 9999)) + ")";
     }},
    {"exists_or",
     [](Rng& rng) {
       return "SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE "
              "a2 = b2 AND b4 > " +
              std::to_string(Uniform(rng, 0, 9999)) + ") OR a4 > " +
              std::to_string(Uniform(rng, 0, 9999));
     }},
    {"tagged_k5",
     [](Rng& rng) {
       return "SELECT COUNT(*), SUM(a3) FROM r WHERE a2 < " +
              std::to_string(Uniform(rng, 0, 200)) + " OR a4 > " +
              std::to_string(Uniform(rng, 7000, 9999)) + " OR a3 < " +
              std::to_string(Uniform(rng, 0, 300)) + " OR a2 >= " +
              std::to_string(Uniform(rng, 800, 999)) + " OR a4 <= " +
              std::to_string(Uniform(rng, 0, 100)) +
              " OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)";
     }},
    {"scan",
     [](Rng& rng) {
       return "SELECT a1, a2 FROM r WHERE a4 < " +
              std::to_string(Uniform(rng, 100, 9999));
     }},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

QueryOptions BenchOptions() {
  QueryOptions o = QueryOptions::With(ExecutionStrategy::kCostBased);
  o.num_threads = 1;
  o.collect_plans = false;
  return o;
}

/// A query whose result the gate re-checks after the window.
struct Sampled {
  int template_index;
  std::string sql;
  Digest digest;
};

/// One client's state; its literal stream continues across windows so
/// traced slices do not replay the untraced slices' texts.
struct Client {
  Client(int id, uint64_t seed)
      : id(id), rng(seed * 1000003 + static_cast<uint64_t>(id)), log(false) {}
  int id;
  Rng rng;
  int64_t seq = 0;
  SpanLog log;
  std::vector<Sampled> sampled;
  std::vector<double> analyze_ms;
  Window w;
};

void RunClient(Client* c, bypass::Session* session, Database* db,
               Clock::time_point deadline, bool traced) {
  SpanLog* log = traced ? &c->log : nullptr;
  const QueryOptions options = BenchOptions();
  while (Clock::now() < deadline) {
    const int64_t seq = c->seq++;
    if (c->id == 0 && seq % kAnalyzeEvery == kAnalyzeEvery - 1) {
      ScopedSpan span(log, "stats.Database::Analyze");
      const Clock::time_point start = Clock::now();
      Expect(db->Analyze("s"), "analyze s");
      c->analyze_ms.push_back(Us(start, Clock::now()) / 1e3);
    }
    const int t = static_cast<int>(seq % kNumTemplates);
    const std::string sql = kTemplates[t].make(c->rng);
    if (log != nullptr) log->set_request(seq);
    ScopedSpan query_span(log, "bench.query");
    ++c->w.attempted;
    const Clock::time_point t0 = Clock::now();
    bypass::Result<bypass::QueryResult> result = [&] {
      ScopedSpan call(log, "engine.Session::Query");
      return session->Query(sql, options);
    }();
    const double wall_ms = Us(t0, Clock::now()) / 1e3;
    if (!result.ok()) {
      ++c->w.failed;
      continue;
    }
    const double exec_ms = Us(result->execution_time) / 1e3;
    c->w.latency_ms.push_back(wall_ms);
    c->w.exec_ms[kTemplates[t].name].push_back(exec_ms);
    c->w.overhead_ms.push_back(wall_ms - exec_ms -
                               Us(result->optimize_time) / 1e3);
    c->w.stats.Add(result->stats);
    if (seq % kCheckEvery == 0) {
      c->sampled.push_back({t, sql, DigestRows(result->rows, false)});
    }
  }
  if (log != nullptr) log->set_request(-1);
}

/// Runs every client on its own thread until `seconds` pass; returns the
/// merged window.
Window RunClients(std::vector<std::unique_ptr<Client>>* clients,
                  Served* world, double seconds, bool traced) {
  for (auto& c : *clients) {
    c->w = Window();
    c->log.set_enabled(traced);
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients->size(); ++i) {
    threads.emplace_back(RunClient, (*clients)[i].get(),
                         world->sessions[i].get(), world->db.get(), deadline,
                         traced);
  }
  for (std::thread& t : threads) t.join();
  for (auto& c : *clients) c->log.set_enabled(false);
  Window merged;
  for (auto& c : *clients) AppendWindow(c->w, &merged);
  merged.elapsed_s = Us(start, Clock::now()) / 1e6;
  return merged;
}

}  // namespace

Report RunAdhocServing(const Args& args) {
  Report report;
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  SpanLog setup_log(args.trace);
  Served world;
  std::vector<double> load_s;
  std::vector<double> analyze_ms;
  auto teardown = [&] { world.Clear(); };
  const double setup_s = TimedSetups(kSetupReps, teardown, [&] {
    ScopedSpan span(&setup_log, "bench.setup");
    world.db = std::make_unique<Database>();
    {
      ScopedSpan load(&setup_log, "workload.LoadRst");
      const Clock::time_point start = Clock::now();
      bypass::RstOptions rst;
      rst.seed = args.seed;
      rst.rows_per_sf = kRstRows;
      Expect(bypass::LoadRst(world.db.get(), 1, 1, 1, rst), "LoadRst");
      load_s.push_back(Us(start, Clock::now()) / 1e6);
    }
    AnalyzeEach(world.db.get(), &setup_log, &analyze_ms);
    MaterializeRowShims(world.db.get());
    bypass::ServerOptions server;
    server.num_workers = nproc;
    server.plan_cache_entries = kPlanCacheEntries;
    world.Serve(server, nproc);
    // Warm-up on a literal stream of its own: first-touch scans and the
    // serving threads, without priming the cache with the window's texts.
    Rng rng(args.seed ^ 0x5eed);
    for (int i = 0; i < kWarmupQueries * nproc; ++i) {
      ScopedSpan warm(&setup_log, "engine.Session::Query");
      Expect(world.sessions[static_cast<size_t>(i % nproc)]->Query(
                 kTemplates[i % kNumTemplates].make(rng), BenchOptions()),
             "warm-up");
    }
  });
  if (!args.trace) report.metrics["setup_s"] = setup_s;

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < nproc; ++i) {
    clients.push_back(std::make_unique<Client>(i, args.seed));
  }
  const bypass::ServerStats before = world.server->stats();
  const Window traced = MeasureWindow(
      args, kTailPct, &report, [&](double seconds, bool trace) {
        return RunClients(&clients, &world, seconds, trace);
      });
  const bypass::ServerStats after = world.server->stats();

  // Correctness gate: every sampled result against canonical-memo on the
  // same data (ANALYZE changes statistics only, never rows).
  const QueryOptions oracle = OracleOptions();
  size_t checked = 0;
  for (auto& c : clients) {
    for (const Sampled& s : c->sampled) {
      if (QueryDigest(world.db.get(), s.sql, oracle, false) != s.digest) {
        Die(std::string("class ") + kTemplates[s.template_index].name +
            " differs from the canonical-memo oracle: " + s.sql);
      }
      ++checked;
    }
  }
  {
    Rng rng(args.seed);
    SelfCheckDigest(Expect(world.db->Query(kTemplates[0].make(rng), oracle),
                           "self-check")
                        .rows,
                    false);
  }
  report.info["oracle_scale"] = "\"workload\"";
  report.info["oracle_checked_queries"] = std::to_string(checked);
  report.info["rst_rows_per_table"] = std::to_string(kRstRows);
  report.info["sessions"] = std::to_string(nproc);
  report.info["clients"] = std::to_string(nproc);
  report.info["num_threads"] = "1";
  report.info["server_workers"] = std::to_string(nproc);
  report.info["plan_cache_entries"] = std::to_string(kPlanCacheEntries);
  report.info["analyze_every_queries"] = std::to_string(kAnalyzeEvery);
  report.info["setup_reps"] = std::to_string(kSetupReps);
  if (!args.trace) return report;

  // ---- per-layer metrics (traced run only)
  AddExecMetrics(traced, "adhoc", &report);
  AddServerMetrics(before, after, &report);
  for (auto& c : clients) {
    analyze_ms.insert(analyze_ms.end(), c->analyze_ms.begin(),
                      c->analyze_ms.end());
  }
  report.metrics["workload.load_s"] = Median(load_s);
  report.metrics["stats.analyze_ms"] = Median(analyze_ms);

  setup_log.set_enabled(true);
  std::map<std::string, std::vector<double>> planning;
  Rng rng(args.seed + 17);
  double max_qerror = 1.0;
  // Fresh literals per text, as in the window: one PlanningPass per
  // template (rules applied, q-error) and 17 more texts decomposed.
  for (int t = 0; t < kNumTemplates; ++t) {
    max_qerror = std::max(
        max_qerror, PlanningPass(world.db.get(), kTemplates[t].make(rng),
                                 BenchOptions(), &setup_log, &planning,
                                 &report));
    for (int rep = 0; rep < 17; ++rep) {
      DecomposePlanning(world.db.get(), kTemplates[t].make(rng),
                        BenchOptions(), &setup_log, &planning);
    }
  }
  AddPlanningMetrics(planning, &report);
  report.metrics["planner.max_qerror"] = max_qerror;
  std::vector<const SpanLog*> logs = {&setup_log};
  for (auto& c : clients) logs.push_back(&c->log);
  WriteSpans(logs, args.out_dir + "/spans_adhoc_serving_seed" +
                       std::to_string(args.seed) + ".json");
  return report;
}

}  // namespace perfbench
