// pioqo_bench: the repository's benchmark. Replays one named workload
// through the public db::Database API and reports
//
//   end-to-end, host clock       how fast the engine replays it
//   end-to-end, simulated clock  query latency and plan regret on the
//                                modelled device (what the paper is about)
//   per layer                    counts from public stats snapshots, and
//                                host time per call from the layer harness
//
// Every metric prints as `name value unit`; --json writes them all. The run
// fails (exit 1) if a correctness oracle fails. See README.md alongside for
// the definitions, the workloads and why each was chosen.
//
// Usage:
//   pioqo_bench --workload NAME [--seed 42] [--scale 1.0] [--seconds 0]
//               [--json out.json] [--trace trace.json] [--layers]
//               [--check-replay]

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "layers.h"
#include "metrics.h"
#include "oracle.h"
#include "replay.h"
#include "sweep.h"
#include "trace.h"
#include "workloads.h"

namespace pioqo::bench {
namespace {

using Request = db::Database::QueryRequest;
using Report = db::Database::QueryReport;
using Terminal = db::Database::QueryTerminal;

/// Simulated-clock spans are kept for this many queries at most, so a
/// trace stays small enough to open.
constexpr uint64_t kMaxSimSpanQueries = 4000;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double scale = 1.0;
  /// Host seconds of open-loop replay; windows continue past the sample
  /// until this much has been measured.
  double seconds = 0.0;
  std::string json_path;
  std::string trace_path;
  bool layers = false;
  bool check_replay = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: pioqo_bench --workload NAME [--seed N] [--scale F] "
               "[--seconds S] [--json PATH] [--trace PATH] "
               "[--layers] [--check-replay]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--layers") {
      args->layers = true;
      continue;
    }
    if (flag == "--check-replay") {
      args->check_replay = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--scale") {
      args->scale = std::strtod(value, &end);
      if (!(args->scale > 0.0 && args->scale <= 1.0)) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds >= 0.0)) return false;
    } else if (flag == "--json") {
      args->json_path = value;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty();
}

/// Cumulative counters read from the layers' public stats, differenced
/// around the sample windows.
struct Counters {
  double sim_now_us = 0.0;
  uint64_t events = 0;
  uint64_t device_reads = 0;
  double service_sum_us = 0.0;
  int64_t service_count = 0;
  double queue_area = 0.0;  // outstanding requests x simulated us
  uint64_t cancelled_requests = 0;
  uint64_t degraded_clamps = 0;
  uint64_t recalibrations = 0;
  storage::BufferPoolStats pool;
  opt::PlanCacheStats plan_cache;
};

Counters Snapshot(db::Database& db) {
  Counters c;
  c.sim_now_us = db.simulator().Now();
  c.events = db.simulator().num_executed();
  const io::DeviceStats& dev = db.device().stats();
  c.device_reads = dev.reads();
  c.service_sum_us = dev.latency_us().sum();
  c.service_count = dev.latency_us().count();
  // AverageQueueDepth averages from the first submit since the last stats
  // reset; times that span gives the area under the queue-depth curve.
  c.queue_area = dev.AverageQueueDepth(c.sim_now_us) *
                 std::max(0.0, c.sim_now_us - dev.first_activity());
  c.cancelled_requests = dev.cancelled_requests();
  c.degraded_clamps = dev.degraded_clamps();
  if (db.drift_defense() != nullptr) {
    c.recalibrations = db.drift_defense()->stats().recalibrations_completed;
  }
  c.pool = db.pool().stats();
  if (db.plan_cache() != nullptr) c.plan_cache = db.plan_cache()->stats();
  return c;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Window {
  double host_s = 0.0;
  size_t completed = 0;
  bool traced = false;
  double io_share = 0.0;
  double opt_share = 0.0;
  double qps() const { return static_cast<double>(completed) / host_s; }
};

/// Replays windows of the workload's stream and checks every outcome.
class Runner {
 public:
  Runner(Workload& workload, db::Database& db, TraceLog& trace,
         Oracle& oracle)
      : workload_(workload), db_(db), trace_(trace), oracle_(oracle),
        exact_(db, workload.table()) {}

  /// Runs one window. `sample` windows keep their reports for the
  /// simulated-clock metrics; `traced` windows capture the device stream
  /// and replay it and the planning outside-in afterwards.
  void RunWindow(bool sample, bool traced) {
    const std::vector<Request> requests = workload_.NextWindow(db_);
    std::vector<io::TraceEntry> device_stream;
    if (traced) db_.device().set_trace_sink(&device_stream);
    const Clock::time_point start = Clock::now();
    auto report = db_.RunWorkload(requests, /*flush_pool=*/false);
    const Clock::time_point end = Clock::now();
    db_.device().set_trace_sink(nullptr);
    trace_.HostSpan("RunWorkload", "db", start, end);
    oracle_.Check(report.ok(), "RunWorkload: " + report.status().ToString());
    if (!report.ok()) {
      attempted_ += requests.size();
      failed_ += requests.size();
      return;
    }

    Window w;
    w.host_s = SecondsBetween(start, end);
    w.completed = report->completed;
    w.traced = traced;
    CheckWindow(requests, *report);
    if (trace_.enabled()) RecordSimSpans(requests, *report);
    if (sample) {
      sample_requests_.insert(sample_requests_.end(), requests.begin(),
                              requests.end());
      sample_reports_.insert(sample_reports_.end(), report->queries.begin(),
                             report->queries.end());
    }
    if (traced) {
      Clock::time_point t = Clock::now();
      w.io_share =
          ReplayDeviceStream(workload_.device(), device_stream) / w.host_s;
      trace_.HostSpan("device stream replay", "io", t, Clock::now());
      t = Clock::now();
      w.opt_share = ReplayPlanning(db_, workload_.table(), requests) / w.host_s;
      trace_.HostSpan("planning replay", "opt", t, Clock::now());
    }
    windows_.push_back(w);
    open_loop_s_ += w.host_s;
    first_query_id_ += requests.size();
  }

  ExactCounts& exact() { return exact_; }
  const std::vector<Window>& windows() const { return windows_; }
  const std::vector<Request>& sample_requests() const {
    return sample_requests_;
  }
  const std::vector<Report>& sample_reports() const { return sample_reports_; }
  double open_loop_seconds() const { return open_loop_s_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  void AddSweep(size_t scans) { attempted_ += scans; }

 private:
  /// Result oracle per query, expected terminal states, and quiescence
  /// once the window drained.
  void CheckWindow(const std::vector<Request>& requests,
                   const db::Database::WorkloadReport& report) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const Report& q = report.queries[i];
      const Request& req = requests[i];
      ++attempted_;
      bool expected = false;
      switch (q.terminal) {
        case Terminal::kCompleted:
          expected = q.rows_matched == exact_.For(req.scan.pred);
          break;
        case Terminal::kShed:
        case Terminal::kTimedOut:
          expected = workload_.overloaded();
          break;
        case Terminal::kCancelled:
          expected = req.cancel_at_us >= 0.0;  // an injected cancellation
          break;
        case Terminal::kFailed:
          break;
      }
      if (!expected) ++failed_;
      oracle_.Check(expected, "query " +
                                  std::to_string(first_query_id_ + i) +
                                  ": rows " + std::to_string(q.rows_matched) +
                                  ", status " + q.status.ToString());
    }
    oracle_.Check(report.completed + report.shed + report.timed_out +
                          report.cancelled + report.failed ==
                      requests.size(),
                  "window did not drain");
    oracle_.Check(db_.device().stats().outstanding() == 0,
                  "device requests outstanding after the window");
    const db::AdmissionController& admission = *db_.admission();
    oracle_.Check(admission.running() == 0 && admission.queued() == 0 &&
                      admission.total_dop() == 0 &&
                      admission.background_dop() == 0,
                  "admission ledger not empty after the window");
  }

  void RecordSimSpans(const std::vector<Request>& requests,
                      const db::Database::WorkloadReport& report) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const uint64_t id = first_query_id_ + i;
      if (id >= kMaxSimSpanQueries) return;
      const Report& q = report.queries[i];
      const double arrival = requests[i].arrival_us;
      trace_.SimSpan("admission wait", "db", id, arrival, q.admit_wait_us);
      if (q.granted_dop > 0) {
        trace_.SimSpan("execution", "exec", id, arrival + q.admit_wait_us,
                       q.latency_us - q.admit_wait_us);
      }
    }
  }

  Workload& workload_;
  db::Database& db_;
  TraceLog& trace_;
  Oracle& oracle_;
  ExactCounts exact_;
  std::vector<Window> windows_;
  std::vector<Request> sample_requests_;
  std::vector<Report> sample_reports_;
  double open_loop_s_ = 0.0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t first_query_id_ = 0;
};

/// What the seed alone determines: the regret sweep, the sample windows'
/// outcomes, and the simulator's trace hash after both.
struct Deterministic {
  SweepResult sweep;
  std::vector<double> latencies_us;  // completed sample queries
  uint64_t trace_hash = 0;
};

/// The regret sweep on the freshly built database, then the sample
/// windows. The sweep comes first so that it sees the same state for every
/// seed: its regret is a property of optimizer, device and table, not of
/// the arrival history.
Deterministic RunSweepAndSample(Workload& workload, db::Database& db,
                                Runner& runner, TraceLog& trace,
                                Oracle& oracle, bool trace_windows,
                                Counters* before, Counters* after) {
  Deterministic out;
  out.sweep = RunRegretSweep(db, workload.table(), runner.exact(), oracle,
                             trace);
  runner.AddSweep(out.sweep.scans);
  workload.AfterSweep(db);

  *before = Snapshot(db);
  for (size_t w = 0; w < workload.sample_windows(); ++w) {
    runner.RunWindow(/*sample=*/true, trace_windows && w % 2 == 1);
  }
  *after = Snapshot(db);
  for (const Report& q : runner.sample_reports()) {
    if (q.terminal == Terminal::kCompleted) {
      out.latencies_us.push_back(q.latency_us);
    }
  }
  out.trace_hash = db.simulator().trace_hash();
  return out;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void WriteJson(const std::string& path, const Args& args,
               uint64_t trace_hash, const Oracle& oracle, uint64_t attempted,
               uint64_t failed, const std::vector<Metric>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"scale\": %.17g, \"trace_hash\": \"%016" PRIx64
               "\", \"correct\": %s, \"attempted\": %" PRIu64
               ", \"failed\": %" PRIu64 ", \"oracle_failures\": [",
               args.workload.c_str(), args.seed, args.scale, trace_hash,
               oracle.passed() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < oracle.messages().size(); ++i) {
    std::string msg = oracle.messages()[i];
    for (char& c : msg) {
      if (c == '"' || c == '\\') c = '\'';
    }
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", msg.c_str());
  }
  std::fprintf(f, "], \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(f, "\n}}\n");
  std::fclose(f);
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.scale);
  if (workload == nullptr) {
    PrintUsage();
    return 2;
  }
  TraceLog trace(!args.trace_path.empty());
  Oracle oracle;

  // Set-up: independent builds, one for smoke runs; the last one runs.
  const int builds = args.scale < 1.0 ? 1 : 5;
  std::vector<double> setup_s;
  SetupTimes setup;
  std::unique_ptr<db::Database> database;
  for (int b = 0; b < builds; ++b) {
    database.reset();
    database = workload->Build(trace, &setup);
    setup_s.push_back(setup.total_s);
  }
  db::Database& db = *database;

  Runner runner(*workload, db, trace, oracle);
  Counters before;
  Counters after;
  const Deterministic det = RunSweepAndSample(
      *workload, db, runner, trace, oracle, trace.enabled(), &before, &after);
  // Enough completions that at least ten lie beyond the p99.
  oracle.Check(args.scale < 1.0 || det.latencies_us.size() >= 1000,
               "fewer than 1000 completed queries in the sample");

  // Host-clock windows until the measurement budget is spent.
  while (runner.open_loop_seconds() < args.seconds) {
    runner.RunWindow(/*sample=*/false,
                     trace.enabled() && runner.windows().size() % 2 == 1);
  }
  const double peak_rss = PeakRssMiB();

  // --- end to end -----------------------------------------------------------
  std::vector<Metric> metrics;
  const auto add = [&metrics](const char* name, double value,
                              const char* unit) {
    metrics.push_back({name, value, unit});
  };
  std::vector<double> qps;
  std::vector<double> traced_qps;
  std::vector<double> io_shares;
  std::vector<double> opt_shares;
  for (const Window& w : runner.windows()) {
    if (w.traced) {
      traced_qps.push_back(w.qps());
      io_shares.push_back(w.io_share);
      opt_shares.push_back(w.opt_share);
    } else {
      qps.push_back(w.qps());
    }
  }
  const Quartiles qps_q = QuartilesOf(qps);
  add("host_qps", qps_q.median, "queries/s");
  add("setup_s", Median(setup_s), "s");
  add("peak_rss_mb", peak_rss, "MiB");
  add("sim_p50_ms", Percentile(det.latencies_us, 0.50) / 1e3, "ms");
  add("sim_p99_ms", Percentile(det.latencies_us, 0.99) / 1e3, "ms");
  const std::vector<Report>& reports = runner.sample_reports();
  const double attempted = static_cast<double>(reports.size());
  add("served_share",
      static_cast<double>(det.latencies_us.size()) / attempted, "fraction");
  add("plan_regret_geomean", det.sweep.regret_geomean, "ratio");
  add("plan_regret_max", det.sweep.regret_max, "ratio");

  // --- per layer: counts over the sample windows ----------------------------
  const double completed = static_cast<double>(det.latencies_us.size());
  add("sim.events_per_query",
      Ratio(static_cast<double>(after.events - before.events), completed),
      "events/query");
  add("io.reads_per_query",
      Ratio(static_cast<double>(after.device_reads - before.device_reads),
            completed),
      "reads/query");
  add("io.avg_queue_depth",
      Ratio(after.queue_area - before.queue_area,
            after.sim_now_us - before.sim_now_us),
      "requests");
  add("io.mean_service_us",
      Ratio(after.service_sum_us - before.service_sum_us,
            static_cast<double>(after.service_count - before.service_count)),
      "us");
  add("io.cancelled_requests",
      static_cast<double>(after.cancelled_requests -
                          before.cancelled_requests),
      "count");
  const storage::BufferPoolStats& p0 = before.pool;
  const storage::BufferPoolStats& p1 = after.pool;
  add("storage.hit_ratio",
      Ratio(static_cast<double>(p1.hits - p0.hits),
            static_cast<double>(p1.fetches - p0.fetches)),
      "fraction");
  add("storage.join_ratio",
      Ratio(static_cast<double>(p1.joined_inflight - p0.joined_inflight),
            static_cast<double>(p1.misses - p0.misses)),
      "fraction");
  add("storage.evictions_per_query",
      Ratio(static_cast<double>(p1.evictions - p0.evictions), completed),
      "pages/query");
  add("storage.prefetch_drop_ratio",
      Ratio(static_cast<double>(p1.prefetch_dropped - p0.prefetch_dropped),
            static_cast<double>(p1.prefetch_issued - p0.prefetch_issued)),
      "fraction");
  add("storage.fetch_errors",
      static_cast<double>(p1.fetch_errors - p0.fetch_errors), "count");
  add("storage.create_table_s", setup.create_table_s, "s");
  add("exec.warmup_s", setup.warmup_s, "s");
  add("core.calibration_points",
      workload->calibration().points_measured, "count");
  add("core.calibration_sim_s",
      workload->calibration().calibration_time_us / 1e6, "s");
  add("core.calibrate_s", setup.calibrate_s, "s");
  const uint64_t lookups = (after.plan_cache.hits - before.plan_cache.hits) +
                           (after.plan_cache.misses - before.plan_cache.misses);
  add("opt.plan_cache_hit_ratio",
      Ratio(static_cast<double>(after.plan_cache.hits - before.plan_cache.hits),
            static_cast<double>(lookups)),
      "fraction");
  add("opt.est_error", det.sweep.est_error, "ratio");
  double planned = 0.0;
  double clamped = 0.0;
  double dtt = 0.0;
  double shed = 0.0;
  double timed_out = 0.0;
  std::vector<double> admit_waits;
  for (const Report& q : reports) {
    if (q.planned_dop > 0) {
      ++planned;
      clamped += q.plan_dop_clamped ? 1.0 : 0.0;
      dtt += q.plan_dtt_fallback ? 1.0 : 0.0;
    }
    shed += q.terminal == Terminal::kShed ? 1.0 : 0.0;
    timed_out += q.terminal == Terminal::kTimedOut ? 1.0 : 0.0;
    if (q.granted_dop > 0) admit_waits.push_back(q.admit_wait_us);
  }
  add("opt.dop_clamped_share", Ratio(clamped, planned), "fraction");
  add("opt.dtt_fallback_share", Ratio(dtt, planned), "fraction");
  add("db.admit_wait_p99_ms", Percentile(admit_waits, 0.99) / 1e3, "ms");
  add("db.shed_share", Ratio(shed, attempted), "fraction");
  add("db.timeout_share", Ratio(timed_out, attempted), "fraction");
  add("db.peak_running", db.admission()->stats().peak_running, "queries");
  add("db.recalibrations",
      static_cast<double>(after.recalibrations - before.recalibrations),
      "count");
  db::DriftDefense* defense = db.drift_defense();
  add("db.final_confidence", defense != nullptr ? defense->confidence() : 1.0,
      "fraction");
  add("db.degraded_clamps",
      static_cast<double>(after.degraded_clamps - before.degraded_clamps),
      "count");

  // --- per layer: the traced run's outside-in shares ------------------------
  if (trace.enabled()) {
    add("trace.overhead", 1.0 - Ratio(Median(traced_qps), qps_q.median),
        "fraction");
    add("io.host_share", Median(io_shares), "fraction");
    add("opt.host_share", Median(opt_shares), "fraction");
  }
  if (args.layers) {
    for (Metric& m : RunLayerHarness(trace)) metrics.push_back(std::move(m));
  }

  if (args.check_replay) {
    std::unique_ptr<Workload> again =
        MakeWorkload(args.workload, args.seed, args.scale);
    TraceLog untraced(false);
    Oracle replay_oracle;
    SetupTimes unused;
    std::unique_ptr<db::Database> replay_db = again->Build(untraced, &unused);
    Runner replay_runner(*again, *replay_db, untraced, replay_oracle);
    Counters b;
    Counters a;
    const Deterministic replay =
        RunSweepAndSample(*again, *replay_db, replay_runner, untraced,
                          replay_oracle, false, &b, &a);
    oracle.Check(replay.trace_hash == det.trace_hash &&
                     replay.latencies_us == det.latencies_us &&
                     replay.sweep.regret_geomean == det.sweep.regret_geomean,
                 "same-seed replay diverged");
    std::printf("replay trace_hash %016" PRIx64 " %s\n", replay.trace_hash,
                replay.trace_hash == det.trace_hash ? "identical" : "DIVERGED");
  }

  // --- report ---------------------------------------------------------------
  size_t beyond_p99 = 0;
  const double p99 = Percentile(det.latencies_us, 0.99);
  for (double l : det.latencies_us) beyond_p99 += l > p99 ? 1 : 0;
  std::printf("workload %s seed %" PRIu64 " scale %g\n", args.workload.c_str(),
              args.seed, args.scale);
  std::printf("trace_hash %016" PRIx64 "\n", det.trace_hash);
  std::printf("sample: %zu queries, %zu completed, %zu beyond p99; "
              "%zu windows (%.2f host s); host_qps IQR %.1f..%.1f\n",
              reports.size(), det.latencies_us.size(), beyond_p99,
              runner.windows().size(), runner.open_loop_seconds(), qps_q.q1,
              qps_q.q3);
  for (const SweepPoint& p : det.sweep.points) {
    std::printf("sweep sel %-8g chosen %-22s %10.1f ms  best %-22s %10.1f ms  "
                "regret %.3f\n",
                p.selectivity, p.chosen.ToString().c_str(), p.chosen_us / 1e3,
                p.best.ToString().c_str(), p.best_us / 1e3,
                p.chosen_us / p.best_us);
  }
  for (const Metric& m : metrics) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& msg : oracle.messages()) {
    std::printf("ORACLE FAILED: %s\n", msg.c_str());
  }
  if (!args.json_path.empty()) {
    WriteJson(args.json_path, args, det.trace_hash, oracle, runner.attempted(),
              runner.failed(), metrics);
  }
  if (trace.enabled() && !trace.WriteJson(args.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_path.c_str());
    return 1;
  }
  return oracle.passed() ? 0 : 1;
}

}  // namespace
}  // namespace pioqo::bench

int main(int argc, char** argv) {
  pioqo::bench::Args args;
  if (!pioqo::bench::ParseArgs(argc, argv, &args)) {
    pioqo::bench::PrintUsage();
    return 2;
  }
  return pioqo::bench::Run(args);
}
