// Golden trace-hash A/B regression test.
//
// The hot-path optimizations in src/sim (inline callbacks, 4-ary event heap,
// cancellation slab, pooled coroutine frames) are only admissible if they are
// *bit-identical* refactors: the optimized engine must execute the same
// events at the same instants in the same order as the engine it replaced.
// Simulator::trace_hash() folds every executed event's (time, seq) pair into
// an order-sensitive hash, so equality against a pre-recorded golden value
// from the seed implementation proves bit-identity end to end — through the
// device models, buffer pool, scan operators, and calibrator.
//
// The scan and calibration golden values below were recorded from the
// pre-optimization engine (commit 1579194) on x86-64; the sorted-scan,
// prefetching-PIS and concurrent-mix values from commit f488daf, before the
// scan operators were folded onto one driver; the drift-defense value from
// commit fd0c127, before the defense's row refresh moved from core into
// db::DriftDefense. The HDD calibration value was
// re-recorded when the early stop gained its far anchor (the HDD now also
// measures its queue-depth-32 column; SSD and RAID never stop early). Every
// arithmetic operation on the simulated timeline is IEEE-correctly-rounded
// (+, -, *, /, sqrt) or glibc-stable (log2 in the sort-cost burst), so the
// values are stable across build types and recent x86-64 toolchains. If a
// *deliberate* timing-model change invalidates them, regenerate with:
//
//   PIOQO_PRINT_TRACE_GOLDENS=1 ./build/tests/trace_golden_test
//
// and update the tables — in the same commit that justifies the change.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/calibrator.h"
#include "db/database.h"
#include "io/device_factory.h"
#include "io/ssd_device.h"
#include "sim/simulator.h"
#include "storage/data_generator.h"

namespace pioqo {
namespace {

constexpr int32_t kScanDomain = 1 << 24;

/// The fig04-style rig every scan scenario shares: a seeded 30000-row
/// table behind a `pool_pages`-frame pool.
std::unique_ptr<db::Database> ScanDatabase(io::DeviceKind kind,
                                           uint32_t pool_pages = 512) {
  db::DatabaseOptions opts;
  opts.device = kind;
  opts.pool_pages = pool_pages;
  auto db = std::make_unique<db::Database>(opts);

  storage::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_rows = 30000;
  cfg.rows_per_page = 33;
  cfg.c2_domain = kScanDomain;
  cfg.seed = 42;
  PIOQO_CHECK_OK(db->CreateTable(cfg));
  return db;
}

/// The paper's query Q at 2% selectivity.
exec::RangePredicate ScanPredicate() {
  return {0, storage::C2UpperBoundForSelectivity(kScanDomain, 0.02)};
}

/// Query Q under IS, FTS and PIS (dop 8) — same shape as
/// replay_determinism_test.
uint64_t ScanScenario(io::DeviceKind kind) {
  auto db = ScanDatabase(kind);
  for (auto method : {core::AccessMethod::kIs, core::AccessMethod::kFts,
                      core::AccessMethod::kPis}) {
    const int dop = method == core::AccessMethod::kPis ? 8 : 1;
    const int prefetch = method == core::AccessMethod::kFts ? 32 : 0;
    auto result = db->ExecuteScan("t", ScanPredicate(), method, dop, prefetch,
                                  /*flush_pool=*/true);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  return db->simulator().trace_hash();
}

/// One forced plan through ExecuteScan on a flushed pool.
uint64_t ForcedScan(io::DeviceKind kind, core::AccessMethod method, int dop,
                    int prefetch) {
  auto db = ScanDatabase(kind);
  auto result = db->ExecuteScan("t", ScanPredicate(), method, dop, prefetch,
                                /*flush_pool=*/true);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return db->simulator().trace_hash();
}

/// The sorted index scan (Sec. 3.1): RID collection, the sort-cost burst,
/// then ascending page fetches with prefetch.
uint64_t SortedScanScenario(io::DeviceKind kind) {
  return ForcedScan(kind, core::AccessMethod::kSortedIs, 4, 8);
}

/// PIS with per-worker prefetch, which also pipelines each worker's next
/// leaf.
uint64_t PisPrefetchScenario(io::DeviceKind kind) {
  return ForcedScan(kind, core::AccessMethod::kPis, 8, 8);
}

/// Three streams — PIS, FTS and sorted IS — arriving at one instant through
/// RunWorkload under unlimited admission caps, on the shared device, CPU and
/// pool (sized so 20 workers' pins and prefetches fit).
uint64_t ConcurrentScenario(io::DeviceKind kind) {
  auto db = ScanDatabase(kind, 2048);
  db->EnableAdmissionControl(
      {.max_concurrent_queries = std::numeric_limits<int>::max(),
       .max_total_dop = std::numeric_limits<int>::max()});
  const std::vector<db::Database::ConcurrentScanSpec> specs = {
      {"t", ScanPredicate(), core::AccessMethod::kPis, 8, 8},
      {"t", ScanPredicate(), core::AccessMethod::kFts, 1, 0},
      {"t", ScanPredicate(), core::AccessMethod::kSortedIs, 4, 8},
  };
  std::vector<db::Database::QueryRequest> requests(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    requests[i].scan = specs[i];
    requests[i].arrival_us = db->simulator().Now();
  }
  auto report = db->RunWorkload(requests, /*flush_pool=*/true);
  EXPECT_TRUE(report.ok() && report->completed == specs.size())
      << report.status().ToString();
  return db->simulator().trace_hash();
}

/// An early-stopping grid calibration — the workload the tentpole exists to
/// accelerate (Secs. 4.4-4.6), heavy on cancellable deadline churn.
uint64_t CalibrationScenario(io::DeviceKind kind) {
  sim::Simulator sim;
  auto device = io::MakeDevice(sim, kind);
  core::CalibratorOptions options;
  options.max_pages_per_point = 400;
  options.repetitions = 1;
  core::Calibrator calibrator(sim, *device, options);
  auto result = calibrator.Calibrate();
  EXPECT_GT(result.pages_read, 0u);
  return sim.trace_hash();
}

/// Drift defense's whole loop (DESIGN.md §12): optimizer-planned queries
/// on a table four times the pool, with a permanent 6x throttle from the
/// eleventh on, when throttled queries start to overlap. The detector trips
/// and the refresh re-measures the drifted rows straight into the live
/// model: two runs of one row each, whose 12 points were measured half in
/// idle gaps and half through busy probes charged to admission when the
/// golden was recorded.
uint64_t DriftDefenseScenario(io::DeviceKind kind) {
  db::DatabaseOptions opts;
  opts.device = kind;
  opts.pool_pages = 1024;
  opts.calibration.max_pages_per_point = 512;
  auto db = std::make_unique<db::Database>(opts);
  storage::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_rows = 33 * 4096;
  cfg.rows_per_page = 33;
  cfg.c2_domain = kScanDomain;
  cfg.seed = 42;
  PIOQO_CHECK_OK(db->CreateTable(cfg));
  db->Calibrate();
  db->EnableAdmissionControl();
  db::DriftDefenseOptions defense;
  defense.detector.drift_ratio = 2.0;
  defense.calibrator.calibration.max_pages_per_point = 256;
  defense.calibrator.poll_interval_us = 5'000.0;
  defense.calibrator.idle_threshold_us = 20'000.0;
  defense.calibrator.busy_escalation_us = 100'000.0;
  defense.calibrator.busy_probe_interval_us = 20'000.0;
  db->EnableDriftDefense(defense);

  constexpr double kSelectivities[4] = {0.30, 0.01, 0.10, 0.02};
  constexpr size_t kQueries = 40;
  constexpr double kSpacingUs = 250'000.0;
  const double start_us = db->simulator().Now();
  auto* ssd = dynamic_cast<io::SsdDevice*>(&db->raw_device());
  PIOQO_CHECK(ssd != nullptr);
  ssd->SetThrottleSchedule({{.start_us = start_us + 10.5 * kSpacingUs,
                             .end_us = 1e15,
                             .latency_multiplier = 6.0,
                             .unit_divisor = 4}});
  std::vector<db::Database::QueryRequest> requests(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    requests[i].scan.table = "t";
    requests[i].scan.pred = {0, storage::C2UpperBoundForSelectivity(
                                    kScanDomain, kSelectivities[i % 4])};
    requests[i].use_optimizer = true;
    requests[i].optimizer.parallel_degrees = {1, 2, 4, 8, 16};
    requests[i].arrival_us = start_us + static_cast<double>(i) * kSpacingUs;
  }
  auto report = db->RunWorkload(requests, /*flush_pool=*/true);
  EXPECT_TRUE(report.ok() && report->completed == kQueries)
      << report.status().ToString();
  EXPECT_GE(db->drift_defense()->stats().recalibrations_completed, 1u);
  return db->simulator().trace_hash();
}

struct Golden {
  const char* scenario;
  io::DeviceKind kind;
  uint64_t (*run)(io::DeviceKind);
  uint64_t expected;
};

// Pre-recorded from the engines named in the file comment.
const Golden kGoldens[] = {
    {"scan", io::DeviceKind::kHdd7200, ScanScenario, 0x24eee24c061081fdULL},
    {"scan", io::DeviceKind::kSsdConsumer, ScanScenario, 0x259385d7edd91aaaULL},
    {"scan", io::DeviceKind::kRaid8, ScanScenario, 0x21b65ee7f954b5b6ULL},
    {"calibration", io::DeviceKind::kHdd7200, CalibrationScenario,
     0xd3653d35cff5412cULL},
    {"calibration", io::DeviceKind::kSsdConsumer, CalibrationScenario,
     0x36c266d188564212ULL},
    {"calibration", io::DeviceKind::kRaid8, CalibrationScenario,
     0x4df469592f6e6aa0ULL},
    {"sorted_scan", io::DeviceKind::kHdd7200, SortedScanScenario,
     0xa1f64f3c94b40a70ULL},
    {"sorted_scan", io::DeviceKind::kSsdConsumer, SortedScanScenario,
     0x5f410361250b2e1eULL},
    {"sorted_scan", io::DeviceKind::kRaid8, SortedScanScenario,
     0x0fffeeb765c00e92ULL},
    {"pis_prefetch", io::DeviceKind::kHdd7200, PisPrefetchScenario,
     0x5eb504563f7808e4ULL},
    {"pis_prefetch", io::DeviceKind::kSsdConsumer, PisPrefetchScenario,
     0xd9bade9fcf86a22bULL},
    {"pis_prefetch", io::DeviceKind::kRaid8, PisPrefetchScenario,
     0xe9d08fd93d949b20ULL},
    {"concurrent", io::DeviceKind::kHdd7200, ConcurrentScenario,
     0x9fa919b21942f056ULL},
    {"concurrent", io::DeviceKind::kSsdConsumer, ConcurrentScenario,
     0x72792b994b22989fULL},
    {"concurrent", io::DeviceKind::kRaid8, ConcurrentScenario,
     0x17d06593cbb28015ULL},
    {"drift_defense", io::DeviceKind::kSsdConsumer, DriftDefenseScenario,
     0xa53efd3003f62bc1ULL},
};

/// The scenario function behind a table name, for the regeneration printer.
const char* ScenarioFunction(std::string_view scenario) {
  if (scenario == "scan") return "ScanScenario";
  if (scenario == "calibration") return "CalibrationScenario";
  if (scenario == "sorted_scan") return "SortedScanScenario";
  if (scenario == "pis_prefetch") return "PisPrefetchScenario";
  if (scenario == "concurrent") return "ConcurrentScenario";
  return "DriftDefenseScenario";
}

TEST(TraceGoldenTest, MatchesSeedImplementation) {
  const bool print = std::getenv("PIOQO_PRINT_TRACE_GOLDENS") != nullptr;
  for (const Golden& g : kGoldens) {
    const uint64_t actual = g.run(g.kind);
    if (print) {
      std::printf("    {\"%s\", io::DeviceKind::k%s, %s, 0x%016llxULL},\n",
                  g.scenario,
                  g.kind == io::DeviceKind::kHdd7200      ? "Hdd7200"
                  : g.kind == io::DeviceKind::kSsdConsumer ? "SsdConsumer"
                                                           : "Raid8",
                  ScenarioFunction(g.scenario),
                  static_cast<unsigned long long>(actual));
      continue;
    }
    EXPECT_EQ(actual, g.expected)
        << g.scenario << " on " << io::DeviceKindName(g.kind)
        << ": trace diverged from the seed engine (rerun with "
           "PIOQO_PRINT_TRACE_GOLDENS=1 to regenerate after a deliberate "
           "timing-model change)";
  }
}

}  // namespace
}  // namespace pioqo
