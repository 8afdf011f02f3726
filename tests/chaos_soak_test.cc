// Chaos soak: randomized seeded fault schedules against full query
// executions on every device kind. The invariants under fault injection:
//
//   1. Every query either completes with exactly the fault-free answer or
//      fails with a clean Status (kIoError / kResourceExhausted) — never a
//      crash, a wrong answer, or a hung coroutine.
//   2. The database is drained after every query (ExpectDrained: no
//      pinned frame, pending event or outstanding device request).
//   3. The same fault seed reproduces the same trace hash bit-for-bit.
//   4. Zero faults (an all-zero schedule or no injector) is bit-identical
//      to a build without the injector — the A/B guarantee.

#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "db/database.h"
#include "soak_test_util.h"

namespace pioqo {
namespace {

using db::Database;
using db::DatabaseOptions;
using db::testing::ExpectDrained;
using db::testing::PredFor;
using db::testing::ScriptQuery;
using db::testing::ScriptTable;

/// The shared four-plan script plus the two widest plans: 32 index
/// workers with 8-page prefetch, and 32 table-scan workers.
std::vector<ScriptQuery> ChaosScript() {
  std::vector<ScriptQuery> script(std::begin(db::testing::kScript),
                                  std::end(db::testing::kScript));
  script.push_back({core::AccessMethod::kPis, 32, 8, 0.05});
  script.push_back({core::AccessMethod::kPfts, 32, 0, 0.50});
  return script;
}

struct QueryOutcome {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  uint64_t rows_matched = 0;
  int32_t max_c1 = 0;
};

struct SoakRun {
  std::vector<QueryOutcome> outcomes;
  uint64_t trace_hash = 0;
};

/// Builds a database on `kind` with the given fault schedule (none when
/// `faults` is empty) and runs the chaos script. Every query must resolve —
/// OK or error — with the database drained afterwards.
/// A schedule arms the pool's retry policy unless `retries` is false.
SoakRun RunSoak(io::DeviceKind kind, std::optional<io::FaultConfig> faults,
                bool retries = true) {
  DatabaseOptions options;
  options.device = kind;
  options.faults = faults;
  if (faults.has_value() && retries) db::testing::ArmRetries(options);
  Database db(options);
  PIOQO_CHECK(db.CreateTable(ScriptTable()).ok());

  SoakRun run;
  for (const ScriptQuery& q : ChaosScript()) {
    auto result =
        db.ExecuteScan("T", PredFor(ScriptTable(), q.selectivity), q.method,
                       q.dop, q.prefetch_depth, /*flush_pool=*/true);
    QueryOutcome outcome;
    outcome.ok = result.ok();
    if (result.ok()) {
      outcome.rows_matched = result->rows_matched;
      outcome.max_c1 = result->max_c1;
    } else {
      outcome.code = result.status().code();
    }
    run.outcomes.push_back(outcome);
    // Queries must fail *cleanly*: transient I/O or pool exhaustion, never
    // an invariant violation (kFailedPrecondition would mean a failed scan
    // leaked a pin or an in-flight read into ExecuteScan's pool flush).
    if (!outcome.ok) {
      EXPECT_TRUE(outcome.code == StatusCode::kIoError ||
                  outcome.code == StatusCode::kResourceExhausted)
          << StatusCodeName(outcome.code);
    }
    ExpectDrained(db, "chaos soak query");
  }
  run.trace_hash = db.simulator().trace_hash();
  return run;
}

io::FaultConfig ChaosConfig(uint64_t seed) {
  io::FaultConfig faults;
  faults.seed = seed;
  faults.read_error_prob = 0.02;
  faults.error_latency_us = 150.0;
  faults.spike_prob = 0.05;
  faults.spike_us = 3000.0;
  faults.stuck_prob = 0.01;
  // A mid-run degraded window: latency tripled, extra transient errors.
  faults.phases.push_back(io::FaultPhase{50'000.0, 250'000.0, 3.0, 0.05});
  return faults;
}

class ChaosSoakTest : public ::testing::TestWithParam<io::DeviceKind> {};

TEST_P(ChaosSoakTest, TenSeedsCompleteCorrectlyOrFailCleanly) {
  const SoakRun baseline = RunSoak(GetParam(), std::nullopt);
  for (const QueryOutcome& o : baseline.outcomes) {
    ASSERT_TRUE(o.ok);  // fault-free runs never fail
  }

  int succeeded = 0, failed = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const SoakRun run = RunSoak(GetParam(), ChaosConfig(seed));
    ASSERT_EQ(run.outcomes.size(), baseline.outcomes.size());
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
      if (run.outcomes[i].ok) {
        // A completed query under faults returns exactly the right answer.
        EXPECT_EQ(run.outcomes[i].rows_matched,
                  baseline.outcomes[i].rows_matched)
            << "seed " << seed << " query " << i;
        EXPECT_EQ(run.outcomes[i].max_c1, baseline.outcomes[i].max_c1)
            << "seed " << seed << " query " << i;
        ++succeeded;
      } else {
        ++failed;
      }
    }
  }
  // The retry policy absorbs most transient faults: the soak is only
  // meaningful if queries actually run to completion under fire.
  EXPECT_GT(succeeded, failed);
}

TEST_P(ChaosSoakTest, SameSeedReproducesSameTraceHash) {
  for (uint64_t seed : {3u, 8u}) {
    const SoakRun a = RunSoak(GetParam(), ChaosConfig(seed));
    const SoakRun b = RunSoak(GetParam(), ChaosConfig(seed));
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].ok, b.outcomes[i].ok);
      EXPECT_EQ(a.outcomes[i].rows_matched, b.outcomes[i].rows_matched);
    }
  }
}

TEST_P(ChaosSoakTest, ZeroFaultInjectorIsBitIdenticalToNoInjector) {
  const SoakRun bare = RunSoak(GetParam(), std::nullopt);
  // The retry policy stays inert, as in the bare run: its deadlines would
  // add events of their own.
  const SoakRun wrapped =
      RunSoak(GetParam(), io::FaultConfig{}, /*retries=*/false);
  EXPECT_EQ(bare.trace_hash, wrapped.trace_hash);
  ASSERT_EQ(bare.outcomes.size(), wrapped.outcomes.size());
  for (size_t i = 0; i < bare.outcomes.size(); ++i) {
    EXPECT_TRUE(wrapped.outcomes[i].ok);
    EXPECT_EQ(bare.outcomes[i].rows_matched, wrapped.outcomes[i].rows_matched);
    EXPECT_EQ(bare.outcomes[i].max_c1, wrapped.outcomes[i].max_c1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, ChaosSoakTest,
                         db::testing::Devices(), db::testing::DeviceName);

TEST(ChaosSoakStuckTest, StuckHeavyScheduleStillTerminates) {
  // A pathologically sticky device: 30% of requests swallow their
  // completion. The per-attempt deadline is the only forward progress;
  // every query must still resolve and drain.
  io::FaultConfig faults;
  faults.seed = 77;
  faults.stuck_prob = 0.3;
  const SoakRun run = RunSoak(io::DeviceKind::kSsdConsumer, faults);
  EXPECT_EQ(run.outcomes.size(), ChaosScript().size());  // all resolved
}

TEST(GracefulDegradationTest, DegradedDeviceClampsScanParallelism) {
  // Learn the healthy per-read latency EWMA of this exact workload, then
  // re-run it on a device degraded 8x and verify the health monitor throttles
  // the scan's parallel degree while the query still returns the right rows.
  const storage::DatasetConfig config = ScriptTable();
  const exec::RangePredicate pred = PredFor(config, 0.2);

  double healthy_ewma = 0.0;
  uint64_t healthy_rows = 0;
  {
    DatabaseOptions options;
    Database db(options);
    PIOQO_CHECK(db.CreateTable(config).ok());
    db.EnableHealthMonitor({});  // no baseline: observe only
    auto result = db.ExecuteScan("T", pred, core::AccessMethod::kPfts, 4, 0,
                                 true);
    ASSERT_TRUE(result.ok());
    healthy_rows = result->rows_matched;
    healthy_ewma = db.health_monitor()->ewma_latency_us();
    ASSERT_GT(healthy_ewma, 0.0);
  }

  DatabaseOptions options;
  io::FaultConfig faults;
  faults.phases.push_back(io::FaultPhase{0.0, 1e12, 8.0, 0.0});
  options.faults = faults;
  Database db(options);
  PIOQO_CHECK(db.CreateTable(config).ok());
  io::DeviceHealthMonitor::Options monitor_options;
  monitor_options.expected_read_latency_us = healthy_ewma;
  // The block-prefetching scan issues only a handful of large device reads,
  // so trust the signal after a few samples.
  monitor_options.min_samples = 3;
  db.EnableHealthMonitor(monitor_options);

  // The first scan feeds the EWMA; once enough slow completions arrive the
  // monitor flips to degraded mid-scan and the workers above the clamped
  // degree retire. (Scan drivers reset device stats at scan start, so the
  // clamp counter must be read right after the scan that recorded it.)
  auto first = db.ExecuteScan("T", pred, core::AccessMethod::kPfts, 4, 0, true);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rows_matched, healthy_rows);
  EXPECT_TRUE(db.health_monitor()->degraded());
  EXPECT_GT(db.health_monitor()->DegradationFactor(), 3.0);
  EXPECT_GT(db.device().stats().degraded_clamps(), 0u);

  // Later scans start already clamped and still return the right answer.
  auto second =
      db.ExecuteScan("T", pred, core::AccessMethod::kPfts, 4, 0, true);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->rows_matched, healthy_rows);
}

}  // namespace
}  // namespace pioqo
