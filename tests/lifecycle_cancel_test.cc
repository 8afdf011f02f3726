// Property test for cooperative cancellation: inject a cancellation at a
// random (seeded) simulated instant during scans and joins on every device
// kind, and verify the query unwinds cleanly every time —
//
//   1. The query reaches a terminal state: cancelled, or completed with
//      exactly the fault-free answer when the cancel landed after the
//      finish line.
//   2. Nothing leaks: no pinned frames (pool Clear() succeeds), no in-flight
//      reads, no suspended workers (PIOQO_SIM_CHECKS quiescent), and the
//      simulator's event queue is fully drained; workload runs also end
//      with no device request outstanding and empty admission ledgers.
//   3. The same seed reproduces the same trace hash bit-for-bit.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "db/database.h"
#include "exec/join_operators.h"
#include "sim/sim_checks.h"
#include "soak_test_util.h"

namespace pioqo {
namespace {

using db::Database;
using db::DatabaseOptions;
using db::testing::ExpectDrained;
using db::testing::PredFor;
using db::testing::ScriptQuery;
using db::testing::ScriptTable;

/// The shared four-plan script as workload requests, arrivals serialized
/// so each cancel instant targets a known query.
std::vector<Database::QueryRequest> QueryMix() {
  std::vector<Database::QueryRequest> requests;
  for (const ScriptQuery& q : db::testing::kScript) {
    Database::QueryRequest req;
    req.scan = {"T", PredFor(ScriptTable(), q.selectivity), q.method, q.dop,
                q.prefetch_depth};
    req.arrival_us = static_cast<double>(requests.size()) * 2'000'000.0;
    requests.push_back(req);
  }
  return requests;
}

struct LifecycleRun {
  db::Database::WorkloadReport report;
  uint64_t trace_hash = 0;
};

LifecycleRun RunMix(io::DeviceKind kind,
                    const std::vector<Database::QueryRequest>& requests) {
  DatabaseOptions options;
  options.device = kind;
  Database db(options);
  PIOQO_CHECK(db.CreateTable(ScriptTable()).ok());
  db.EnableAdmissionControl({});
  auto report = db.RunWorkload(requests, /*flush_pool=*/true);
  PIOQO_CHECK_OK(report.status());

  // The leak checks: every pin returned, every read completed or
  // reclaimed, every worker/waiter retired, every simulator event consumed,
  // every admission grant released.
  ExpectDrained(db, "lifecycle cancel run");

  LifecycleRun run;
  run.report = std::move(report).value();
  run.trace_hash = db.simulator().trace_hash();
  return run;
}

class LifecycleCancelTest : public ::testing::TestWithParam<io::DeviceKind> {};

TEST_P(LifecycleCancelTest, SeededCancelInstantsUnwindCleanly) {
  const std::vector<Database::QueryRequest> mix = QueryMix();
  const LifecycleRun baseline = RunMix(GetParam(), mix);
  ASSERT_EQ(baseline.report.completed, mix.size());

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Pcg32 rng(seed);
    std::vector<Database::QueryRequest> requests = mix;
    for (size_t i = 0; i < requests.size(); ++i) {
      // Cancel anywhere from query start to past its fault-free finish, so
      // some seeds hit the descent, some mid-drain, some after completion.
      const double span = baseline.report.queries[i].latency_us * 1.2;
      requests[i].cancel_at_us =
          requests[i].arrival_us + rng.NextDouble() * span;
    }
    const LifecycleRun run = RunMix(GetParam(), requests);
    ASSERT_EQ(run.report.queries.size(), mix.size());
    for (size_t i = 0; i < run.report.queries.size(); ++i) {
      const auto& q = run.report.queries[i];
      if (q.terminal == Database::QueryTerminal::kCompleted) {
        // Beat the cancel to the finish line: the answer must be exact.
        EXPECT_EQ(q.rows_matched, baseline.report.queries[i].rows_matched)
            << "seed " << seed << " query " << i;
      } else {
        EXPECT_EQ(q.terminal, Database::QueryTerminal::kCancelled)
            << "seed " << seed << " query " << i << ": " << q.status.ToString();
        EXPECT_EQ(q.status.code(), StatusCode::kCancelled);
      }
    }
  }
}

TEST_P(LifecycleCancelTest, SameSeedReproducesSameTraceHash) {
  const std::vector<Database::QueryRequest> mix = QueryMix();
  const LifecycleRun baseline = RunMix(GetParam(), mix);
  for (uint64_t seed : {2u, 4u}) {
    Pcg32 rng(seed);
    std::vector<Database::QueryRequest> requests = mix;
    for (size_t i = 0; i < requests.size(); ++i) {
      const double span = baseline.report.queries[i].latency_us * 1.2;
      requests[i].cancel_at_us =
          requests[i].arrival_us + rng.NextDouble() * span;
    }
    const LifecycleRun a = RunMix(GetParam(), requests);
    const LifecycleRun b = RunMix(GetParam(), requests);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    ASSERT_EQ(a.report.queries.size(), b.report.queries.size());
    for (size_t i = 0; i < a.report.queries.size(); ++i) {
      EXPECT_EQ(a.report.queries[i].terminal, b.report.queries[i].terminal);
      EXPECT_EQ(a.report.queries[i].latency_us, b.report.queries[i].latency_us);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, LifecycleCancelTest,
                         db::testing::Devices(), db::testing::DeviceName);

// --- Join cancellation ----------------------------------------------------

class JoinCancelRig {
 public:
  explicit JoinCancelRig(io::DeviceKind kind) {
    device_ = io::MakeDevice(sim_, kind);
    disk_ = std::make_unique<storage::DiskImage>(*device_);
    pool_ = std::make_unique<storage::BufferPool>(*disk_, 2048);
    cpu_ = std::make_unique<sim::CpuScheduler>(
        sim_, constants_.logical_cores, constants_.physical_cores,
        constants_.smt_penalty);
    storage::DatasetConfig inner_cfg;
    inner_cfg.name = "inner";
    inner_cfg.num_rows = 8000;
    inner_cfg.c2_domain = 8000;
    inner_cfg.seed = 7;
    auto inner = storage::BuildDataset(*disk_, inner_cfg);
    PIOQO_CHECK(inner.ok());
    inner_ = std::make_unique<storage::Dataset>(std::move(inner).value());
    storage::DatasetConfig outer_cfg;
    outer_cfg.name = "outer";
    outer_cfg.num_rows = 2000;
    outer_cfg.c2_domain = 8000;
    outer_cfg.seed = 8;
    auto outer = storage::BuildDataset(*disk_, outer_cfg);
    PIOQO_CHECK(outer.ok());
    outer_ = std::make_unique<storage::Dataset>(std::move(outer).value());
  }

  /// Runs the join with a cancellation injected at absolute simulated
  /// instant `cancel_at_us` (negative = none). Returns (status, trace hash).
  std::pair<Status, uint64_t> Run(double cancel_at_us, double* runtime_us) {
    io::QueryContext query(sim_);
    exec::ExecContext ctx{sim_, *cpu_, *pool_, constants_, nullptr, &query};
    if (cancel_at_us >= 0.0) {
      sim_.ScheduleAfter(cancel_at_us - sim_.Now(), [&query] {
        query.Cancel(Status::Cancelled("injected join cancellation"));
      });
    }
    exec::RangePredicate pred{0, 8000};
    auto result = exec::RunIndexNestedLoopJoin(ctx, outer_->table,
                                               inner_->table,
                                               inner_->index_c2, pred, 4);
    if (runtime_us != nullptr) *runtime_us = result.runtime_us;
    EXPECT_TRUE(pool_->Clear().ok());
    EXPECT_EQ(sim_.num_pending(), 0u);
    sim::checks::ExpectQuiescent("join cancel run");
    return {result.status, sim_.trace_hash()};
  }

 private:
  core::CostConstants constants_;
  sim::Simulator sim_;
  std::unique_ptr<io::Device> device_;
  std::unique_ptr<storage::DiskImage> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<sim::CpuScheduler> cpu_;
  std::unique_ptr<storage::Dataset> outer_;
  std::unique_ptr<storage::Dataset> inner_;
};

class JoinCancelTest : public ::testing::TestWithParam<io::DeviceKind> {};

TEST_P(JoinCancelTest, SeededCancelMidJoinUnwindsCleanly) {
  double fault_free_us = 0.0;
  {
    JoinCancelRig rig(GetParam());
    auto [status, hash] = rig.Run(-1.0, &fault_free_us);
    ASSERT_TRUE(status.ok());
    ASSERT_GT(fault_free_us, 0.0);
  }
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Pcg32 rng(seed);
    const double cancel_at = rng.NextDouble() * fault_free_us;
    JoinCancelRig rig(GetParam());
    auto [status, hash] = rig.Run(cancel_at, nullptr);
    // Either the join won the race or it reports the injected cancellation;
    // the rig already asserted nothing leaked.
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCancelled)
          << "seed " << seed << ": " << status.ToString();
    }
  }
}

TEST_P(JoinCancelTest, SameSeedReproducesSameTraceHash) {
  double fault_free_us = 0.0;
  {
    JoinCancelRig rig(GetParam());
    (void)rig.Run(-1.0, &fault_free_us);
  }
  Pcg32 rng(3);
  const double cancel_at = rng.NextDouble() * fault_free_us;
  JoinCancelRig a(GetParam());
  JoinCancelRig b(GetParam());
  auto [status_a, hash_a] = a.Run(cancel_at, nullptr);
  auto [status_b, hash_b] = b.Run(cancel_at, nullptr);
  EXPECT_EQ(hash_a, hash_b);
  EXPECT_EQ(status_a.code(), status_b.code());
}

INSTANTIATE_TEST_SUITE_P(AllDevices, JoinCancelTest,
                         db::testing::Devices(), db::testing::DeviceName);

}  // namespace
}  // namespace pioqo
