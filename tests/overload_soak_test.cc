// Overload soak: a seeded open-loop arrival process at ~2x the device's
// sustainable load, replayed through admission control on HDD, SSD and
// RAID. The acceptance criteria for the lifecycle layer:
//
//   1. Every query reaches a terminal state (completed / shed / timed out /
//      cancelled) — the counts add up and nothing is simply lost. The mix
//      carries deadlines and injected cancels, and one run per device adds
//      a chaos schedule of read errors, latency spikes and stuck requests.
//   2. Nothing leaks: the database ends drained (ExpectDrained).
//   3. The same seeds (arrivals and chaos schedule) reproduce the same
//      trace hash bit-for-bit.
//   4. The A/B (SSD): with the admission caps unlimited, concurrency is
//      unbounded (peak running far above the cap) and the completion tail
//      is measurably worse.

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "db/database.h"
#include "soak_test_util.h"

namespace pioqo {
namespace {

using db::AdmissionOptions;
using db::Database;
using db::DatabaseOptions;
using db::testing::ChaosSchedule;
using db::testing::ExpectDrained;
using db::testing::Gaps;
using db::testing::OpenLoopArrivals;
using db::testing::Percentile;
using db::testing::PredFor;
using db::testing::SoakTable;

std::unique_ptr<Database> MakeDb(io::DeviceKind kind,
                                 std::optional<io::FaultConfig> faults) {
  DatabaseOptions options;
  options.device = kind;
  options.pool_pages = 1024;
  options.faults = faults;
  if (faults.has_value()) db::testing::ArmRetries(options);
  auto db = std::make_unique<Database>(std::move(options));
  PIOQO_CHECK(db->CreateTable(SoakTable()).ok());
  return db;
}

/// The four query shapes of the mix, cycled through in request order.
Database::ConcurrentScanSpec MixQuery(size_t i) {
  const storage::DatasetConfig table = SoakTable();
  switch (i % 4) {
    case 0: return {"T", PredFor(table, 0.01), core::AccessMethod::kPis, 4, 4};
    case 1: return {"T", PredFor(table, 0.20), core::AccessMethod::kPfts, 4, 0};
    case 2: return {"T", PredFor(table, 0.02), core::AccessMethod::kPis, 2, 2};
    default: return {"T", PredFor(table, 0.30), core::AccessMethod::kFts, 1, 0};
  }
}

/// Mean fault-free service time of the mix on `kind`, measured on a
/// throwaway database with the queries run back to back.
double MeanServiceUs(io::DeviceKind kind) {
  auto db = MakeDb(kind, std::nullopt);
  double total = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    auto spec = MixQuery(i);
    auto result = db->ExecuteScan(spec.table, spec.pred, spec.method, spec.dop,
                                  spec.prefetch_depth, /*flush_pool=*/true);
    PIOQO_CHECK_OK(result.status());
    total += result->runtime_us;
  }
  return total / 4.0;
}

/// A Poisson arrival process at `load` times the sustainable rate
/// (sustainable ~= one query per mean service time). With `lifecycle`,
/// every 4th query carries a deadline and every 11th is cancelled at a
/// seeded instant within one mean service time of its arrival, so the
/// timed-out and cancelled paths are part of the soak.
std::vector<Database::QueryRequest> MakeWorkload(size_t n, double mean_us,
                                                 double load, uint64_t seed,
                                                 bool lifecycle) {
  const std::vector<double> arrivals =
      OpenLoopArrivals(n, 0.0, mean_us / load, Gaps::kPoisson, seed);
  Pcg32 cancel_rng(seed, /*stream=*/11);
  std::vector<Database::QueryRequest> requests(n);
  for (size_t i = 0; i < n; ++i) {
    Database::QueryRequest& req = requests[i];
    req.scan = MixQuery(i);
    req.arrival_us = arrivals[i];
    if (!lifecycle) continue;
    if (i % 4 == 2) req.timeout_us = 3.0 * mean_us;
    if (i % 11 == 10) {
      req.cancel_at_us = arrivals[i] + cancel_rng.NextDouble() * mean_us;
    }
  }
  return requests;
}

struct SoakRun {
  Database::WorkloadReport report;
  uint64_t trace_hash = 0;
};

SoakRun RunSoak(io::DeviceKind kind,
                const std::vector<Database::QueryRequest>& requests,
                AdmissionOptions admission,
                std::optional<io::FaultConfig> faults = std::nullopt) {
  auto db = MakeDb(kind, faults);
  db->EnableAdmissionControl(admission);
  auto report = db->RunWorkload(requests, /*flush_pool=*/true);
  PIOQO_CHECK_OK(report.status());
  ExpectDrained(*db, "overload soak");
  SoakRun run;
  run.report = std::move(report).value();
  run.trace_hash = db->simulator().trace_hash();
  return run;
}

std::vector<double> CompletedLatencies(const Database::WorkloadReport& report) {
  std::vector<double> out;
  for (const auto& q : report.queries) {
    if (q.terminal == Database::QueryTerminal::kCompleted) {
      out.push_back(q.latency_us);
    }
  }
  return out;
}

AdmissionOptions SoakAdmission(double mean_us) {
  // The cap sits near the SSD's saturation point: enough concurrent work to
  // fill the device queue (queue depth is throughput here, per the paper),
  // not so much that extra arrivals only add queueing delay.
  AdmissionOptions admission;
  admission.max_concurrent_queries = 6;
  admission.max_total_dop = 24;
  admission.max_queue_wait_us = 5.0 * mean_us;
  return admission;
}

constexpr size_t kQueries = 40;
constexpr double kLoad = 2.0;  // 2x sustainable arrival rate

/// Terminal-state accounting of one overloaded run with the lifecycle mix.
void ExpectEveryQueryTerminal(const Database::WorkloadReport& r) {
  EXPECT_EQ(r.completed + r.shed + r.timed_out + r.cancelled + r.failed,
            kQueries);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.admission.submitted, kQueries);
  // 2x load must actually overload: the cap binds and the queue is used.
  EXPECT_EQ(r.admission.peak_running, 6);
  EXPECT_GT(r.admission.peak_queued, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.cancelled, 0u);
  for (const auto& q : r.queries) {
    if (q.terminal == Database::QueryTerminal::kShed) {
      EXPECT_TRUE(q.status.code() == StatusCode::kResourceExhausted)
          << q.status.ToString();
      EXPECT_EQ(q.granted_dop, 0);
    }
  }
}

class OverloadSoakTest : public ::testing::TestWithParam<io::DeviceKind> {};

TEST_P(OverloadSoakTest, EveryQueryReachesATerminalStateWithNoLeaks) {
  const double mean_us = MeanServiceUs(GetParam());
  const auto requests = MakeWorkload(kQueries, mean_us, kLoad, /*seed=*/42,
                                     /*lifecycle=*/true);
  ExpectEveryQueryTerminal(
      RunSoak(GetParam(), requests, SoakAdmission(mean_us)).report);
}

TEST_P(OverloadSoakTest, ChaosRunTerminatesAndSameSeedReplaysBitIdentically) {
  const double mean_us = MeanServiceUs(GetParam());
  const auto requests = MakeWorkload(kQueries, mean_us, kLoad, /*seed=*/7,
                                     /*lifecycle=*/true);
  const SoakRun a = RunSoak(GetParam(), requests, SoakAdmission(mean_us),
                            ChaosSchedule(/*seed=*/7));
  const SoakRun b = RunSoak(GetParam(), requests, SoakAdmission(mean_us),
                            ChaosSchedule(/*seed=*/7));
  ExpectEveryQueryTerminal(a.report);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  ASSERT_EQ(a.report.queries.size(), b.report.queries.size());
  for (size_t i = 0; i < a.report.queries.size(); ++i) {
    EXPECT_EQ(a.report.queries[i].terminal, b.report.queries[i].terminal);
    EXPECT_EQ(a.report.queries[i].latency_us, b.report.queries[i].latency_us);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, OverloadSoakTest,
                         db::testing::Devices(), db::testing::DeviceName);

// SSD only: on the HDD a cap buys no tail (measured at 2x load with caps of
// 4 queries / 16 DOP: p90 7821 ms with admission, 7683 ms without).
TEST(OverloadSoakAbTest, DisablingAdmissionUnboundsConcurrencyAndTail) {
  const io::DeviceKind kind = io::DeviceKind::kSsdConsumer;
  const double mean_us = MeanServiceUs(kind);
  // Lifecycle-free workload at a harder overload: deadlines would shed load
  // in the uncontrolled run too, muddying the A/B, and concurrent queries
  // overlap CPU with I/O, so the serial service rate understates capacity.
  const auto requests = MakeWorkload(kQueries, mean_us, 2.0 * kLoad,
                                     /*seed=*/42, /*lifecycle=*/false);
  AdmissionOptions on = SoakAdmission(mean_us);
  on.max_queue_wait_us = 2.0 * mean_us;  // bound the controlled run's waits
  const SoakRun with = RunSoak(kind, requests, on);

  AdmissionOptions off = on;  // no gate: unlimited caps
  off.max_concurrent_queries = std::numeric_limits<int>::max();
  off.max_total_dop = std::numeric_limits<int>::max();
  const SoakRun without = RunSoak(kind, requests, off);

  // Unbounded queueing: with no gate, far more queries pile onto the device
  // at once than the controller would ever run.
  EXPECT_GT(without.report.admission.peak_running,
            2 * on.max_concurrent_queries);
  // And the tail pays for it: under 2x load the uncontrolled run's
  // completion p90 is measurably worse than the controlled run's.
  const auto lat_with = CompletedLatencies(with.report);
  const auto lat_without = CompletedLatencies(without.report);
  ASSERT_FALSE(lat_with.empty());
  ASSERT_FALSE(lat_without.empty());
  EXPECT_GT(Percentile(lat_without, 0.9), Percentile(lat_with, 0.9));
}

}  // namespace
}  // namespace pioqo
