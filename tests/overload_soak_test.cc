// Overload soak: a seeded open-loop arrival process at ~2x the device's
// sustainable load, replayed through admission control. The acceptance
// criteria for the lifecycle layer:
//
//   1. Every query reaches a terminal state (completed / shed / timed out /
//      cancelled) — the counts add up and nothing is simply lost.
//   2. Nothing leaks: pool Clear() succeeds, the simulator drains, and the
//      PIOQO_SIM_CHECKS registry is quiescent.
//   3. The same seed reproduces the same trace hash bit-for-bit.
//   4. The A/B: with the admission caps unlimited, concurrency is
//      unbounded (peak running far above the cap) and the completion tail
//      is measurably worse.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "db/database.h"
#include "sim/sim_checks.h"

namespace pioqo {
namespace {

using db::AdmissionOptions;
using db::Database;
using db::DatabaseOptions;

storage::DatasetConfig TableConfig() {
  storage::DatasetConfig config;
  config.name = "T";
  // 4096 data pages against a 1024-frame pool: the table cannot be cached,
  // so the soak stays I/O bound — with the whole table in memory there is
  // no device contention to shed.
  config.num_rows = 33 * 4096;
  return config;
}

std::unique_ptr<Database> MakeDb() {
  DatabaseOptions options;
  options.device = io::DeviceKind::kSsdConsumer;
  options.pool_pages = 1024;
  auto db = std::make_unique<Database>(std::move(options));
  PIOQO_CHECK(db->CreateTable(TableConfig()).ok());
  return db;
}

/// The four query shapes of the mix, cycled through in request order.
Database::ConcurrentScanSpec MixQuery(size_t i) {
  const int32_t domain = TableConfig().c2_domain;
  auto pred = [domain](double sel) {
    return exec::RangePredicate{
        0, storage::C2UpperBoundForSelectivity(domain, sel)};
  };
  switch (i % 4) {
    case 0: return {"T", pred(0.01), core::AccessMethod::kPis, 4, 4};
    case 1: return {"T", pred(0.20), core::AccessMethod::kPfts, 4, 0};
    case 2: return {"T", pred(0.02), core::AccessMethod::kPis, 2, 2};
    default: return {"T", pred(0.30), core::AccessMethod::kFts, 1, 0};
  }
}

/// Mean fault-free service time of the mix, measured on a throwaway
/// database with the queries run back to back.
double MeanServiceUs() {
  auto db = MakeDb();
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

/// A seeded open-loop arrival process at `load` times the sustainable rate
/// (sustainable ~= one query per mean service time).
std::vector<Database::QueryRequest> MakeWorkload(size_t n, double mean_us,
                                                 double load, uint64_t seed,
                                                 bool with_deadlines) {
  Pcg32 rng(seed);
  std::vector<Database::QueryRequest> requests;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    Database::QueryRequest req;
    req.scan = MixQuery(i);
    req.arrival_us = t;
    // Every 4th query carries a deadline, so the timed-out path is part of
    // the soak as well.
    if (with_deadlines && i % 4 == 2) req.timeout_us = 3.0 * mean_us;
    requests.push_back(req);
    const double inter = -std::log(1.0 - rng.NextDouble()) * (mean_us / load);
    t += inter;
  }
  return requests;
}

struct SoakRun {
  Database::WorkloadReport report;
  uint64_t trace_hash = 0;
};

SoakRun RunSoak(const std::vector<Database::QueryRequest>& requests,
                AdmissionOptions admission) {
  auto db = MakeDb();
  db->EnableAdmissionControl(admission);
  auto report = db->RunWorkload(requests, /*flush_pool=*/true);
  PIOQO_CHECK_OK(report.status());
  EXPECT_TRUE(db->pool().Clear().ok());
  EXPECT_EQ(db->simulator().num_pending(), 0u);
  sim::checks::ExpectQuiescent("overload soak");
  SoakRun run;
  run.report = std::move(report).value();
  run.trace_hash = db->simulator().trace_hash();
  return run;
}

double Percentile(std::vector<double> values, double p) {
  PIOQO_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(p * (values.size() - 1));
  return values[idx];
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

class OverloadSoakTest : public ::testing::Test {
 protected:
  static constexpr size_t kQueries = 40;
  static constexpr double kLoad = 2.0;  // 2x sustainable arrival rate
};

TEST_F(OverloadSoakTest, EveryQueryReachesATerminalStateWithNoLeaks) {
  const double mean_us = MeanServiceUs();
  const auto requests = MakeWorkload(kQueries, mean_us, kLoad, /*seed=*/42,
                                     /*with_deadlines=*/true);
  const SoakRun run = RunSoak(requests, SoakAdmission(mean_us));
  const auto& r = run.report;
  EXPECT_EQ(r.completed + r.shed + r.timed_out + r.cancelled + r.failed,
            kQueries);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.admission.submitted, kQueries);
  // 2x load must actually overload: the cap binds and the queue is used.
  EXPECT_EQ(r.admission.peak_running, 6);
  EXPECT_GT(r.admission.peak_queued, 0u);
  EXPECT_GT(r.completed, 0u);
  for (const auto& q : r.queries) {
    if (q.terminal == Database::QueryTerminal::kShed) {
      EXPECT_TRUE(q.status.code() == StatusCode::kResourceExhausted)
          << q.status.ToString();
      EXPECT_EQ(q.granted_dop, 0);
    }
  }
}

TEST_F(OverloadSoakTest, SameSeedReproducesSameTraceHash) {
  const double mean_us = MeanServiceUs();
  const auto requests = MakeWorkload(kQueries, mean_us, kLoad, /*seed=*/7,
                                     /*with_deadlines=*/true);
  const SoakRun a = RunSoak(requests, SoakAdmission(mean_us));
  const SoakRun b = RunSoak(requests, SoakAdmission(mean_us));
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  ASSERT_EQ(a.report.queries.size(), b.report.queries.size());
  for (size_t i = 0; i < a.report.queries.size(); ++i) {
    EXPECT_EQ(a.report.queries[i].terminal, b.report.queries[i].terminal);
    EXPECT_EQ(a.report.queries[i].latency_us, b.report.queries[i].latency_us);
  }
}

TEST_F(OverloadSoakTest, DisablingAdmissionUnboundsConcurrencyAndTail) {
  const double mean_us = MeanServiceUs();
  // Deadline-free workload at a harder overload: deadlines would shed load
  // in the uncontrolled run too, muddying the A/B, and concurrent queries
  // overlap CPU with I/O, so the serial service rate understates capacity.
  const auto requests = MakeWorkload(kQueries, mean_us, 2.0 * kLoad,
                                     /*seed=*/42, /*with_deadlines=*/false);
  AdmissionOptions on = SoakAdmission(mean_us);
  on.max_queue_wait_us = 2.0 * mean_us;  // bound the controlled run's waits
  const SoakRun with = RunSoak(requests, on);

  AdmissionOptions off = on;  // no gate: unlimited caps
  off.max_concurrent_queries = std::numeric_limits<int>::max();
  off.max_total_dop = std::numeric_limits<int>::max();
  const SoakRun without = RunSoak(requests, off);

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
