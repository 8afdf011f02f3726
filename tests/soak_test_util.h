#ifndef PIOQO_TESTS_SOAK_TEST_UTIL_H_
#define PIOQO_TESTS_SOAK_TEST_UTIL_H_

// What the soak tests share: the query script and the soak table, the
// devices, the chaos schedule and the retry policy they run with, the
// open-loop arrival process, the percentile they judge tails by, and the
// one drained-state check every run must pass.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "db/database.h"
#include "sim/sim_checks.h"

namespace pioqo::db::testing {

/// One forced plan of a query script, at a C2 range selectivity.
struct ScriptQuery {
  core::AccessMethod method;
  int dop;
  int prefetch_depth;
  double selectivity;
};

/// The four-plan script the chaos and cancellation soaks run: a parallel
/// and a serial table scan, and a parallel plain and sorted index scan.
inline constexpr ScriptQuery kScript[] = {
    {core::AccessMethod::kPfts, 4, 0, 0.20},
    {core::AccessMethod::kPis, 4, 4, 0.01},
    {core::AccessMethod::kSortedIs, 2, 4, 0.05},
    {core::AccessMethod::kFts, 1, 0, 0.50},
};

/// The small table the script runs against (8000 rows).
inline storage::DatasetConfig ScriptTable() {
  storage::DatasetConfig config;
  config.name = "T";
  config.num_rows = 8000;
  return config;
}

/// The overload and drift soak table: 4096 data pages, four times the
/// soaks' 1024-frame pool, so scans stay I/O bound and there is device
/// contention to shed or to drift.
inline storage::DatasetConfig SoakTable() {
  storage::DatasetConfig config;
  config.name = "T";
  config.num_rows = 33 * 4096;
  return config;
}

/// HDD, SSD and RAID, the devices every soak runs on; with DeviceName,
/// the arguments of INSTANTIATE_TEST_SUITE_P.
inline auto Devices() {
  return ::testing::Values(io::DeviceKind::kHdd7200,
                           io::DeviceKind::kSsdConsumer,
                           io::DeviceKind::kRaid8);
}

inline std::string DeviceName(
    const ::testing::TestParamInfo<io::DeviceKind>& info) {
  return std::string(io::DeviceKindName(info.param));
}

/// The retry policy the chaos schedules are sized against: a few attempts,
/// and a per-attempt deadline far above any legitimate service time, so
/// only stuck requests trip it.
inline void ArmRetries(DatabaseOptions& options) {
  options.pool_options.retry.max_attempts = 4;
  options.pool_options.retry.timeout_us = 300'000.0;
  options.pool_options.retry.backoff_base_us = 500.0;
}

/// A mild chaos schedule: 1% transient read errors, 2% latency spikes of
/// 2 ms, 0.5% stuck requests.
inline io::FaultConfig ChaosSchedule(uint64_t seed) {
  io::FaultConfig faults;
  faults.seed = seed;
  faults.read_error_prob = 0.01;
  faults.error_latency_us = 150.0;
  faults.spike_prob = 0.02;
  faults.spike_us = 2000.0;
  faults.stuck_prob = 0.005;
  return faults;
}

/// The C2 range [0, x] matching `selectivity` of `table`'s rows.
inline exec::RangePredicate PredFor(const storage::DatasetConfig& table,
                                    double selectivity) {
  return exec::RangePredicate{
      0, storage::C2UpperBoundForSelectivity(table.c2_domain, selectivity)};
}

/// The `p` quantile (nearest rank below) of `values`, which must be
/// non-empty.
inline double Percentile(std::vector<double> values, double p) {
  PIOQO_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank)];
}

/// How an open-loop process spaces its arrivals around the mean gap.
enum class Gaps {
  kFixed,     // exactly the mean gap
  kJittered,  // uniform in [0.75, 1.25] x the mean: irregular, but query i
              // still arrives near start + i x the mean
  kPoisson,   // exponential: a memoryless stream that bunches and stalls
};

/// `n` arrival instants from `start_us`, seeded: arrivals keep coming
/// whether or not the system keeps up. The same seed gives the same
/// instants.
inline std::vector<double> OpenLoopArrivals(size_t n, double start_us,
                                            double mean_gap_us, Gaps gaps,
                                            uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> arrivals(n);
  double t = start_us;
  for (double& arrival : arrivals) {
    arrival = t;
    const double u = rng.NextDouble();
    switch (gaps) {
      case Gaps::kFixed:
        t += mean_gap_us;
        break;
      case Gaps::kJittered:
        t += mean_gap_us * (0.75 + 0.5 * u);
        break;
      case Gaps::kPoisson:
        t += -std::log(1.0 - u) * mean_gap_us;
        break;
    }
  }
  return arrivals;
}

/// The state every soak run must end in: no pinned or loading frame (the
/// pool clears), no pending simulator event, no request outstanding on the
/// device (nor, under fault injection, on the device it wraps), empty
/// admission ledgers, and a quiescent PIOQO_SIM_CHECKS registry. The
/// pool's residency count agrees with its frames before the clear (a
/// drained pool holds no loading frame) and reads 0 after it.
inline void ExpectDrained(Database& db, const char* where) {
  storage::BufferPool& pool = db.pool();
  const uint32_t disk_pages = pool.disk().num_pages();
  EXPECT_EQ(pool.ResidentInRange(0, disk_pages), pool.resident_pages())
      << where;
  const Status cleared = pool.Clear();
  EXPECT_TRUE(cleared.ok()) << where << ": " << cleared.ToString();
  EXPECT_EQ(pool.ResidentInRange(0, disk_pages), 0u) << where;
  EXPECT_EQ(db.simulator().num_pending(), 0u) << where;
  EXPECT_EQ(db.device().stats().outstanding(), 0) << where;
  EXPECT_EQ(db.raw_device().stats().outstanding(), 0) << where;
  if (const AdmissionController* admission = db.admission()) {
    EXPECT_EQ(admission->running(), 0) << where;
    EXPECT_EQ(admission->queued(), 0u) << where;
    EXPECT_EQ(admission->total_dop(), 0) << where;
    EXPECT_EQ(admission->background_dop(), 0) << where;
  }
  sim::checks::ExpectQuiescent(where);
}

}  // namespace pioqo::db::testing

#endif  // PIOQO_TESTS_SOAK_TEST_UTIL_H_
