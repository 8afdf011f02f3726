// Fault-injection layer tests: injected error/spike/stuck behavior, phase
// windows, schedule determinism, the zero-fault A/B guarantee, buffer-pool
// retry/timeout recovery and the retry policies the pool rejects, and
// health-monitor degradation detection.

#include "io/fault_injection.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "io/health_monitor.h"
#include "io/ssd_device.h"
#include "sim/sim_checks.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"
#include "storage/disk_image.h"
#include "storage/page.h"

namespace pioqo {
namespace {

using io::Device;
using io::FaultConfig;
using io::FaultInjectingDevice;
using io::FaultPhase;
using io::IoRequest;
using io::IoResult;
using io::SsdDevice;
using io::SsdGeometry;

IoRequest Read4k(uint64_t page) {
  return IoRequest{IoRequest::Kind::kRead, page * 4096, 4096};
}

/// Issues `n` scattered 4 KiB reads through `device` (callback style, so a
/// swallowed completion cannot leak a coroutine) and runs the simulator to
/// quiescence. Returns the per-read statuses in issue order; a read whose
/// completion never fired keeps the kInternal sentinel.
std::vector<StatusCode> RunReadWorkload(sim::Simulator& sim, Device& device,
                                        int n) {
  const uint64_t pages = device.capacity_bytes() / 4096;
  std::vector<StatusCode> codes(static_cast<size_t>(n), StatusCode::kInternal);
  for (int i = 0; i < n; ++i) {
    const uint64_t page = (static_cast<uint64_t>(i) * 7919 + 13) % pages;
    device.Submit(Read4k(page), [&codes, i](const IoResult& r) {
      codes[static_cast<size_t>(i)] = r.status.code();
    });
  }
  sim.Run();
  return codes;
}

TEST(FaultInjectionTest, EnabledInjectorWithZeroProbabilitiesIsTransparent) {
  // The zero-fault A/B guarantee: wrapping a device in an all-zero injector
  // changes nothing — same completions, same simulated time, same trace
  // hash. RNG draws happen (fixed three per submission) but no extra event
  // is scheduled, so fault handling is provably zero-cost when unused.
  sim::Simulator sim_a;
  SsdDevice raw_a(sim_a, SsdGeometry::ConsumerPcie());
  auto codes_a = RunReadWorkload(sim_a, raw_a, 100);

  sim::Simulator sim_b;
  SsdDevice raw_b(sim_b, SsdGeometry::ConsumerPcie());
  FaultInjectingDevice faulty(raw_b, FaultConfig{});  // all zero
  auto codes_b = RunReadWorkload(sim_b, faulty, 100);

  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(sim_a.Now(), sim_b.Now());
  EXPECT_EQ(sim_a.trace_hash(), sim_b.trace_hash());
  EXPECT_EQ(faulty.stats().errors_injected(), 0u);
}

TEST(FaultInjectionTest, InjectedErrorCompletesWithIoError) {
  sim::Simulator sim;
  SsdDevice raw(sim, SsdGeometry::ConsumerPcie());
  FaultConfig config;
  config.read_error_prob = 1.0;
  config.error_latency_us = 250.0;
  FaultInjectingDevice faulty(raw, config);

  Status got = Status::OK();
  double completed_at = -1.0;
  faulty.Submit(Read4k(7), [&](const IoResult& r) {
    got = r.status;
    completed_at = sim.Now();
  });
  sim.Run();

  EXPECT_EQ(got.code(), StatusCode::kIoError);
  EXPECT_DOUBLE_EQ(completed_at, 250.0);
  // The failed request never reached the wrapped device.
  EXPECT_EQ(raw.stats().reads(), 0u);
  EXPECT_EQ(faulty.stats().errors_injected(), 1u);
  EXPECT_EQ(faulty.stats().errors(), 1u);
  EXPECT_EQ(faulty.stats().outstanding(), 0);
}

TEST(FaultInjectionTest, LatencySpikeDelaysCompletionBySpikeUs) {
  sim::Simulator sim_clean;
  SsdDevice raw_clean(sim_clean, SsdGeometry::ConsumerPcie());
  raw_clean.Submit(Read4k(7), [](const IoResult&) {});
  const double baseline = sim_clean.Run();

  sim::Simulator sim;
  SsdDevice raw(sim, SsdGeometry::ConsumerPcie());
  FaultConfig config;
  config.spike_prob = 1.0;
  config.spike_us = 5000.0;
  FaultInjectingDevice faulty(raw, config);
  Status got = Status::IoError("never completed");
  faulty.Submit(Read4k(7), [&](const IoResult& r) { got = r.status; });
  sim.Run();

  EXPECT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(sim.Now(), baseline + 5000.0);
  EXPECT_EQ(raw.stats().reads(), 1u);  // served, just slower to report
}

TEST(FaultInjectionTest, StuckRequestNeverCompletes) {
  sim::Simulator sim;
  SsdDevice raw(sim, SsdGeometry::ConsumerPcie());
  FaultConfig config;
  config.stuck_prob = 1.0;
  FaultInjectingDevice faulty(raw, config);

  bool completed = false;
  faulty.Submit(Read4k(3), [&](const IoResult&) { completed = true; });
  sim.Run();

  EXPECT_FALSE(completed);
  EXPECT_EQ(sim.Now(), 0.0);  // nothing was ever scheduled
  EXPECT_EQ(raw.stats().reads(), 0u);
  EXPECT_EQ(faulty.stats().errors_injected(), 1u);
  EXPECT_EQ(faulty.stats().outstanding(), 1);  // submitted, never completed
}

TEST(FaultInjectionTest, DegradedPhaseStretchesLatencyUntilWindowEnds) {
  sim::Simulator sim_clean;
  SsdDevice raw_clean(sim_clean, SsdGeometry::ConsumerPcie());
  raw_clean.Submit(Read4k(1000), [](const IoResult&) {});
  const double baseline = sim_clean.Run();

  sim::Simulator sim;
  SsdDevice raw(sim, SsdGeometry::ConsumerPcie());
  FaultConfig config;
  config.phases.push_back(FaultPhase{0.0, 50'000.0, 4.0, 0.0});
  FaultInjectingDevice faulty(raw, config);

  // Inside the window: 4x the inner service time.
  double in_phase = -1.0;
  faulty.Submit(Read4k(1000), [&](const IoResult& r) {
    EXPECT_TRUE(r.ok());
    in_phase = r.latency_us;
  });
  sim.Run();
  EXPECT_NEAR(in_phase, 4.0 * baseline, 1e-6);

  // After the window the same read costs the plain service time again.
  sim.RunUntil(60'000.0);
  double after_phase = -1.0;
  faulty.Submit(Read4k(5000), [&](const IoResult& r) {
    EXPECT_TRUE(r.ok());
    after_phase = r.latency_us;
  });
  sim.Run();
  EXPECT_GT(after_phase, 0.0);
  EXPECT_LT(after_phase, 1.5 * baseline);
}

TEST(FaultInjectionTest, SameSeedReproducesIdenticalFaultSchedule) {
  auto run = [](uint64_t seed) {
    sim::Simulator sim;
    SsdDevice raw(sim, SsdGeometry::ConsumerPcie());
    FaultConfig config;
    config.seed = seed;
    config.read_error_prob = 0.2;
    config.spike_prob = 0.2;
    config.spike_us = 2000.0;
    FaultInjectingDevice faulty(raw, config);
    auto codes = RunReadWorkload(sim, faulty, 200);
    return std::make_pair(codes, sim.trace_hash());
  };
  auto [codes_a, hash_a] = run(99);
  auto [codes_b, hash_b] = run(99);
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(hash_a, hash_b);
  // Some faults actually fired (0.2 over 200 reads), and a different seed
  // produces a different schedule.
  EXPECT_GT(std::count(codes_a.begin(), codes_a.end(), StatusCode::kIoError),
            0);
  auto [codes_c, hash_c] = run(100);
  EXPECT_NE(hash_a, hash_c);
}

// ---------------------------------------------------------------------------
// Buffer-pool retry / timeout behavior on a faulty device.
// ---------------------------------------------------------------------------

class PoolRetryTest : public ::testing::Test {
 protected:
  storage::BufferPool MakePool(const FaultConfig& faults,
                               io::RetryPolicy retry, uint32_t pool_pages = 16,
                               uint64_t retry_seed = 0x5eedf00dULL) {
    faulty_ = std::make_unique<FaultInjectingDevice>(raw_, faults);
    disk_ = std::make_unique<storage::DiskImage>(*faulty_);
    disk_->AllocatePages(64);
    for (storage::PageId p = 0; p < 64; ++p) {
      disk_->PageData(p)[storage::kPageHeaderSize] = static_cast<char>(p);
    }
    return storage::BufferPool(*disk_, pool_pages,
                               storage::BufferPoolOptions{retry, retry_seed});
  }

  sim::Simulator sim_;
  SsdDevice raw_{sim_, SsdGeometry::ConsumerPcie()};
  std::unique_ptr<FaultInjectingDevice> faulty_;
  std::unique_ptr<storage::DiskImage> disk_;
};

TEST_F(PoolRetryTest, TransientErrorIsRetriedToSuccess) {
  // Error window [0, 500us): the first attempt fails, the backed-off retry
  // (>= 750us with jitter) lands after the window and succeeds.
  FaultConfig faults;
  faults.error_latency_us = 100.0;
  faults.phases.push_back(FaultPhase{0.0, 500.0, 1.0, 1.0});
  io::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.backoff_base_us = 1000.0;
  auto pool = MakePool(faults, retry);

  storage::BufferPool::PageRef got;
  auto worker = [&]() -> sim::Task {
    got = co_await pool.Fetch(9);
    if (got.ok()) pool.Unpin(9);
  };
  worker().Detach();
  sim_.Run();

  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.data[storage::kPageHeaderSize], 9);
  EXPECT_EQ(pool.stats().retries, 1u);
  EXPECT_EQ(pool.stats().failed_loads, 0u);
  EXPECT_EQ(pool.stats().fetch_errors, 0u);
  EXPECT_EQ(faulty_->stats().errors_injected(), 1u);
  sim::checks::ExpectQuiescent("transient retry");
}

TEST_F(PoolRetryTest, PermanentErrorExhaustsAttemptsAndFailsAllWaiters) {
  FaultConfig faults;
  faults.read_error_prob = 1.0;
  faults.error_latency_us = 100.0;
  io::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_base_us = 200.0;
  auto pool = MakePool(faults, retry);

  std::vector<Status> statuses;
  auto worker = [&]() -> sim::Task {
    auto ref = co_await pool.Fetch(5);
    EXPECT_EQ(ref.data, nullptr);
    statuses.push_back(ref.status);
  };
  for (int i = 0; i < 4; ++i) worker().Detach();
  sim_.Run();

  ASSERT_EQ(statuses.size(), 4u);
  for (const Status& s : statuses) {
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  EXPECT_EQ(pool.stats().retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(pool.stats().failed_loads, 1u);
  EXPECT_EQ(pool.stats().fetch_errors, 4u);
  // The loading frame was dropped: nothing resident, nothing pinned.
  EXPECT_FALSE(pool.IsResident(5));
  EXPECT_EQ(pool.ResidentInRange(5, 1), 0u);
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_TRUE(pool.Clear().ok());
  sim::checks::ExpectQuiescent("permanent failure");
}

TEST_F(PoolRetryTest, StuckRequestsExhaustTimeoutsAndFailCleanly) {
  // Every attempt is swallowed; only the per-attempt deadline makes
  // progress. Two attempts -> two timeouts -> clean failure.
  FaultConfig faults;
  faults.stuck_prob = 1.0;
  io::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.timeout_us = 3000.0;
  retry.backoff_base_us = 500.0;
  retry.jitter_frac = 0.0;
  auto pool = MakePool(faults, retry);

  Status got = Status::OK();
  auto worker = [&]() -> sim::Task {
    auto ref = co_await pool.Fetch(2);
    got = ref.status;
  };
  worker().Detach();
  sim_.Run();

  EXPECT_EQ(got.code(), StatusCode::kIoError);
  EXPECT_EQ(pool.stats().timeouts, 2u);
  EXPECT_EQ(pool.stats().retries, 1u);
  EXPECT_EQ(pool.stats().failed_loads, 1u);
  EXPECT_EQ(faulty_->stats().errors_injected(), 2u);
  // attempt1 deadline at 3000 + backoff 500 + attempt2 deadline 3000.
  EXPECT_DOUBLE_EQ(sim_.Now(), 6500.0);
  EXPECT_EQ(sim_.num_pending(), 0u);
  sim::checks::ExpectQuiescent("stuck exhaustion");
}

TEST_F(PoolRetryTest, TimeoutRecoversFromIntermittentlyStuckDevice) {
  // With stuck_prob = 0.5 some seed in a small range must produce "first
  // attempt stuck, second attempt served" — the timeout-recovery success
  // path. The schedule for any fixed seed is fully deterministic.
  bool found = false;
  for (uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    sim::Simulator sim;
    SsdDevice raw(sim, SsdGeometry::ConsumerPcie());
    FaultConfig faults;
    faults.seed = seed;
    faults.stuck_prob = 0.5;
    FaultInjectingDevice faulty(raw, faults);
    storage::DiskImage disk(faulty);
    disk.AllocatePages(8);
    disk.PageData(4)[storage::kPageHeaderSize] = 44;
    io::RetryPolicy retry;
    retry.max_attempts = 3;
    retry.timeout_us = 2000.0;
    storage::BufferPool pool(disk, 8, storage::BufferPoolOptions{retry, seed});

    storage::BufferPool::PageRef got;
    auto worker = [&]() -> sim::Task {
      got = co_await pool.Fetch(4);
      if (got.ok()) pool.Unpin(4);
    };
    worker().Detach();
    sim.Run();

    if (pool.stats().timeouts == 1 && got.ok()) {
      EXPECT_EQ(got.data[storage::kPageHeaderSize], 44);
      EXPECT_EQ(pool.stats().retries, 1u);
      EXPECT_EQ(pool.stats().failed_loads, 0u);
      // The recovery re-read the page after the deadline fired.
      EXPECT_GT(sim.Now(), retry.timeout_us);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no seed in 1..64 hit stuck-then-served";
}

TEST_F(PoolRetryTest, LateCompletionOfTimedOutAttemptIsDiscarded) {
  // A spike longer than the deadline: attempt 1 completes *after* its
  // timeout already triggered attempt 2. The stale completion must be
  // ignored — no double resume, no double accounting.
  FaultConfig faults;
  faults.spike_prob = 1.0;
  faults.spike_us = 10'000.0;
  io::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout_us = 2000.0;
  retry.backoff_base_us = 100.0;
  retry.jitter_frac = 0.0;
  auto pool = MakePool(faults, retry);

  int resumes = 0;
  storage::BufferPool::PageRef got;
  auto worker = [&]() -> sim::Task {
    got = co_await pool.Fetch(1);
    ++resumes;
    if (got.ok()) pool.Unpin(1);
  };
  worker().Detach();
  sim_.Run();

  EXPECT_EQ(resumes, 1);
  // Every attempt spikes past its deadline, so the load ultimately fails;
  // the three late completions all arrive and are all discarded.
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(pool.stats().timeouts, 3u);
  EXPECT_EQ(pool.stats().failed_loads, 1u);
  EXPECT_FALSE(pool.IsResident(1));
  EXPECT_EQ(pool.ResidentInRange(1, 1), 0u);
  EXPECT_TRUE(pool.Clear().ok());
  sim::checks::ExpectQuiescent("stale completions");
}

/// Constructs a pool running `retry` over a fault-free SSD.
void ConstructPool(const io::RetryPolicy& retry) {
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  storage::DiskImage disk(ssd);
  storage::BufferPool pool(disk, 16, storage::BufferPoolOptions{retry});
}

TEST(PoolRetryDeathTest, RejectsPoliciesItCannotRun) {
  // A negative or NaN backoff aborts the simulator at the first retry, and a
  // negative or NaN deadline silently disables it: the pool rejects each at
  // construction instead, naming the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  io::RetryPolicy no_attempts;
  no_attempts.max_attempts = 0;
  EXPECT_DEATH(ConstructPool(no_attempts), "max_attempts must be at least 1");
  for (double bad : {-1.0, nan, inf}) {
    io::RetryPolicy timeout;
    timeout.timeout_us = bad;
    EXPECT_DEATH(ConstructPool(timeout),
                 "timeout_us must be non-negative and finite")
        << bad;
    io::RetryPolicy base;
    base.backoff_base_us = bad;
    EXPECT_DEATH(ConstructPool(base),
                 "backoff_base_us must be non-negative and finite")
        << bad;
    io::RetryPolicy multiplier;
    multiplier.backoff_multiplier = bad;
    EXPECT_DEATH(ConstructPool(multiplier),
                 "backoff_multiplier must be non-negative and finite")
        << bad;
  }
  for (double bad : {-0.5, 2.0, nan}) {
    io::RetryPolicy jitter;
    jitter.jitter_frac = bad;
    EXPECT_DEATH(ConstructPool(jitter), "jitter_frac must lie in \\[0, 1\\]")
        << bad;
  }
  // The boundaries themselves are accepted.
  io::RetryPolicy edge;
  edge.max_attempts = 1;
  edge.timeout_us = 0.0;
  edge.backoff_base_us = 0.0;
  edge.backoff_multiplier = 0.0;
  edge.jitter_frac = 1.0;
  ConstructPool(edge);
  edge.jitter_frac = 0.0;
  ConstructPool(edge);
}

// ---------------------------------------------------------------------------
// Health monitor.
// ---------------------------------------------------------------------------

/// Issues `n` scattered reads one at a time (queue depth 1) so observed
/// latencies reflect pure service time, not queueing.
void RunSequentialReads(sim::Simulator& sim, Device& device, int n) {
  const uint64_t pages = device.capacity_bytes() / 4096;
  for (int i = 0; i < n; ++i) {
    const uint64_t page = (static_cast<uint64_t>(i) * 7919 + 13) % pages;
    device.Submit(Read4k(page), [](const IoResult&) {});
    sim.Run();
  }
}

TEST(HealthMonitorTest, HealthyDeviceIsNeverClamped) {
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  // Learn the healthy baseline from the device itself.
  double baseline = 0.0;
  ssd.Submit(Read4k(123456), [&](const IoResult& r) {
    baseline = r.latency_us;
  });
  sim.Run();
  ASSERT_GT(baseline, 0.0);

  io::DeviceHealthMonitor::Options options;
  options.expected_read_latency_us = baseline;
  options.min_samples = 4;
  io::DeviceHealthMonitor monitor(ssd, options);
  RunSequentialReads(sim, ssd, 16);

  EXPECT_EQ(monitor.samples(), 16u);
  EXPECT_FALSE(monitor.degraded());
  EXPECT_DOUBLE_EQ(monitor.DegradationFactor(), 1.0);
  EXPECT_EQ(monitor.ClampDop(8), 8);
  EXPECT_EQ(ssd.stats().degraded_clamps(), 0u);
}

TEST(HealthMonitorTest, DegradedDeviceClampsDop) {
  sim::Simulator sim_clean;
  SsdDevice clean(sim_clean, SsdGeometry::ConsumerPcie());
  double baseline = 0.0;
  clean.Submit(Read4k(123456), [&](const IoResult& r) {
    baseline = r.latency_us;
  });
  sim_clean.Run();

  sim::Simulator sim;
  SsdDevice raw(sim, SsdGeometry::ConsumerPcie());
  FaultConfig faults;
  faults.phases.push_back(FaultPhase{0.0, 1e9, 6.0, 0.0});  // 6x latency
  FaultInjectingDevice faulty(raw, faults);

  io::DeviceHealthMonitor::Options options;
  options.expected_read_latency_us = baseline;
  options.min_samples = 4;  // degraded after 4 observations
  io::DeviceHealthMonitor monitor(faulty, options);
  RunSequentialReads(sim, faulty, 16);

  EXPECT_EQ(monitor.samples(), 16u);
  EXPECT_TRUE(monitor.degraded());
  EXPECT_GT(monitor.DegradationFactor(), 3.0);
  const int clamped = monitor.ClampDop(8);
  EXPECT_LT(clamped, 8);
  EXPECT_GE(clamped, 1);
  EXPECT_GE(faulty.stats().degraded_clamps(), 1u);
}

TEST(HealthMonitorTest, FailedReadsAreNotSampled) {
  sim::Simulator sim;
  SsdDevice raw(sim, SsdGeometry::ConsumerPcie());
  FaultConfig faults;
  faults.read_error_prob = 1.0;
  FaultInjectingDevice faulty(raw, faults);
  io::DeviceHealthMonitor monitor(faulty, {});
  RunReadWorkload(sim, faulty, 8);
  EXPECT_EQ(monitor.samples(), 0u);
  EXPECT_FALSE(monitor.degraded());
}

}  // namespace
}  // namespace pioqo
