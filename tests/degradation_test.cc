#include "io/degradation.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/ssd_device.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/page.h"

namespace pioqo::io {
namespace {

constexpr uint64_t kPage = storage::kPageSize;

/// Issues `count` random page reads back to back (queue depth 1), recording
/// each read's completion latency.
sim::Task SerialReads(sim::Simulator& sim, Device& device, int count,
                      uint64_t seed, std::vector<double>* latencies,
                      sim::Latch& done) {
  Pcg32 rng(seed);
  const uint64_t pages = device.capacity_bytes() / kPage;
  for (int i = 0; i < count; ++i) {
    const double start = sim.Now();
    EXPECT_TRUE((co_await device.Read(rng.UniformBelow(pages) * kPage, kPage))
                    .ok());
    if (latencies != nullptr) latencies->push_back(sim.Now() - start);
  }
  done.CountDown();
}

double Mean(const std::vector<double>& xs, size_t first, size_t last) {
  double sum = 0.0;
  for (size_t i = first; i < last; ++i) sum += xs[i];
  return sum / static_cast<double>(last - first);
}

// --- SSD wear / thermal throttle -------------------------------------------

TEST(SsdThrottleTest, ThrottlePhaseSlowsReadsAndCounts) {
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  // Healthy serial page reads take ~180 us each, so with the phase window
  // at [20 ms, 200 ms) the first ~110 reads predate it, the middle of the
  // series runs inside it, and the tail runs after it.
  SsdThrottlePhase phase;
  phase.start_us = 20'000.0;
  phase.end_us = 200'000.0;
  phase.latency_multiplier = 4.0;
  phase.unit_divisor = 4;
  ssd.SetThrottleSchedule({phase});

  std::vector<double> latencies;
  sim::Latch done(sim, 1);
  SerialReads(sim, ssd, 600, /*seed=*/13, &latencies, done).Detach();

  bool throttled_seen = false;
  sim.ScheduleAt(100'000.0, [&] { throttled_seen = ssd.throttled(); });
  sim.Run();

  EXPECT_TRUE(throttled_seen);
  EXPECT_FALSE(ssd.throttled());  // past the phase once the run drains
  EXPECT_GT(ssd.stats().throttled_commands(), 0u);
  EXPECT_LT(ssd.stats().throttled_commands(), 600u);

  const double before = Mean(latencies, 0, 50);
  const double during = Mean(latencies, 200, 250);
  EXPECT_GT(during, before * 2.0);
}

TEST(SsdThrottleTest, EmptyScheduleIsInert) {
  auto trace_for = [](bool set_empty_schedule) {
    sim::Simulator sim;
    SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
    if (set_empty_schedule) ssd.SetThrottleSchedule({});
    sim::Latch done(sim, 1);
    SerialReads(sim, ssd, 300, /*seed=*/17, nullptr, done).Detach();
    sim.Run();
    EXPECT_EQ(ssd.stats().throttled_commands(), 0u);
    return sim.trace_hash();
  };
  EXPECT_EQ(trace_for(false), trace_for(true));
}

TEST(SsdThrottleTest, SameSeedReplayIsBitIdentical) {
  auto trace = [] {
    sim::Simulator sim;
    SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
    SsdThrottlePhase phase;
    phase.start_us = 50'000.0;
    phase.end_us = 150'000.0;
    phase.latency_multiplier = 3.0;
    phase.unit_divisor = 2;
    ssd.SetThrottleSchedule({phase});
    sim::Latch done(sim, 1);
    SerialReads(sim, ssd, 400, /*seed=*/23, nullptr, done).Detach();
    sim.Run();
    return sim.trace_hash();
  };
  EXPECT_EQ(trace(), trace());
}

}  // namespace
}  // namespace pioqo::io
