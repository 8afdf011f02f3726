// Buffer-pool data-structure A/B stress test.
//
// The query-path throughput PR rebuilds the pool's page table (open-addressed
// flat table instead of std::unordered_map) and its LRU (intrusive doubly-
// linked list embedded in the frame slab instead of std::list), and chains
// fetch waiters intrusively instead of per-frame vectors. Those are host-side
// data structures: the rebuilt pool must make exactly the same device
// requests at the same simulated instants in the same order, evict the same
// victims, and keep every BufferPoolStats counter exact.
//
// This test replays a recorded high-churn scenario — 8 seeded workers mixing
// fetches, held pins, single-page and block prefetches over a table 8x the
// pool size, plus a pin-hog phase that drives the pool into eviction
// starvation (kResourceExhausted fetches, dropped prefetches) — and asserts
// the simulator trace hash and the full stats block against golden values
// recorded from the list-based implementation (commit b94143d lineage).
//
// If a *deliberate* pool-policy change invalidates the goldens, regenerate
// with:
//
//   PIOQO_PRINT_POOL_GOLDENS=1 ./build/tests/buffer_pool_stress_test
//
// and update the tables in the same commit that justifies the change.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"
#include "storage/disk_image.h"
#include "storage/page.h"

namespace pioqo::storage {
namespace {

constexpr uint32_t kTablePages = 512;
constexpr uint32_t kPoolFrames = 64;
constexpr int kWorkers = 8;
constexpr int kOpsPerWorker = 400;

struct StressOutcome {
  uint64_t trace_hash = 0;
  BufferPoolStats stats;
};

/// One seeded worker: a mix of fetch/hold/unpin, double fetches (nested
/// pins), single-page prefetches and block prefetches. Failed fetches
/// (cancellation-free here, so only kResourceExhausted under the hog) are
/// simply not unpinned, exactly as operators treat them.
sim::Task StressWorker(sim::Simulator& sim, BufferPool& pool, uint64_t seed,
                       sim::Latch& done) {
  Pcg32 rng(seed);
  for (int op = 0; op < kOpsPerWorker; ++op) {
    const uint64_t kind = rng.UniformBelow(10);
    if (kind < 6) {
      const PageId pid = static_cast<PageId>(rng.UniformBelow(kTablePages));
      auto ref = co_await pool.Fetch(pid);
      if (ref.ok()) {
        co_await sim::Delay(sim, 1.0 + static_cast<double>(rng.UniformBelow(20)));
        pool.Unpin(pid);
      }
    } else if (kind < 8) {
      pool.PrefetchBlock(static_cast<PageId>(rng.UniformBelow(kTablePages)), 1);
    } else if (kind < 9) {
      const PageId first = static_cast<PageId>(rng.UniformBelow(kTablePages));
      const uint32_t count = std::min<uint32_t>(
          1 + static_cast<uint32_t>(rng.UniformBelow(16)), kTablePages - first);
      pool.PrefetchBlock(first, count);
    } else {
      // Nested pins on two distinct pages.
      const PageId a = static_cast<PageId>(rng.UniformBelow(kTablePages));
      const PageId b = static_cast<PageId>((a + 1 + rng.UniformBelow(31)) %
                                           kTablePages);
      auto ra = co_await pool.Fetch(a);
      auto rb = co_await pool.Fetch(b);
      if (rb.ok()) pool.Unpin(b);
      if (ra.ok()) pool.Unpin(a);
    }
  }
  done.CountDown();
}

/// Pins most of the pool and holds, so concurrent fetch traffic exercises
/// the exhaustion paths (fetch kResourceExhausted, prefetch drops), then
/// releases everything.
sim::Task HogWorker(sim::Simulator& sim, BufferPool& pool, sim::Latch& done) {
  constexpr uint32_t kHogPins = kPoolFrames - 4;
  PageId held[kHogPins];
  uint32_t held_count = 0;
  for (uint32_t i = 0; i < kHogPins; ++i) {
    const PageId pid = static_cast<PageId>(i);
    auto ref = co_await pool.Fetch(pid);
    if (ref.ok()) held[held_count++] = pid;
  }
  co_await sim::Delay(sim, 4000.0);
  for (uint32_t i = 0; i < held_count; ++i) pool.Unpin(held[i]);
  done.CountDown();
}

StressOutcome RunScenario(io::DeviceKind kind) {
  sim::Simulator sim;
  auto device = io::MakeDevice(sim, kind);
  DiskImage disk(*device);
  const PageId first = disk.AllocatePages(kTablePages);
  PIOQO_CHECK(first == 0);
  for (PageId p = 0; p < kTablePages; ++p) {
    disk.PageData(p)[kPageHeaderSize] = static_cast<char>(p & 0x7f);
  }
  BufferPool pool(disk, kPoolFrames);

  sim::Latch done(sim, kWorkers + 1);
  HogWorker(sim, pool, done).Detach();
  for (int w = 0; w < kWorkers; ++w) {
    StressWorker(sim, pool, 0x51e55ULL + static_cast<uint64_t>(w), done)
        .Detach();
  }
  sim.Run();
  PIOQO_CHECK(done.done());

  // Every pin was released: the pool must drain completely.
  PIOQO_CHECK_OK(pool.Clear());
  PIOQO_CHECK(pool.resident_pages() == 0);

  return StressOutcome{sim.trace_hash(), pool.stats()};
}

struct Golden {
  const char* device;
  io::DeviceKind kind;
  uint64_t trace_hash;
  // The full stats block, in declaration order (error/retry counters that
  // must stay zero are asserted separately).
  uint64_t fetches, hits, misses, joined_inflight, evictions;
  uint64_t prefetch_issued, prefetch_read, prefetch_dropped;
  uint64_t device_reads, pages_read, fetch_errors;
};

// Recorded from the list-based implementation; see file comment.
const Golden kGoldens[] = {
    {"hdd", io::DeviceKind::kHdd7200, 0xee5e1b3581f2ffbbULL, 2662, 233, 2429,
     84, 4998, 3201, 2733, 11, 3316, 5062, 16},
    {"ssd", io::DeviceKind::kSsdConsumer, 0x3ebd8aff181e8fb4ULL, 2668, 205,
     2463, 87, 3656, 3131, 1896, 755, 2531, 3720, 552},
    {"raid", io::DeviceKind::kRaid8, 0xc78f7722371683e3ULL, 2664, 227, 2437,
     91, 5048, 3214, 2782, 35, 3338, 5112, 16},
};

TEST(BufferPoolStressTest, MatchesListBasedImplementation) {
  const bool print = std::getenv("PIOQO_PRINT_POOL_GOLDENS") != nullptr;
  for (const Golden& g : kGoldens) {
    const StressOutcome got = RunScenario(g.kind);
    const BufferPoolStats& s = got.stats;
    if (print) {
      std::printf(
          "    {\"%s\", io::DeviceKind::k%s, 0x%016llxULL, %llu, %llu, %llu, "
          "%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu},\n",
          g.device,
          g.kind == io::DeviceKind::kHdd7200       ? "Hdd7200"
          : g.kind == io::DeviceKind::kSsdConsumer ? "SsdConsumer"
                                                   : "Raid8",
          static_cast<unsigned long long>(got.trace_hash),
          static_cast<unsigned long long>(s.fetches),
          static_cast<unsigned long long>(s.hits),
          static_cast<unsigned long long>(s.misses),
          static_cast<unsigned long long>(s.joined_inflight),
          static_cast<unsigned long long>(s.evictions),
          static_cast<unsigned long long>(s.prefetch_issued),
          static_cast<unsigned long long>(s.prefetch_read),
          static_cast<unsigned long long>(s.prefetch_dropped),
          static_cast<unsigned long long>(s.device_reads),
          static_cast<unsigned long long>(s.pages_read),
          static_cast<unsigned long long>(s.fetch_errors));
      continue;
    }
    EXPECT_EQ(got.trace_hash, g.trace_hash) << g.device;
    EXPECT_EQ(s.fetches, g.fetches) << g.device;
    EXPECT_EQ(s.hits, g.hits) << g.device;
    EXPECT_EQ(s.misses, g.misses) << g.device;
    EXPECT_EQ(s.joined_inflight, g.joined_inflight) << g.device;
    EXPECT_EQ(s.evictions, g.evictions) << g.device;
    EXPECT_EQ(s.prefetch_issued, g.prefetch_issued) << g.device;
    EXPECT_EQ(s.prefetch_read, g.prefetch_read) << g.device;
    EXPECT_EQ(s.prefetch_dropped, g.prefetch_dropped) << g.device;
    EXPECT_EQ(s.device_reads, g.device_reads) << g.device;
    EXPECT_EQ(s.pages_read, g.pages_read) << g.device;
    EXPECT_EQ(s.fetch_errors, g.fetch_errors) << g.device;
    // Sanity cross-check that holds by construction: every fetch resolves
    // as a hit or a miss (exhausted fetches count as miss + fetch_error).
    EXPECT_EQ(s.fetches, s.hits + s.misses) << g.device;
    // No faults injected and no queries attached in this scenario.
    EXPECT_EQ(s.retries, 0u) << g.device;
    EXPECT_EQ(s.timeouts, 0u) << g.device;
    EXPECT_EQ(s.abandoned_retries, 0u) << g.device;
    EXPECT_EQ(s.failed_loads, 0u) << g.device;
    EXPECT_EQ(s.cancelled_fetches, 0u) << g.device;
    EXPECT_EQ(s.cancelled_reads, 0u) << g.device;
  }
}

}  // namespace
}  // namespace pioqo::storage
