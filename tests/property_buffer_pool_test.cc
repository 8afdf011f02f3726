// Model-based buffer pool testing: a worker performs a long random sequence
// of fetch / unpin / prefetch / block-prefetch operations while a shadow
// model tracks what must hold (pins balanced, returned bytes correct,
// capacity bound respected, pinned pages never evicted, ResidentInRange
// equal to one IsResident probe per page).

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"
#include "storage/disk_image.h"

namespace pioqo::storage {
namespace {

struct PoolCase {
  io::DeviceKind device;
  uint32_t capacity;
  uint32_t num_pages;
  int operations;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<PoolCase>& info) {
  const auto& c = info.param;
  return std::string(io::DeviceKindName(c.device)) + "_cap" +
         std::to_string(c.capacity) + "_pages" + std::to_string(c.num_pages) +
         "_seed" + std::to_string(c.seed);
}

class BufferPoolPropertyTest : public ::testing::TestWithParam<PoolCase> {};

TEST_P(BufferPoolPropertyTest, RandomOperationSequence) {
  const PoolCase& c = GetParam();
  sim::Simulator sim;
  auto device = io::MakeDevice(sim, c.device);
  DiskImage disk(*device);
  disk.AllocatePages(c.num_pages);
  // Stamp each page with a recognizable value.
  for (PageId p = 0; p < c.num_pages; ++p) {
    disk.PageData(p)[kPageHeaderSize] = static_cast<char>(p % 251);
  }
  BufferPool pool(disk, c.capacity);

  // ResidentInRange against its reference over a random range whose ends
  // fall inside 64-page words, and over the whole disk and past its end.
  Pcg32 range_rng(c.seed, /*stream=*/64);
  auto expect_counts_match = [&] {
    auto probed = [&](PageId first, PageId end) {
      uint32_t resident = 0;
      for (PageId p = first; p < end; ++p) resident += pool.IsResident(p);
      return resident;
    };
    const uint64_t span = c.num_pages + 70;
    PageId first = static_cast<PageId>(range_rng.UniformBelow(span));
    PageId end = static_cast<PageId>(range_rng.UniformBelow(span));
    if (first > end) std::swap(first, end);
    if (first % 64 == 0) ++first;
    if (end % 64 == 0) ++end;
    EXPECT_EQ(pool.ResidentInRange(first, end - first), probed(first, end))
        << "[" << first << ", " << end << ")";
    EXPECT_EQ(pool.ResidentInRange(0, c.num_pages + 70),
              probed(0, c.num_pages + 70));
  };

  bool finished = false;
  auto driver = [&]() -> sim::Task {
    Pcg32 rng(c.seed);
    std::map<PageId, int> pins;  // shadow pin counts
    int64_t total_pins = 0;
    // Conservative upper bound on loads we may have in flight since the
    // last drain; pins + in-flight must stay below capacity (the pool's
    // documented precondition: the caller sizes the pool above its maximum
    // simultaneously pinned/loading set).
    uint32_t loads_budget_used = 0;
    for (int op = 0; op < c.operations; ++op) {
      if (op % 16 == 15 || loads_budget_used + total_pins + 2 >= c.capacity) {
        // Drain: wait until the device has no outstanding reads.
        while (device->stats().outstanding() > 0) {
          co_await sim::Delay(sim, 1000.0);
        }
        loads_budget_used = 0;
      }
      const PageId page = static_cast<PageId>(rng.UniformBelow(c.num_pages));
      const uint64_t action = rng.UniformBelow(10);
      const uint32_t headroom = c.capacity - static_cast<uint32_t>(total_pins) -
                                loads_budget_used;
      if (action < 5 && total_pins < c.capacity / 2 && headroom >= 2) {
        auto ref = co_await pool.Fetch(page);
        ++loads_budget_used;
        EXPECT_EQ(ref.data[kPageHeaderSize], static_cast<char>(page % 251));
        ++pins[page];
        ++total_pins;
        EXPECT_TRUE(pool.IsResident(page));
      } else if (action < 8 && !pins.empty()) {
        // Unpin a random held page.
        auto it = pins.begin();
        std::advance(it, static_cast<long>(rng.UniformBelow(pins.size())));
        pool.Unpin(it->first);
        --total_pins;
        if (--it->second == 0) pins.erase(it);
      } else if (action == 8 && headroom >= 2) {
        pool.PrefetchBlock(page, 1);
        ++loads_budget_used;
      } else if (headroom >= 3) {
        const uint32_t count = static_cast<uint32_t>(
            1 + rng.UniformBelow(std::min<uint64_t>(8, headroom - 1)));
        if (page + count <= c.num_pages) {
          pool.PrefetchBlock(page, count);
          loads_budget_used += count;
        }
      }
      EXPECT_LE(pool.resident_pages(), c.capacity);
      expect_counts_match();
    }
    while (device->stats().outstanding() > 0) {  // drain before release
      co_await sim::Delay(sim, 1000.0);
    }
    // Release everything.
    for (auto& [page, count] : pins) {
      for (int i = 0; i < count; ++i) pool.Unpin(page);
    }
    finished = true;
  };
  driver().Detach();
  sim.Run();
  ASSERT_TRUE(finished);

  // After draining, every frame is unpinned and Clear must succeed.
  expect_counts_match();
  EXPECT_TRUE(pool.Clear().ok());
  EXPECT_EQ(pool.resident_pages(), 0u);
  expect_counts_match();
  // Accounting sanity.
  const auto& stats = pool.stats();
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses);
  EXPECT_GE(stats.pages_read, stats.misses - stats.joined_inflight);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BufferPoolPropertyTest,
    ::testing::Values(PoolCase{io::DeviceKind::kSsdConsumer, 16, 64, 800, 1},
                      PoolCase{io::DeviceKind::kSsdConsumer, 64, 64, 800, 2},
                      PoolCase{io::DeviceKind::kSsdConsumer, 8, 512, 800, 3},
                      PoolCase{io::DeviceKind::kHdd7200, 16, 128, 400, 4},
                      PoolCase{io::DeviceKind::kRaid8, 32, 256, 400, 5},
                      PoolCase{io::DeviceKind::kSsdConsumer, 256, 64, 800, 6},
                      PoolCase{io::DeviceKind::kSsdConsumer, 16, 64, 800, 7},
                      PoolCase{io::DeviceKind::kSsdConsumer, 16, 64, 800, 8}),
    CaseName);

/// Many concurrent workers hammering a small pool: the single-timeline
/// analogue of a stress test; validates waiter handoff and pin accounting
/// under interleaving.
TEST(BufferPoolConcurrencyTest, ManyWorkersSmallPool) {
  sim::Simulator sim;
  auto device = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  DiskImage disk(*device);
  disk.AllocatePages(256);
  BufferPool pool(disk, 32);
  int completed = 0;
  auto worker = [&](uint64_t seed) -> sim::Task {
    Pcg32 rng(seed);
    for (int i = 0; i < 200; ++i) {
      PageId page = static_cast<PageId>(rng.UniformBelow(256));
      auto ref = co_await pool.Fetch(page);
      (void)ref;
      pool.Unpin(page);
    }
    ++completed;
  };
  std::vector<decltype(worker(0))> tasks;
  for (uint64_t w = 0; w < 12; ++w) worker(w + 100).Detach();
  sim.Run();
  EXPECT_EQ(completed, 12);
  EXPECT_TRUE(pool.Clear().ok());
}

}  // namespace
}  // namespace pioqo::storage
