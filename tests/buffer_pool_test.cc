#include "storage/buffer_pool.h"

#include <vector>

#include <gtest/gtest.h>

#include "io/ssd_device.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/disk_image.h"

namespace pioqo::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    first_ = disk_.AllocatePages(100);
    for (PageId p = 0; p < 100; ++p) {
      disk_.PageData(p)[kPageHeaderSize] = static_cast<char>(p);
    }
  }

  sim::Simulator sim_;
  io::SsdDevice ssd_{sim_, io::SsdGeometry::ConsumerPcie()};
  DiskImage disk_{ssd_};
  PageId first_ = 0;
};

TEST_F(BufferPoolTest, MissReadsFromDeviceThenHits) {
  BufferPool pool(disk_, 10);
  char got = 0;
  bool hit1 = true, hit2 = false;
  auto worker = [&]() -> sim::Task {
    auto ref = co_await pool.Fetch(5);
    hit1 = ref.was_hit;
    got = ref.data[kPageHeaderSize];
    pool.Unpin(5);
    auto ref2 = co_await pool.Fetch(5);
    hit2 = ref2.was_hit;
    pool.Unpin(5);
  };
  worker().Detach();
  sim_.Run();
  EXPECT_EQ(got, 5);
  EXPECT_FALSE(hit1);
  EXPECT_TRUE(hit2);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(ssd_.stats().reads(), 1u);
}

TEST_F(BufferPoolTest, FetchTakesDeviceTime) {
  BufferPool pool(disk_, 10);
  auto worker = [&]() -> sim::Task {
    co_await pool.Fetch(0);
    pool.Unpin(0);
  };
  worker().Detach();
  double t = sim_.Run();
  EXPECT_GT(t, 100.0);  // one SSD random read
}

TEST_F(BufferPoolTest, ConcurrentFetchesOfSamePageShareOneRead) {
  BufferPool pool(disk_, 10);
  sim::Latch latch(sim_, 8);
  auto worker = [&]() -> sim::Task {
    auto ref = co_await pool.Fetch(3);
    EXPECT_EQ(ref.data[kPageHeaderSize], 3);
    pool.Unpin(3);
    latch.CountDown();
  };
  for (int i = 0; i < 8; ++i) worker().Detach();
  sim_.Run();
  EXPECT_TRUE(latch.done());
  EXPECT_EQ(ssd_.stats().reads(), 1u);
  EXPECT_EQ(pool.stats().joined_inflight, 7u);
}

TEST_F(BufferPoolTest, EvictsLruWhenFull) {
  BufferPool pool(disk_, 4);
  auto worker = [&]() -> sim::Task {
    for (PageId p = 0; p < 8; ++p) {
      co_await pool.Fetch(p);
      pool.Unpin(p);
    }
    // Pages 0..3 were evicted by 4..7; refetching 0 must miss.
    auto ref = co_await pool.Fetch(0);
    EXPECT_FALSE(ref.was_hit);
    pool.Unpin(0);
    // 7 is still resident (MRU side).
    auto ref7 = co_await pool.Fetch(7);
    EXPECT_TRUE(ref7.was_hit);
    pool.Unpin(7);
  };
  worker().Detach();
  sim_.Run();
  EXPECT_GE(pool.stats().evictions, 4u);
  EXPECT_LE(pool.resident_pages(), 4u);
}

TEST_F(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  BufferPool pool(disk_, 4);
  auto worker = [&]() -> sim::Task {
    auto ref = co_await pool.Fetch(42);  // keep pinned
    for (PageId p = 0; p < 10; ++p) {
      co_await pool.Fetch(p);
      pool.Unpin(p);
    }
    // Page 42 must still be resident and instantly fetchable.
    auto again = co_await pool.Fetch(42);
    EXPECT_TRUE(again.was_hit);
    EXPECT_EQ(again.data[kPageHeaderSize], 42);
    EXPECT_EQ(again.data, ref.data);
    pool.Unpin(42);
    pool.Unpin(42);
  };
  worker().Detach();
  sim_.Run();
}

TEST_F(BufferPoolTest, PrefetchMakesLaterFetchAHit) {
  BufferPool pool(disk_, 10);
  bool was_hit = false;
  auto worker = [&]() -> sim::Task {
    pool.PrefetchBlock(9, 1);
    co_await sim::Delay(sim_, 10000.0);  // long enough for the read
    auto ref = co_await pool.Fetch(9);
    was_hit = ref.was_hit;
    pool.Unpin(9);
  };
  worker().Detach();
  sim_.Run();
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(pool.stats().prefetch_read, 1u);
}

TEST_F(BufferPoolTest, FetchDuringPrefetchJoinsInflightRead) {
  BufferPool pool(disk_, 10);
  auto worker = [&]() -> sim::Task {
    pool.PrefetchBlock(9, 1);
    auto ref = co_await pool.Fetch(9);  // read still in flight
    EXPECT_EQ(ref.data[kPageHeaderSize], 9);
    pool.Unpin(9);
  };
  worker().Detach();
  sim_.Run();
  EXPECT_EQ(ssd_.stats().reads(), 1u);
}

TEST_F(BufferPoolTest, PrefetchBlockIssuesOneDeviceRequest) {
  BufferPool pool(disk_, 64);
  pool.PrefetchBlock(0, 16);
  sim_.Run();
  EXPECT_EQ(ssd_.stats().reads(), 1u);
  EXPECT_EQ(ssd_.stats().bytes_read(), 16ull * kPageSize);
  for (PageId p = 0; p < 16; ++p) EXPECT_TRUE(pool.IsResident(p));
}

TEST_F(BufferPoolTest, PrefetchBlockSplitsAroundResidentPages) {
  BufferPool pool(disk_, 64);
  auto worker = [&]() -> sim::Task {
    co_await pool.Fetch(8);
    pool.Unpin(8);
    pool.PrefetchBlock(4, 10);  // 4..13 with 8 resident: two runs
  };
  worker().Detach();
  sim_.Run();
  // 1 fetch read + 2 split block reads.
  EXPECT_EQ(ssd_.stats().reads(), 3u);
  for (PageId p = 4; p < 14; ++p) EXPECT_TRUE(pool.IsResident(p));
}

TEST_F(BufferPoolTest, ClearDropsEverything) {
  BufferPool pool(disk_, 10);
  auto worker = [&]() -> sim::Task {
    co_await pool.Fetch(1);
    pool.Unpin(1);
  };
  worker().Detach();
  sim_.Run();
  EXPECT_TRUE(pool.IsResident(1));
  EXPECT_TRUE(pool.Clear().ok());
  EXPECT_FALSE(pool.IsResident(1));
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST_F(BufferPoolTest, FetchWithEveryFramePinnedFailsCleanly) {
  // Satellite: a pool whose frames are all pinned reports kResourceExhausted
  // through the PageRef instead of aborting the process.
  BufferPool pool(disk_, 4);
  Status overflow = Status::OK();
  bool still_works = false;
  auto worker = [&]() -> sim::Task {
    for (PageId p = 0; p < 4; ++p) co_await pool.Fetch(p);  // all pinned
    auto ref = co_await pool.Fetch(50);
    overflow = ref.status;
    EXPECT_FALSE(ref.ok());
    // The failed fetch must not leak a pin or a frame: releasing one page
    // makes the pool usable again.
    pool.Unpin(0);
    auto again = co_await pool.Fetch(50);
    still_works = again.ok();
    pool.Unpin(50);
    for (PageId p = 1; p < 4; ++p) pool.Unpin(p);
  };
  worker().Detach();
  sim_.Run();
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(still_works);
  EXPECT_EQ(pool.stats().fetch_errors, 1u);
}

TEST_F(BufferPoolTest, ClearReportsPinnedAndInflightPages) {
  BufferPool pool(disk_, 10);
  auto pin_worker = [&]() -> sim::Task {
    co_await pool.Fetch(1);  // left pinned on purpose
  };
  pin_worker().Detach();
  sim_.Run();
  Status pinned = pool.Clear();
  EXPECT_EQ(pinned.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(pool.IsResident(1));  // a failed Clear drops nothing
  pool.Unpin(1);

  // An in-flight load likewise blocks Clear instead of crashing it.
  pool.PrefetchBlock(7, 1);
  Status inflight = pool.Clear();
  EXPECT_EQ(inflight.code(), StatusCode::kFailedPrecondition);
  sim_.Run();
  EXPECT_TRUE(pool.Clear().ok());
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST_F(BufferPoolTest, SequentialScanWithSmallPoolEvictsCleanly) {
  BufferPool pool(disk_, 8);
  uint64_t sum = 0;
  auto worker = [&]() -> sim::Task {
    for (PageId p = 0; p < 100; ++p) {
      auto ref = co_await pool.Fetch(p);
      sum += static_cast<unsigned char>(ref.data[kPageHeaderSize]);
      pool.Unpin(p);
    }
  };
  worker().Detach();
  sim_.Run();
  EXPECT_EQ(sum, 99ull * 100 / 2);
  EXPECT_EQ(pool.stats().misses, 100u);
  EXPECT_EQ(pool.stats().evictions, 92u);
}

using BufferPoolDeathTest = BufferPoolTest;

TEST_F(BufferPoolDeathTest, BindingAPagePastTheDiskAbortsBeforeIssuingIt) {
  // A page past the disk has no bytes to land, so binding a frame to it
  // aborts at once: the simulator never runs, and no read reaches it.
  BufferPool pool(disk_, 10);
  EXPECT_DEATH(pool.PrefetchBlock(100, 1),
               "page 100 lies past the disk's 100 pages");
}

}  // namespace
}  // namespace pioqo::storage
