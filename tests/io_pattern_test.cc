// Access-pattern tests: traces every device request an operator submits and
// asserts the I/O *shape* the paper attributes to each access method
// (Sec. 2: FTS sequential block reads; IS random single-page reads; the
// sorted scan's ascending sweep).

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "exec/scan_operators.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "storage/data_generator.h"

namespace pioqo::exec {
namespace {

class IoPatternTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = io::MakeDevice(sim_, io::DeviceKind::kSsdConsumer);
    disk_ = std::make_unique<storage::DiskImage>(*device_);
    pool_ = std::make_unique<storage::BufferPool>(*disk_, 2048);
    cpu_ = std::make_unique<sim::CpuScheduler>(
        sim_, constants_.logical_cores, constants_.physical_cores,
        constants_.smt_penalty);
    storage::DatasetConfig cfg;
    cfg.num_rows = 33 * 2000;
    cfg.rows_per_page = 33;
    cfg.c2_domain = 1 << 24;
    cfg.index_leaf_fill = 64;
    auto ds = storage::BuildDataset(*disk_, cfg);
    PIOQO_CHECK(ds.ok());
    dataset_ = std::make_unique<storage::Dataset>(std::move(ds).value());
    device_->set_trace_sink(&trace_);
  }

  void TearDown() override { device_->set_trace_sink(nullptr); }

  ExecContext Context() { return ExecContext{sim_, *cpu_, *pool_, constants_}; }

  RangePredicate PredicateFor(double sel) const {
    return RangePredicate{
        0, storage::C2UpperBoundForSelectivity(dataset_->c2_domain, sel)};
  }

  /// Requests touching the table's byte range, in submit order.
  std::vector<io::TraceEntry> TableRequests() const {
    const uint64_t lo = disk_->OffsetOf(dataset_->table.first_page());
    const uint64_t hi = lo + static_cast<uint64_t>(
                                 dataset_->table.num_pages()) *
                                 storage::kPageSize;
    std::vector<io::TraceEntry> out;
    for (const auto& e : trace_) {
      if (e.offset >= lo && e.offset < hi) out.push_back(e);
    }
    return out;
  }

  core::CostConstants constants_;
  sim::Simulator sim_;
  std::unique_ptr<io::Device> device_;
  std::unique_ptr<storage::DiskImage> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<sim::CpuScheduler> cpu_;
  std::unique_ptr<storage::Dataset> dataset_;
  std::vector<io::TraceEntry> trace_;
};

TEST_F(IoPatternTest, FtsIssuesAscendingLargeBlockReads) {
  auto ctx = Context();
  RunScan(ctx, {.table = &dataset_->table, .pred = PredicateFor(0.1),
                .dop = 4});
  auto reqs = TableRequests();
  ASSERT_GT(reqs.size(), 4u);
  // Block reads, not page reads ("a large block consisting of several
  // consecutive pages is read at a time").
  uint64_t covered = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_GT(reqs[i].length, storage::kPageSize);
    covered += reqs[i].length;
    if (i > 0) {
      EXPECT_GT(reqs[i].offset, reqs[i - 1].offset);
    }
  }
  // The blocks tile the whole table exactly once.
  EXPECT_EQ(covered, static_cast<uint64_t>(dataset_->table.num_pages()) *
                         storage::kPageSize);
}

TEST_F(IoPatternTest, IndexScanIssuesRandomSinglePageReads) {
  auto ctx = Context();
  RunScan(ctx, {.table = &dataset_->table, .index = &dataset_->index_c2,
                .pred = PredicateFor(0.05), .dop = 4});
  auto reqs = TableRequests();
  ASSERT_GT(reqs.size(), 100u);
  size_t backward = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].length, storage::kPageSize);
    if (i > 0 && reqs[i].offset < reqs[i - 1].offset) ++backward;
  }
  // Random order: a large fraction of steps go backwards (a sorted pattern
  // would have none).
  EXPECT_GT(backward, reqs.size() / 4);
}

TEST_F(IoPatternTest, SortedScanIssuesAscendingSinglePageReads) {
  auto ctx = Context();
  RunScan(ctx, {.table = &dataset_->table, .index = &dataset_->index_c2,
                .pred = PredicateFor(0.05), .sorted = true, .dop = 1});
  auto reqs = TableRequests();
  ASSERT_GT(reqs.size(), 100u);
  for (size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_GT(reqs[i].offset, reqs[i - 1].offset) << "i=" << i;
  }
  // No page requested twice.
  std::vector<uint64_t> offsets;
  for (const auto& r : reqs) offsets.push_back(r.offset);
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()), offsets.end());
}

TEST_F(IoPatternTest, PisKeepsRoughlyDopRequestsOutstanding) {
  // A pool much smaller than the table, so fetches actually reach the
  // device (a pool that fits the whole table would absorb the queue).
  storage::BufferPool small_pool(*disk_, 256);
  ExecContext ctx{sim_, *cpu_, small_pool, constants_};
  auto r = RunScan(ctx, {.table = &dataset_->table,
                         .index = &dataset_->index_c2,
                         .pred = PredicateFor(0.2), .dop = 8});
  // Paper Sec. 2: "the I/O pattern of PIS with parallel degree n is the
  // parallel random I/O with constant queue depth of n."
  EXPECT_GT(r.avg_queue_depth, 4.0);
  EXPECT_LT(r.avg_queue_depth, 11.0);
}

TEST_F(IoPatternTest, PrefetchingIndexScanBatchesSubmissions) {
  auto ctx = Context();
  trace_.clear();
  RunScan(ctx, {.table = &dataset_->table, .index = &dataset_->index_c2,
                .pred = PredicateFor(0.05), .dop = 1});
  auto plain = TableRequests();
  EXPECT_TRUE(pool_->Clear().ok());
  trace_.clear();
  RunScan(ctx, {.table = &dataset_->table, .index = &dataset_->index_c2,
                .pred = PredicateFor(0.05), .dop = 1, .prefetch_depth = 16});
  auto prefetching = TableRequests();
  ASSERT_EQ(plain.size(), prefetching.size());  // same pages either way
  // With prefetching, many requests share a submit instant (bursts).
  size_t simultaneous = 0;
  for (size_t i = 1; i < prefetching.size(); ++i) {
    if (prefetching[i].submit_time == prefetching[i - 1].submit_time) {
      ++simultaneous;
    }
  }
  EXPECT_GT(simultaneous, prefetching.size() / 5);
}

}  // namespace
}  // namespace pioqo::exec
