#include "exec/scan_operators.h"

#include <memory>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "storage/data_generator.h"

namespace pioqo::exec {
namespace {

using storage::BuildDataset;
using storage::C2UpperBoundForSelectivity;
using storage::Dataset;
using storage::DatasetConfig;

/// A small experiment rig: device + disk + pool + dataset + exec context.
class Rig {
 public:
  Rig(io::DeviceKind kind, uint64_t rows, uint32_t rows_per_page,
      uint32_t pool_pages, uint64_t seed = 42)
      : device_(io::MakeDevice(sim_, kind)),
        disk_(*device_),
        pool_(disk_, pool_pages),
        cpu_(sim_, core::CostConstants{}.logical_cores,
             core::CostConstants{}.physical_cores,
             core::CostConstants{}.smt_penalty) {
    DatasetConfig cfg;
    cfg.num_rows = rows;
    cfg.rows_per_page = rows_per_page;
    cfg.c2_domain = 1 << 24;
    cfg.seed = seed;
    auto ds = BuildDataset(disk_, cfg);
    PIOQO_CHECK(ds.ok()) << ds.status().ToString();
    dataset_ = std::make_unique<Dataset>(std::move(ds).value());
  }

  ExecContext Context() {
    return ExecContext{sim_, cpu_, pool_, core::CostConstants{}};
  }

  RangePredicate PredicateFor(double selectivity) const {
    return RangePredicate{
        0, C2UpperBoundForSelectivity(dataset_->c2_domain, selectivity)};
  }

  /// Brute-force reference answer for MAX(C1) under `pred`.
  ScanResult Reference(RangePredicate pred) const {
    ScanResult r;
    bool found = false;
    for (uint64_t n = 0; n < dataset_->table.num_rows(); ++n) {
      auto rid = dataset_->table.NthRowId(n);
      const char* page = disk_.PageData(rid.page);
      int32_t c2 = dataset_->table.GetColumn(page, rid.slot, storage::kColumnC2);
      if (pred.Matches(c2)) {
        int32_t c1 =
            dataset_->table.GetColumn(page, rid.slot, storage::kColumnC1);
        if (!found || c1 > r.max_c1) r.max_c1 = c1;
        found = true;
        ++r.rows_matched;
      }
    }
    return r;
  }

  sim::Simulator sim_;
  std::unique_ptr<io::Device> device_;
  storage::DiskImage disk_;
  storage::BufferPool pool_;
  sim::CpuScheduler cpu_;
  std::unique_ptr<Dataset> dataset_;
};

TEST(FullTableScanTest, ComputesCorrectMax) {
  Rig rig(io::DeviceKind::kSsdConsumer, 10000, 33, 512);
  auto ctx = rig.Context();
  auto pred = rig.PredicateFor(0.1);
  auto result = RunScan(ctx, {.table = &rig.dataset_->table, .pred = pred,
                              .dop = 1});
  auto expected = rig.Reference(pred);
  EXPECT_EQ(result.max_c1, expected.max_c1);
  EXPECT_EQ(result.rows_matched, expected.rows_matched);
  EXPECT_EQ(result.rows_examined, 10000u);
  EXPECT_GT(result.runtime_us, 0.0);
}

TEST(FullTableScanTest, ParallelAgreesWithSerial) {
  Rig rig(io::DeviceKind::kSsdConsumer, 10000, 33, 512);
  auto ctx = rig.Context();
  auto pred = rig.PredicateFor(0.05);
  auto serial = RunScan(ctx, {.table = &rig.dataset_->table, .pred = pred,
                              .dop = 1});
  EXPECT_TRUE(rig.pool_.Clear().ok());
  auto parallel = RunScan(ctx, {.table = &rig.dataset_->table, .pred = pred,
                                .dop = 8});
  EXPECT_EQ(serial.max_c1, parallel.max_c1);
  EXPECT_EQ(serial.rows_matched, parallel.rows_matched);
}

TEST(FullTableScanTest, ReadsEveryPageOnce) {
  Rig rig(io::DeviceKind::kSsdConsumer, 33 * 300, 33, 512);
  auto ctx = rig.Context();
  auto result = RunScan(ctx, {.table = &rig.dataset_->table,
                              .pred = rig.PredicateFor(0.5), .dop = 1});
  EXPECT_EQ(result.bytes_read, 300ull * storage::kPageSize);
  // Block prefetching: far fewer device requests than pages.
  EXPECT_LT(result.device_reads, 300u / 16);
}

TEST(FullTableScanTest, EmptyPredicateStillScansAll) {
  Rig rig(io::DeviceKind::kSsdConsumer, 5000, 33, 512);
  auto ctx = rig.Context();
  auto result = RunScan(ctx, {.table = &rig.dataset_->table,
                              .pred = RangePredicate{5, 4}, .dop = 1});
  EXPECT_EQ(result.rows_matched, 0u);
  EXPECT_EQ(result.rows_examined, 5000u);
}

TEST(IndexScanTest, ComputesCorrectMax) {
  Rig rig(io::DeviceKind::kSsdConsumer, 10000, 33, 512);
  auto ctx = rig.Context();
  auto pred = rig.PredicateFor(0.02);
  auto result = RunScan(ctx, {.table = &rig.dataset_->table,
                              .index = &rig.dataset_->index_c2, .pred = pred,
                              .dop = 1});
  auto expected = rig.Reference(pred);
  EXPECT_EQ(result.rows_matched, expected.rows_matched);
  EXPECT_EQ(result.max_c1, expected.max_c1);
  // Index scan only examines qualifying rows.
  EXPECT_EQ(result.rows_examined, expected.rows_matched);
}

TEST(IndexScanTest, AgreesWithFullTableScanAcrossSelectivities) {
  Rig rig(io::DeviceKind::kSsdConsumer, 20000, 33, 1024);
  auto ctx = rig.Context();
  for (double sel : {0.0005, 0.01, 0.3, 1.0}) {
    auto pred = rig.PredicateFor(sel);
    EXPECT_TRUE(rig.pool_.Clear().ok());
    auto fts = RunScan(ctx, {.table = &rig.dataset_->table, .pred = pred,
                             .dop = 4});
    EXPECT_TRUE(rig.pool_.Clear().ok());
    auto is = RunScan(ctx, {.table = &rig.dataset_->table,
                            .index = &rig.dataset_->index_c2, .pred = pred,
                            .dop = 4, .prefetch_depth = 8});
    EXPECT_EQ(fts.rows_matched, is.rows_matched) << "sel=" << sel;
    if (fts.rows_matched > 0) {
      EXPECT_EQ(fts.max_c1, is.max_c1) << "sel=" << sel;
    }
  }
}

TEST(IndexScanTest, EmptyRange) {
  Rig rig(io::DeviceKind::kSsdConsumer, 5000, 33, 512);
  auto ctx = rig.Context();
  auto result = RunScan(ctx, {.table = &rig.dataset_->table,
                              .index = &rig.dataset_->index_c2,
                              .pred = RangePredicate{10, 5}, .dop = 4});
  EXPECT_EQ(result.rows_matched, 0u);
}

TEST(IndexScanTest, PisQueueDepthTracksParallelDegree) {
  // Paper Sec. 2: "the I/O pattern of PIS with parallel degree n is the
  // parallel random I/O with constant queue depth of n."
  // Enough qualifying leaves (~80) that even 16 workers stay busy; the
  // paper notes the pattern holds "except in very selective queries in
  // which the number of leaf pages ... is smaller than the number of
  // workers".
  Rig rig(io::DeviceKind::kSsdConsumer, 330000, 33, 1024);
  auto ctx = rig.Context();
  auto pred = rig.PredicateFor(0.1);
  for (int dop : {4, 16}) {
    EXPECT_TRUE(rig.pool_.Clear().ok());
    auto result = RunScan(ctx, {.table = &rig.dataset_->table,
                                .index = &rig.dataset_->index_c2, .pred = pred,
                                .dop = dop});
    EXPECT_GT(result.avg_queue_depth, dop * 0.5) << "dop=" << dop;
    EXPECT_LT(result.avg_queue_depth, dop * 1.3) << "dop=" << dop;
  }
}

TEST(IndexScanTest, PrefetchingRaisesQueueDepthAndCutsRuntime) {
  // Sec. 3.3 / Fig. 5: prefetching is an alternative way to generate queue
  // depth; a single worker with prefetch n approaches (but does not match)
  // n workers.
  Rig rig(io::DeviceKind::kSsdConsumer, 60000, 33, 1024);
  auto ctx = rig.Context();
  auto pred = rig.PredicateFor(0.05);
  EXPECT_TRUE(rig.pool_.Clear().ok());
  auto plain = RunScan(ctx, {.table = &rig.dataset_->table,
                             .index = &rig.dataset_->index_c2, .pred = pred,
                             .dop = 1});
  EXPECT_TRUE(rig.pool_.Clear().ok());
  auto prefetching = RunScan(ctx, {.table = &rig.dataset_->table,
                                   .index = &rig.dataset_->index_c2,
                                   .pred = pred, .dop = 1,
                                   .prefetch_depth = 16});
  EXPECT_LT(prefetching.runtime_us, plain.runtime_us / 3.0);
  EXPECT_GT(prefetching.avg_queue_depth, plain.avg_queue_depth * 3.0);
  EXPECT_EQ(prefetching.rows_matched, plain.rows_matched);
}

TEST(IndexScanTest, ParallelismSpeedsUpOnSsdNotOnHdd) {
  // The heart of Fig. 4: PIS32 >> IS on SSD; only mild improvement on HDD.
  const double sel = 0.05;
  double ssd_ratio, hdd_ratio;
  {
    Rig rig(io::DeviceKind::kSsdConsumer, 330000, 33, 2048);
    auto ctx = rig.Context();
    auto pred = rig.PredicateFor(sel);
    EXPECT_TRUE(rig.pool_.Clear().ok());
    auto is = RunScan(ctx, {.table = &rig.dataset_->table,
                            .index = &rig.dataset_->index_c2, .pred = pred,
                            .dop = 1});
    EXPECT_TRUE(rig.pool_.Clear().ok());
    auto pis = RunScan(ctx, {.table = &rig.dataset_->table,
                             .index = &rig.dataset_->index_c2, .pred = pred,
                             .dop = 32});
    ssd_ratio = is.runtime_us / pis.runtime_us;
  }
  {
    Rig rig(io::DeviceKind::kHdd7200, 330000, 33, 2048);
    auto ctx = rig.Context();
    auto pred = rig.PredicateFor(sel);
    EXPECT_TRUE(rig.pool_.Clear().ok());
    auto is = RunScan(ctx, {.table = &rig.dataset_->table,
                            .index = &rig.dataset_->index_c2, .pred = pred,
                            .dop = 1});
    EXPECT_TRUE(rig.pool_.Clear().ok());
    auto pis = RunScan(ctx, {.table = &rig.dataset_->table,
                             .index = &rig.dataset_->index_c2, .pred = pred,
                             .dop = 32});
    hdd_ratio = is.runtime_us / pis.runtime_us;
  }
  // Paper: ~16.6-22.5x on SSD vs ~2.4-2.5x on HDD.
  EXPECT_GT(ssd_ratio, 8.0);
  EXPECT_LT(hdd_ratio, 6.0);
  EXPECT_GT(ssd_ratio, hdd_ratio * 2.0);
}

TEST(FullTableScanTest, ParallelismHelpsOnSsdForFatRows) {
  // Fig. 4(b): with one row per page, PFTS keeps improving with dop on SSD.
  Rig rig(io::DeviceKind::kSsdConsumer, 3000, 1, 512);
  auto ctx = rig.Context();
  auto pred = rig.PredicateFor(0.5);
  EXPECT_TRUE(rig.pool_.Clear().ok());
  auto fts = RunScan(ctx, {.table = &rig.dataset_->table, .pred = pred,
                           .dop = 1});
  EXPECT_TRUE(rig.pool_.Clear().ok());
  auto pfts = RunScan(ctx, {.table = &rig.dataset_->table, .pred = pred,
                            .dop = 32});
  EXPECT_LT(pfts.runtime_us, fts.runtime_us / 1.5);
  EXPECT_EQ(pfts.max_c1, fts.max_c1);
}

TEST(FullTableScanTest, HddParallelismDoesNotHelpTypicalRows) {
  // Fig. 4(c): on HDD with 33 rows/page one core already saturates the
  // sequential bandwidth; PFTS buys nothing.
  Rig rig(io::DeviceKind::kHdd7200, 33 * 2000, 33, 1024);
  auto ctx = rig.Context();
  auto pred = rig.PredicateFor(0.5);
  EXPECT_TRUE(rig.pool_.Clear().ok());
  auto fts = RunScan(ctx, {.table = &rig.dataset_->table, .pred = pred,
                           .dop = 1});
  EXPECT_TRUE(rig.pool_.Clear().ok());
  auto pfts = RunScan(ctx, {.table = &rig.dataset_->table, .pred = pred,
                            .dop = 32});
  EXPECT_GT(pfts.runtime_us, fts.runtime_us * 0.8);
}

TEST(IndexScanTest, SmallPoolCausesRefetchesAtHighSelectivity) {
  // Sec. 2: with a small pool and large selectivity, IS fetches more pages
  // than the table has.
  Rig rig(io::DeviceKind::kSsdConsumer, 33000, 33, 128);
  auto ctx = rig.Context();
  auto pred = rig.PredicateFor(0.8);
  EXPECT_TRUE(rig.pool_.Clear().ok());
  auto result = RunScan(ctx, {.table = &rig.dataset_->table,
                              .index = &rig.dataset_->index_c2, .pred = pred,
                              .dop = 1});
  EXPECT_GT(result.pool_misses,
            static_cast<uint64_t>(rig.dataset_->table.num_pages()));
}

TEST(RangePredicateTest, Semantics) {
  RangePredicate p{5, 10};
  EXPECT_TRUE(p.Matches(5));
  EXPECT_TRUE(p.Matches(10));
  EXPECT_FALSE(p.Matches(4));
  EXPECT_FALSE(p.Matches(11));
  EXPECT_FALSE(p.empty());
  EXPECT_TRUE((RangePredicate{10, 5}).empty());
  EXPECT_FALSE((RangePredicate{7, 7}).empty());
  EXPECT_TRUE((RangePredicate{7, 7}).Matches(7));
}

TEST(ScanResultTest, ToStringSummarizes) {
  ScanResult r;
  r.runtime_us = 12345.6;
  r.rows_matched = 7;
  r.rows_examined = 100;
  r.device_reads = 3;
  r.bytes_read = 5 << 20;
  std::string s = r.ToString();
  EXPECT_NE(s.find("12345us"), std::string::npos);
  EXPECT_NE(s.find("7/100"), std::string::npos);
  EXPECT_NE(s.find("5 MiB"), std::string::npos);
}

}  // namespace
}  // namespace pioqo::exec
