#include <memory>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/cost_model.h"
#include "exec/scan_operators.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "storage/data_generator.h"

namespace pioqo::exec {
namespace {

class SortedScanTest : public ::testing::Test {
 protected:
  void Build(io::DeviceKind kind, uint64_t rows, uint32_t rpp,
             uint32_t pool_pages) {
    device_ = io::MakeDevice(sim_, kind);
    disk_ = std::make_unique<storage::DiskImage>(*device_);
    pool_ = std::make_unique<storage::BufferPool>(*disk_, pool_pages);
    cpu_ = std::make_unique<sim::CpuScheduler>(
        sim_, constants_.logical_cores, constants_.physical_cores,
        constants_.smt_penalty);
    storage::DatasetConfig cfg;
    cfg.num_rows = rows;
    cfg.rows_per_page = rpp;
    cfg.c2_domain = 1 << 24;
    cfg.index_leaf_fill = 64;
    auto ds = storage::BuildDataset(*disk_, cfg);
    PIOQO_CHECK(ds.ok());
    dataset_ = std::make_unique<storage::Dataset>(std::move(ds).value());
  }

  ExecContext Context() { return ExecContext{sim_, *cpu_, *pool_, constants_}; }

  RangePredicate PredicateFor(double sel) const {
    return RangePredicate{
        0, storage::C2UpperBoundForSelectivity(dataset_->c2_domain, sel)};
  }

  core::CostConstants constants_;
  sim::Simulator sim_;
  std::unique_ptr<io::Device> device_;
  std::unique_ptr<storage::DiskImage> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<sim::CpuScheduler> cpu_;
  std::unique_ptr<storage::Dataset> dataset_;
};

TEST_F(SortedScanTest, AgreesWithPlainIndexScan) {
  Build(io::DeviceKind::kSsdConsumer, 50000, 33, 1024);
  auto ctx = Context();
  for (double sel : {0.001, 0.05, 0.4}) {
    auto pred = PredicateFor(sel);
    EXPECT_TRUE(pool_->Clear().ok());
    auto is = RunScan(ctx, {.table = &dataset_->table,
                            .index = &dataset_->index_c2, .pred = pred,
                            .dop = 4});
    EXPECT_TRUE(pool_->Clear().ok());
    auto sis = RunScan(ctx, {.table = &dataset_->table,
                             .index = &dataset_->index_c2, .pred = pred,
                             .sorted = true, .dop = 4, .prefetch_depth = 8});
    EXPECT_EQ(is.rows_matched, sis.rows_matched) << "sel=" << sel;
    if (is.rows_matched > 0) {
      EXPECT_EQ(is.max_c1, sis.max_c1);
    }
    EXPECT_EQ(is.rows_examined, sis.rows_examined);
  }
}

TEST_F(SortedScanTest, FetchesEachPageAtMostOnce) {
  // The operator's defining property (Sec. 3.1), even with a pool far
  // smaller than the touched pages.
  Build(io::DeviceKind::kSsdConsumer, 33000, 33, 128);
  auto ctx = Context();
  auto pred = PredicateFor(0.8);
  EXPECT_TRUE(pool_->Clear().ok());
  auto sis = RunScan(ctx, {.table = &dataset_->table,
                           .index = &dataset_->index_c2, .pred = pred,
                           .sorted = true, .dop = 1});
  // Table pages read <= table size + index pages; with 80% selectivity a
  // plain IS re-fetches many times over.
  EXPECT_LE(sis.pool_misses, static_cast<uint64_t>(
                                 dataset_->table.num_pages() +
                                 dataset_->index_c2.num_pages() + 4));
  EXPECT_TRUE(pool_->Clear().ok());
  auto is = RunScan(ctx, {.table = &dataset_->table,
                          .index = &dataset_->index_c2, .pred = pred,
                          .dop = 1});
  EXPECT_GT(is.pool_misses, sis.pool_misses * 2);
}

TEST_F(SortedScanTest, BeatsPlainIsAtHighSelectivitySmallPool) {
  Build(io::DeviceKind::kSsdConsumer, 33000, 33, 128);
  auto ctx = Context();
  auto pred = PredicateFor(0.6);
  EXPECT_TRUE(pool_->Clear().ok());
  auto is = RunScan(ctx, {.table = &dataset_->table,
                          .index = &dataset_->index_c2, .pred = pred,
                          .dop = 4});
  EXPECT_TRUE(pool_->Clear().ok());
  auto sis = RunScan(ctx, {.table = &dataset_->table,
                           .index = &dataset_->index_c2, .pred = pred,
                           .sorted = true, .dop = 4, .prefetch_depth = 8});
  EXPECT_LT(sis.runtime_us, is.runtime_us);
}

TEST_F(SortedScanTest, EmptyRange) {
  Build(io::DeviceKind::kSsdConsumer, 5000, 33, 256);
  auto ctx = Context();
  auto sis = RunScan(ctx, {.table = &dataset_->table,
                           .index = &dataset_->index_c2,
                           .pred = RangePredicate{7, 3}, .sorted = true,
                           .dop = 4, .prefetch_depth = 4});
  EXPECT_EQ(sis.rows_matched, 0u);
  EXPECT_EQ(sis.rows_examined, 0u);
}

TEST_F(SortedScanTest, AscendingPageOrderHelpsHdd) {
  // Sorted fetch order turns random reads into a one-way elevator sweep,
  // which a spinning disk serves much faster.
  Build(io::DeviceKind::kHdd7200, 33000, 33, 4096);
  auto ctx = Context();
  auto pred = PredicateFor(0.1);
  EXPECT_TRUE(pool_->Clear().ok());
  auto is = RunScan(ctx, {.table = &dataset_->table,
                          .index = &dataset_->index_c2, .pred = pred,
                          .dop = 1});
  EXPECT_TRUE(pool_->Clear().ok());
  auto sis = RunScan(ctx, {.table = &dataset_->table,
                           .index = &dataset_->index_c2, .pred = pred,
                           .sorted = true, .dop = 1});
  EXPECT_LT(sis.runtime_us, is.runtime_us * 0.7);
}

TEST_F(SortedScanTest, CostModelPrefersSortedAtHighSelectivity) {
  core::QdttModel m({1, 1024, 1 << 20}, core::QdttModel::DefaultQdGrid());
  for (size_t b = 0; b < 3; ++b) {
    for (size_t q = 0; q < 6; ++q) {
      double qd = m.qd_grid()[q];
      double base = b == 0 ? 8.0 : 160.0;
      m.SetPoint(b, q, b == 0 ? base : base / qd + 5.0);
    }
  }
  core::CostModel cm(m, core::CostConstants{}, true);
  core::TableProfile t;
  t.table_pages = 16384;
  t.rows_per_page = 33;
  t.rows = 16384ull * 33;
  t.index_leaves = static_cast<uint32_t>(t.rows / 64);
  t.pool_pages = 512;  // small pool: plain IS re-fetches
  auto is = cm.CostIndexScan(t, 0.5, 8, 0);
  auto sis = cm.CostSortedIndexScan(t, 0.5, 8, 0);
  EXPECT_LT(sis.total_us, is.total_us);
  EXPECT_EQ(sis.method, core::AccessMethod::kSortedIs);
  EXPECT_EQ(core::AccessMethodName(core::AccessMethod::kSortedIs), "SIS");
}

}  // namespace
}  // namespace pioqo::exec
