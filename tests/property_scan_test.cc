// Property-based sweep over the scan-operator configuration space: every
// access method must return exactly the same answer as a brute-force
// reference, for every combination of device, row density, parallel degree,
// prefetch depth and selectivity — plus structural invariants on the I/O
// each method performs.

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "exec/scan_operators.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "storage/data_generator.h"

namespace pioqo::exec {
namespace {

struct ScanCase {
  io::DeviceKind device;
  uint32_t rows_per_page;
  int dop;
  int prefetch;
  double selectivity;
};

std::string CaseName(const ::testing::TestParamInfo<ScanCase>& info) {
  const auto& c = info.param;
  std::string name(io::DeviceKindName(c.device));
  name += "_rpp" + std::to_string(c.rows_per_page);
  name += "_dop" + std::to_string(c.dop);
  name += "_pf" + std::to_string(c.prefetch);
  name += "_sel" + std::to_string(static_cast<int>(c.selectivity * 100000));
  return name;
}

class ScanPropertyTest : public ::testing::TestWithParam<ScanCase> {
 protected:
  void SetUp() override {
    const ScanCase& c = GetParam();
    device_ = io::MakeDevice(sim_, c.device);
    disk_ = std::make_unique<storage::DiskImage>(*device_);
    pool_ = std::make_unique<storage::BufferPool>(*disk_, 1024);
    cpu_ = std::make_unique<sim::CpuScheduler>(
        sim_, constants_.logical_cores, constants_.physical_cores,
        constants_.smt_penalty);
    storage::DatasetConfig cfg;
    cfg.num_rows = 3000ull * c.rows_per_page;  // 3000 pages
    cfg.rows_per_page = c.rows_per_page;
    cfg.c2_domain = 1 << 22;
    cfg.index_leaf_fill = 64;
    cfg.seed = 9 + c.rows_per_page;
    auto ds = storage::BuildDataset(*disk_, cfg);
    PIOQO_CHECK(ds.ok());
    dataset_ = std::make_unique<storage::Dataset>(std::move(ds).value());
    pred_ = RangePredicate{
        0, storage::C2UpperBoundForSelectivity(cfg.c2_domain, c.selectivity)};
    reference_ = Reference();
  }

  struct Expected {
    int32_t max_c1 = 0;
    uint64_t matched = 0;
  };

  Expected Reference() const {
    Expected e;
    bool found = false;
    for (uint64_t n = 0; n < dataset_->table.num_rows(); ++n) {
      auto rid = dataset_->table.NthRowId(n);
      const char* page = disk_->PageData(rid.page);
      if (pred_.Matches(
              dataset_->table.GetColumn(page, rid.slot, storage::kColumnC2))) {
        int32_t c1 =
            dataset_->table.GetColumn(page, rid.slot, storage::kColumnC1);
        if (!found || c1 > e.max_c1) e.max_c1 = c1;
        found = true;
        ++e.matched;
      }
    }
    return e;
  }

  ExecContext Context() { return ExecContext{sim_, *cpu_, *pool_, constants_}; }

  void CheckAnswer(const ScanResult& r) {
    EXPECT_EQ(r.rows_matched, reference_.matched);
    if (reference_.matched > 0) {
      EXPECT_EQ(r.max_c1, reference_.max_c1);
    }
    EXPECT_GE(r.rows_examined, r.rows_matched);
    EXPECT_GT(r.runtime_us, 0.0);
  }

  core::CostConstants constants_;
  sim::Simulator sim_;
  std::unique_ptr<io::Device> device_;
  std::unique_ptr<storage::DiskImage> disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<sim::CpuScheduler> cpu_;
  std::unique_ptr<storage::Dataset> dataset_;
  RangePredicate pred_;
  Expected reference_;
};

TEST_P(ScanPropertyTest, FullTableScanMatchesReference) {
  auto ctx = Context();
  EXPECT_TRUE(pool_->Clear().ok());
  auto r = RunScan(ctx, {.table = &dataset_->table, .pred = pred_,
                         .dop = GetParam().dop});
  CheckAnswer(r);
  // FTS examines every row and reads every table page exactly once.
  EXPECT_EQ(r.rows_examined, dataset_->table.num_rows());
  EXPECT_EQ(r.bytes_read,
            static_cast<uint64_t>(dataset_->table.num_pages()) *
                storage::kPageSize);
}

TEST_P(ScanPropertyTest, IndexScanMatchesReference) {
  auto ctx = Context();
  EXPECT_TRUE(pool_->Clear().ok());
  auto r = RunScan(ctx, {.table = &dataset_->table,
                         .index = &dataset_->index_c2, .pred = pred_,
                         .dop = GetParam().dop,
                         .prefetch_depth = GetParam().prefetch});
  CheckAnswer(r);
  // IS examines only the qualifying rows.
  EXPECT_EQ(r.rows_examined, reference_.matched);
}

TEST_P(ScanPropertyTest, SortedIndexScanMatchesReference) {
  auto ctx = Context();
  EXPECT_TRUE(pool_->Clear().ok());
  auto r = RunScan(ctx, {.table = &dataset_->table,
                         .index = &dataset_->index_c2, .pred = pred_,
                         .sorted = true, .dop = GetParam().dop,
                         .prefetch_depth = GetParam().prefetch});
  CheckAnswer(r);
  EXPECT_EQ(r.rows_examined, reference_.matched);
  // Defining property: table pages fetched at most once each.
  EXPECT_LE(r.pool_misses,
            static_cast<uint64_t>(dataset_->table.num_pages() +
                                  dataset_->index_c2.num_pages() + 4));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScanPropertyTest,
    ::testing::Values(
        // Device x density coverage at a fixed moderate configuration.
        ScanCase{io::DeviceKind::kHdd7200, 33, 4, 4, 0.01},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 4, 4, 0.01},
        ScanCase{io::DeviceKind::kRaid8, 33, 4, 4, 0.01},
        ScanCase{io::DeviceKind::kSsdConsumer, 1, 4, 4, 0.05},
        ScanCase{io::DeviceKind::kSsdConsumer, 500, 4, 4, 0.001},
        // Parallel-degree sweep.
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 1, 0, 0.02},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 2, 0, 0.02},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 8, 0, 0.02},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 16, 0, 0.02},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 32, 0, 0.02},
        // Prefetch sweep.
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 1, 1, 0.02},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 1, 32, 0.02},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 4, 16, 0.02},
        // Selectivity extremes (empty, tiny, huge, everything).
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 4, 4, 0.0},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 4, 4, 0.0001},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 4, 4, 0.5},
        ScanCase{io::DeviceKind::kSsdConsumer, 33, 4, 4, 1.0},
        // HDD with deep parallelism and prefetch.
        ScanCase{io::DeviceKind::kHdd7200, 33, 32, 8, 0.005},
        // RAID with one row per page.
        ScanCase{io::DeviceKind::kRaid8, 1, 8, 8, 0.1}),
    CaseName);

}  // namespace
}  // namespace pioqo::exec
