#include <gtest/gtest.h>

#include "common/logging.h"
#include "db/database.h"

namespace pioqo::db {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.device = io::DeviceKind::kSsdConsumer;
    options.pool_pages = 4096;
    options.calibration.max_pages_per_point = 400;
    db_ = std::make_unique<Database>(options);
    storage::DatasetConfig cfg;
    cfg.name = "t";
    cfg.num_rows = 200000;
    cfg.rows_per_page = 33;
    cfg.c2_domain = 1 << 24;
    cfg.index_leaf_fill = 64;
    PIOQO_CHECK_OK(db_->CreateTable(cfg));
  }

  exec::RangePredicate Pred(double sel) const {
    return exec::RangePredicate{
        0, storage::C2UpperBoundForSelectivity(1 << 24, sel)};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ConcurrencyTest, ResultsMatchSerialExecution) {
  auto serial = db_->ExecuteScan("t", Pred(0.02), core::AccessMethod::kPis, 4,
                                 0, true);
  ASSERT_TRUE(serial.ok());

  std::vector<Database::ConcurrentScanSpec> specs(3);
  specs[0] = {"t", Pred(0.02), core::AccessMethod::kPis, 4, 0};
  specs[1] = {"t", Pred(0.02), core::AccessMethod::kFts, 2, 0};
  specs[2] = {"t", Pred(0.02), core::AccessMethod::kSortedIs, 2, 4};
  auto results = db_->ExecuteConcurrentScans(specs, true);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  for (const auto& r : *results) {
    EXPECT_EQ(r.rows_matched, serial->rows_matched);
    EXPECT_EQ(r.max_c1, serial->max_c1);
    EXPECT_GT(r.runtime_us, 0.0);
  }
}

TEST_F(ConcurrencyTest, ConcurrentStreamsShareTheDevice) {
  // Two index scans over *disjoint* key ranges racing: each runs slower
  // than alone, but the pair finishes faster than back-to-back (queue
  // depths compose). Disjoint ranges keep the buffer pool from sharing
  // pages between the streams.
  const int32_t span = storage::C2UpperBoundForSelectivity(1 << 24, 0.05);
  const exec::RangePredicate first{0, span};
  const exec::RangePredicate second{(1 << 23), (1 << 23) + span};
  // dop 32 each: together they over-subscribe the SSD's 32 NCQ slots, so
  // the streams genuinely contend (at low total depth the SSD's internal
  // parallelism absorbs both streams without interference).
  auto alone =
      db_->ExecuteScan("t", first, core::AccessMethod::kPis, 32, 0, true);
  ASSERT_TRUE(alone.ok());

  std::vector<Database::ConcurrentScanSpec> specs(2);
  specs[0] = {"t", first, core::AccessMethod::kPis, 32, 0};
  specs[1] = {"t", second, core::AccessMethod::kPis, 32, 0};
  auto results = db_->ExecuteConcurrentScans(specs, true);
  ASSERT_TRUE(results.ok());
  double slowest = std::max((*results)[0].runtime_us, (*results)[1].runtime_us);
  EXPECT_GT(slowest, alone->runtime_us * 1.05);          // interference
  EXPECT_LT(slowest, alone->runtime_us * 2.0);           // but real overlap
  // The mix performed both streams' device work in the shared interval.
  EXPECT_GT((*results)[0].device_reads, alone->device_reads * 3 / 2);
}

TEST_F(ConcurrencyTest, RejectsBadSpecs) {
  std::vector<Database::ConcurrentScanSpec> specs(1);
  specs[0] = {"missing", Pred(0.1), core::AccessMethod::kFts, 1, 0};
  EXPECT_FALSE(db_->ExecuteConcurrentScans(specs, true).ok());
  specs[0] = {"t", Pred(0.1), core::AccessMethod::kFts, 999, 0};
  EXPECT_FALSE(db_->ExecuteConcurrentScans(specs, true).ok());
  // A negative prefetch depth is a bad plan, not a process abort.
  for (auto method : {core::AccessMethod::kFts, core::AccessMethod::kPis,
                      core::AccessMethod::kSortedIs}) {
    specs[0] = {"t", Pred(0.1), method, 4, -1};
    auto results = db_->ExecuteConcurrentScans(specs, true);
    EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ConcurrencyTest, EmptyWorkload) {
  auto results = db_->ExecuteConcurrentScans({}, true);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST_F(ConcurrencyTest, OptimizerDividesQueueBudgetAcrossStreams) {
  db_->Calibrate();
  opt::OptimizerOptions solo;
  opt::OptimizerOptions shared;
  shared.concurrent_streams = 8;
  opt::Optimizer solo_opt(db_->qdtt(), core::CostConstants{}, solo);
  opt::Optimizer shared_opt(db_->qdtt(), core::CostConstants{}, shared);
  auto table = db_->GetTable("t");
  ASSERT_TRUE(table.ok());
  auto profile = db_->ProfileFor(**table);
  // With the whole device to itself the optimizer reaches for deep
  // parallelism; with 8 concurrent streams the same plan's I/O no longer
  // gets the full queue-depth discount, so its estimated cost is higher.
  auto alone = solo_opt.ChooseAccessPath(profile, 0.01);
  auto contended = shared_opt.ChooseAccessPath(profile, 0.01);
  EXPECT_GT(contended.chosen.total_us, alone.chosen.total_us * 1.5);
}

}  // namespace
}  // namespace pioqo::db
