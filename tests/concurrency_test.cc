#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "db/database.h"
#include "io/device_factory.h"
#include "soak_test_util.h"

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
    // Unlimited caps: every query is admitted on arrival at its own DOP.
    db_->EnableAdmissionControl(
        {.max_concurrent_queries = std::numeric_limits<int>::max(),
         .max_total_dop = std::numeric_limits<int>::max()});
  }

  exec::RangePredicate Pred(double sel) const {
    return exec::RangePredicate{
        0, storage::C2UpperBoundForSelectivity(1 << 24, sel)};
  }

  /// Runs `scans` through RunWorkload on a flushed pool, all arriving now.
  StatusOr<Database::WorkloadReport> RunMix(
      const std::vector<Database::ConcurrentScanSpec>& scans) {
    std::vector<Database::QueryRequest> requests(scans.size());
    for (size_t i = 0; i < scans.size(); ++i) {
      requests[i].scan = scans[i];
      requests[i].arrival_us = db_->simulator().Now();
    }
    return db_->RunWorkload(requests, /*flush_pool=*/true);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ConcurrencyTest, ResultsMatchSerialExecution) {
  auto serial = db_->ExecuteScan("t", Pred(0.02), core::AccessMethod::kPis, 4,
                                 0, true);
  ASSERT_TRUE(serial.ok());

  auto report = RunMix({{"t", Pred(0.02), core::AccessMethod::kPis, 4, 0},
                        {"t", Pred(0.02), core::AccessMethod::kFts, 2, 0},
                        {"t", Pred(0.02), core::AccessMethod::kSortedIs, 2, 4}});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->queries.size(), 3u);
  for (const auto& q : report->queries) {
    EXPECT_EQ(q.terminal, Database::QueryTerminal::kCompleted)
        << q.status.ToString();
    EXPECT_EQ(q.rows_matched, serial->rows_matched);
    EXPECT_EQ(q.max_c1, serial->max_c1);
    EXPECT_GT(q.latency_us, 0.0);
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

  const uint64_t reads_before = db_->device().stats().reads();
  auto report = RunMix({{"t", first, core::AccessMethod::kPis, 32, 0},
                        {"t", second, core::AccessMethod::kPis, 32, 0}});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->completed, 2u);
  const double slowest = std::max(report->queries[0].latency_us,
                                  report->queries[1].latency_us);
  EXPECT_GT(slowest, alone->runtime_us * 1.05);          // interference
  EXPECT_LT(slowest, alone->runtime_us * 2.0);           // but real overlap
  // The mix performed both streams' device work in the shared interval.
  const uint64_t mix_reads = db_->device().stats().reads() - reads_before;
  EXPECT_GT(mix_reads, alone->device_reads * 3 / 2);
}

TEST_F(ConcurrencyTest, RejectsBadSpecs) {
  EXPECT_FALSE(
      RunMix({{"missing", Pred(0.1), core::AccessMethod::kFts, 1, 0}}).ok());
  EXPECT_FALSE(RunMix({{"t", Pred(0.1), core::AccessMethod::kFts, 999, 0}}).ok());
  // A negative prefetch depth is a bad plan, not a process abort.
  for (auto method : {core::AccessMethod::kFts, core::AccessMethod::kPis,
                      core::AccessMethod::kSortedIs}) {
    EXPECT_EQ(RunMix({{"t", Pred(0.1), method, 4, -1}}).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(ConcurrencyTest, EmptyWorkload) {
  auto report = RunMix({});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->queries.empty());
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

// --- Forced and planned scans overlapping under admission ------------------
//
// An open-loop mix through RunWorkload with default admission (8 queries,
// 32 DOP): forced FTS/PFTS/IS/PIS plans interleaved with optimizer-planned
// arrivals, cycling from full-table to needle selectivities. The 512-frame
// pool is smaller than the table plus its index, so scans evict, prefetches
// race demand fetches and the index scans touch cold pages while several
// queries run at once, some of them queued or on partial DOP grants.

storage::DatasetConfig MixTable() {
  storage::DatasetConfig config;
  config.name = "T";
  config.num_rows = 33 * 512;  // 512 data pages
  return config;
}

/// Arrival spacing matched to device speed, close enough that six to eight
/// queries run at once and some queue. On the HDD, whose calibration
/// measures the deep queues, the planned scans pick PFTS2 often enough that
/// at 30 ms no query queued; at 20 ms two queue and three get partial DOP.
double MixSpacingUs(io::DeviceKind kind) {
  switch (kind) {
    case io::DeviceKind::kHdd7200:
      return 20'000.0;
    case io::DeviceKind::kRaid8:
      return 5'000.0;
    default:
      return 1'000.0;
  }
}

std::vector<Database::QueryRequest> MixRequests(double start_us,
                                                double spacing_us,
                                                size_t count) {
  auto pred = [](double sel) {
    return exec::RangePredicate{
        0, storage::C2UpperBoundForSelectivity(MixTable().c2_domain, sel)};
  };
  std::vector<Database::QueryRequest> requests(count);
  for (size_t i = 0; i < count; ++i) {
    Database::QueryRequest& req = requests[i];
    switch (i % 8) {
      case 0:
        req.scan = {"T", pred(1.0), core::AccessMethod::kFts, 1, 0};
        break;
      case 1:
        req.scan = {"T", pred(1.0), core::AccessMethod::kPfts, 8, 0};
        break;
      case 2:
        req.scan = {"T", pred(0.02), core::AccessMethod::kIs, 1, 0};
        break;
      case 3:
        req.scan = {"T", pred(0.10), core::AccessMethod::kPis, 8, 8};
        break;
      case 6:
        req.scan = {"T", pred(0.05), core::AccessMethod::kPis, 16, 4};
        break;
      default: {  // 4, 5, 7: planned at arrival
        const double sel = i % 8 == 4 ? 0.30 : i % 8 == 5 ? 0.01 : 0.10;
        req.scan = {"T", pred(sel), core::AccessMethod::kFts, 1, 0};
        req.use_optimizer = true;
        break;
      }
    }
    req.arrival_us = start_us + static_cast<double>(i) * spacing_us;
  }
  return requests;
}

class MixedWorkloadTest : public ::testing::TestWithParam<io::DeviceKind> {};

TEST_P(MixedWorkloadTest, OverlappingForcedAndPlannedScansAreExact) {
  DatabaseOptions options;
  options.device = GetParam();
  options.pool_pages = 512;
  options.calibration.max_pages_per_point = 256;
  Database db(options);
  PIOQO_CHECK_OK(db.CreateTable(MixTable()));
  db.Calibrate();
  db.EnableAdmissionControl();

  const std::vector<Database::QueryRequest> requests =
      MixRequests(db.simulator().Now() + 1'000.0, MixSpacingUs(GetParam()),
                  /*count=*/3 * 8);
  auto report = db.RunWorkload(requests, /*flush_pool=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->completed, requests.size());
  EXPECT_EQ(report->failed, 0u);
  EXPECT_GT(report->admission.peak_running, 1);     // the queries overlapped,
  EXPECT_GT(report->admission.peak_queued, 0u);      // some waited
  EXPECT_GT(report->admission.partial_grants, 0u);   // and some got less DOP
  for (size_t i = 0; i < requests.size(); ++i) {
    const Database::QueryReport& q = report->queries[i];
    ASSERT_TRUE(q.status.ok()) << "query " << i << ": " << q.status.ToString();
    auto sel = db.SelectivityOf("T", requests[i].scan.pred);
    ASSERT_TRUE(sel.ok());
    const auto exact = static_cast<uint64_t>(
        std::llround(*sel * static_cast<double>(MixTable().num_rows)));
    EXPECT_EQ(q.rows_matched, exact) << "query " << i;
  }

  testing::ExpectDrained(db, "mixed workload");
}

INSTANTIATE_TEST_SUITE_P(AllDevices, MixedWorkloadTest,
                         testing::Devices(), testing::DeviceName);

}  // namespace
}  // namespace pioqo::db
