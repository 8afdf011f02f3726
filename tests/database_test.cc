#include "db/database.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/experiment_config.h"

namespace pioqo::db {
namespace {

DatabaseOptions SmallSsd() {
  DatabaseOptions opts;
  opts.device = io::DeviceKind::kSsdConsumer;
  opts.pool_pages = 1024;
  opts.calibration.max_pages_per_point = 400;
  opts.calibration.band_grid = {1, 512, 65536, 1 << 22};
  return opts;
}

storage::DatasetConfig SmallTable(const std::string& name, uint64_t rows,
                                  uint32_t rpp) {
  storage::DatasetConfig cfg;
  cfg.name = name;
  cfg.num_rows = rows;
  cfg.rows_per_page = rpp;
  cfg.c2_domain = 1 << 24;
  return cfg;
}

TEST(DatabaseTest, CreateAndGetTable) {
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 10000, 33)).ok());
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->table.num_rows(), 10000u);
  EXPECT_FALSE(db.GetTable("missing").ok());
  EXPECT_FALSE(db.CreateTable(SmallTable("t", 1, 1)).ok());  // duplicate
}

TEST(DatabaseTest, SelectivityMatchesPredicate) {
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 50000, 33)).ok());
  auto sel = db.SelectivityOf(
      "t", exec::RangePredicate{
               0, storage::C2UpperBoundForSelectivity(1 << 24, 0.2)});
  ASSERT_TRUE(sel.ok());
  EXPECT_NEAR(*sel, 0.2, 0.02);
  auto empty = db.SelectivityOf("t", exec::RangePredicate{5, 1});
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(*empty, 0.0);
}

TEST(DatabaseTest, QueryRequiresCalibration) {
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 10000, 33)).ok());
  auto outcome = db.ExecuteQuery("t", exec::RangePredicate{0, 100}, true, true);
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DatabaseTest, CalibrateInstallsModel) {
  Database db(SmallSsd());
  EXPECT_FALSE(db.calibrated());
  auto result = db.Calibrate();
  EXPECT_TRUE(db.calibrated());
  EXPECT_TRUE(result.model.complete());
  EXPECT_TRUE(db.qdtt().complete());
}

TEST(DatabaseTest, InstallModelRejectsIncompleteGrid) {
  // A persisted model that leaves out grid point (8, 2) deserializes, but
  // installing it fails and keeps the installed model and cached plans.
  auto partial =
      core::QdttModel::Deserialize("qdtt v1\n1 1 100\n1 2 90\n8 1 120\n");
  ASSERT_TRUE(partial.ok());
  ASSERT_FALSE(partial->complete());

  Database db(SmallSsd());
  EXPECT_EQ(db.InstallModel(*partial).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.calibrated());

  ASSERT_TRUE(db.CreateTable(SmallTable("t", 10000, 33)).ok());
  const std::string calibrated = db.Calibrate().model.Serialize();
  ASSERT_TRUE(db.ExecuteQuery("t", exec::RangePredicate{0, 100}, true, true)
                  .ok());
  const size_t cached_plans = db.plan_cache()->size();
  ASSERT_GE(cached_plans, 1u);
  EXPECT_EQ(db.InstallModel(*partial).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.qdtt().Serialize(), calibrated);
  EXPECT_EQ(db.plan_cache()->size(), cached_plans);
}

TEST(DatabaseTest, ForcedScansAgree) {
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 30000, 33)).ok());
  exec::RangePredicate pred{0,
                            storage::C2UpperBoundForSelectivity(1 << 24, 0.1)};
  auto fts = db.ExecuteScan("t", pred, core::AccessMethod::kFts, 1, 0, true);
  auto pis = db.ExecuteScan("t", pred, core::AccessMethod::kPis, 8, 4, true);
  ASSERT_TRUE(fts.ok());
  ASSERT_TRUE(pis.ok());
  EXPECT_EQ(fts->rows_matched, pis->rows_matched);
  EXPECT_EQ(fts->max_c1, pis->max_c1);
}

TEST(DatabaseTest, RejectsBadParallelDegree) {
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 1000, 33)).ok());
  EXPECT_FALSE(
      db.ExecuteScan("t", {0, 10}, core::AccessMethod::kFts, 0, 0, true).ok());
  EXPECT_FALSE(
      db.ExecuteScan("t", {0, 10}, core::AccessMethod::kFts, 64, 0, true).ok());
}

TEST(DatabaseTest, RejectsNegativePrefetchDepth) {
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 1000, 33)).ok());
  auto result =
      db.ExecuteScan("t", {0, 10}, core::AccessMethod::kPis, 4, -1, true);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, OptimizedQueryRunsChosenPlan) {
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 100000, 33)).ok());
  db.Calibrate();
  exec::RangePredicate pred{
      0, storage::C2UpperBoundForSelectivity(1 << 24, 0.01)};
  auto outcome = db.ExecuteQuery("t", pred, /*queue_depth_aware=*/true, true);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->scan.rows_matched, 0u);
  EXPECT_FALSE(outcome->optimization.considered.empty());
}

TEST(DatabaseTest, QdttChoiceBeatsDttChoiceOnSsd) {
  // The end-to-end Fig. 8 property, in miniature: at a selectivity inside
  // the shifted break-even region, the QDTT optimizer's plan runs faster
  // than the DTT optimizer's plan.
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 330000, 33)).ok());
  db.Calibrate();
  exec::RangePredicate pred{
      0, storage::C2UpperBoundForSelectivity(1 << 24, 0.02)};
  auto old_opt = db.ExecuteQuery("t", pred, /*queue_depth_aware=*/false, true);
  auto new_opt = db.ExecuteQuery("t", pred, /*queue_depth_aware=*/true, true);
  ASSERT_TRUE(old_opt.ok());
  ASSERT_TRUE(new_opt.ok());
  EXPECT_EQ(old_opt->scan.rows_matched, new_opt->scan.rows_matched);
  EXPECT_LT(new_opt->scan.runtime_us, old_opt->scan.runtime_us);
  // And the new optimizer picked a parallel plan.
  EXPECT_GT(new_opt->optimization.chosen.dop, 1);
  EXPECT_EQ(old_opt->optimization.chosen.dop, 1);
}

TEST(DatabaseTest, HddNeedleQueryPrefetches) {
  // The HDD gains nothing from queue depth 1 to 2 but reorders deeper
  // queues (NCQ), so a calibration that sees qd 32 lets the optimizer pick
  // a prefetching plan for a needle query on the E33 table, where a model
  // that only saw qd 1-2 picks the serial index scan.
  const ExperimentConfig config{"E33", "T33", 33, io::DeviceKind::kHdd7200,
                                8192};
  DatabaseOptions options;
  options.device = config.device;
  Database db(options);
  ASSERT_TRUE(db.CreateTable(config.DatasetConfigFor()).ok());
  db.Calibrate();
  const exec::RangePredicate pred{
      0, storage::C2UpperBoundForSelectivity(
             config.DatasetConfigFor().c2_domain, 0.00005)};
  opt::OptimizerOptions planner;
  planner.prefetch_depths = {0, 8};
  // Calibration leaves the head far from the table. A first scan brings it
  // back, so both timed runs below start from the same place.
  ASSERT_TRUE(db.ExecuteScan("T33", pred, core::AccessMethod::kIs, 1, 0,
                             /*flush_pool=*/true)
                  .ok());
  auto planned = db.ExecuteQuery("T33", pred, /*queue_depth_aware=*/true,
                                 /*flush_pool=*/true, planner);
  auto is = db.ExecuteScan("T33", pred, core::AccessMethod::kIs, 1, 0,
                           /*flush_pool=*/true);
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(is.ok());
  EXPECT_EQ(planned->scan.rows_matched, is->rows_matched);
  EXPECT_GT(planned->optimization.chosen.prefetch_depth, 0)
      << planned->optimization.chosen.ToString();
  EXPECT_LE(planned->scan.runtime_us, 0.6 * is->runtime_us);
}

TEST(DatabaseTest, HealthMonitorBaselineComesFromCalibratedModel) {
  // Enabling the monitor on a calibrated database without an explicit
  // baseline derives it from the model: whole-device band, queue depth 1.
  Database db(SmallSsd());
  db.Calibrate();
  db.EnableHealthMonitor();
  const double capacity_pages = static_cast<double>(
      db.device().capacity_bytes() / storage::kPageSize);
  EXPECT_EQ(db.health_monitor()->options().expected_read_latency_us,
            db.qdtt().Lookup(capacity_pages, 1.0));
}

TEST(DatabaseTest, UncalibratedMonitorWithoutBaselineStaysObserveOnly) {
  // A monitor enabled before calibration with no baseline only observes: a
  // later Calibrate() does not give it one, so even a device serving at 8x
  // its calibrated latency never reads as degraded.
  DatabaseOptions options = SmallSsd();
  io::FaultConfig faults;
  faults.phases.push_back(io::FaultPhase{0.0, 1e12, 8.0, 0.0});
  options.faults = faults;
  Database db(options);
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 30000, 33)).ok());
  db.EnableHealthMonitor();
  db.Calibrate();
  EXPECT_EQ(db.health_monitor()->options().expected_read_latency_us, 0.0);

  exec::RangePredicate pred{0,
                            storage::C2UpperBoundForSelectivity(1 << 24, 0.1)};
  auto scan = db.ExecuteScan("t", pred, core::AccessMethod::kPis, 8, 0, true);
  ASSERT_TRUE(scan.ok());
  EXPECT_GE(db.health_monitor()->samples(),
            db.health_monitor()->options().min_samples);
  EXPECT_FALSE(db.health_monitor()->degraded());
  EXPECT_EQ(db.device().stats().degraded_clamps(), 0u);
}

TEST(DatabaseTest, DriftObservationIsChargedAtTheGrantedDop) {
  // A query planned at 8 workers but admitted with 2 runs the device at
  // depth 2, so drift defense charges its runtime to the qd-2 cell.
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 30000, 33)).ok());
  db.Calibrate();
  AdmissionOptions admission;
  admission.max_total_dop = 2;
  db.EnableAdmissionControl(admission);
  db.EnableDriftDefense();

  Database::QueryRequest req;
  req.scan.table = "t";
  req.scan.pred = {0, storage::C2UpperBoundForSelectivity(1 << 24, 1.0)};
  req.use_optimizer = true;
  req.optimizer.parallel_degrees = {8};
  req.arrival_us = db.simulator().Now();
  auto report = db.RunWorkload({req}, /*flush_pool=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Database::QueryReport& query = report->queries[0];
  ASSERT_TRUE(query.status.ok()) << query.status.ToString();
  ASSERT_EQ(query.planned_method, core::AccessMethod::kPfts);
  EXPECT_EQ(query.planned_dop, 8);
  EXPECT_EQ(query.granted_dop, 2);

  // A table scan reads band 1, the grid's first row.
  const core::DriftDetector& detector = db.drift_defense()->detector();
  const std::vector<int>& qds = detector.qd_grid();
  const auto qd_idx = [&](int qd) {
    return static_cast<size_t>(std::find(qds.begin(), qds.end(), qd) -
                               qds.begin());
  };
  EXPECT_EQ(db.drift_defense()->stats().observations, 1u);
  EXPECT_EQ(detector.CellSamples(0, qd_idx(2)), 1u);
  EXPECT_EQ(detector.CellSamples(0, qd_idx(8)), 0u);
}

TEST(DatabaseTest, DriftDefenseRefreshesOneRowOfAnInstalledGrid) {
  // The refresh measures the grid the live model is defined on, here an
  // installed model's own bands rather than the device default: drift in
  // one band's cells re-measures that row at every queue depth and leaves
  // the other rows as installed.
  Database db(SmallSsd());
  ASSERT_TRUE(db.CreateTable(SmallTable("t", 10000, 33)).ok());
  core::QdttModel installed({1, 64, 4096}, core::QdttModel::DefaultQdGrid());
  for (size_t b = 0; b < installed.num_bands(); ++b) {
    for (size_t q = 0; q < installed.num_qds(); ++q) {
      installed.SetPoint(b, q, 100.0 * static_cast<double>(b + 1));
    }
  }
  ASSERT_TRUE(db.InstallModel(installed).ok());
  DriftDefenseOptions options;
  options.calibrator.calibration.max_pages_per_point = 200;
  options.calibrator.poll_interval_us = 5'000.0;
  options.calibrator.idle_threshold_us = 10'000.0;
  db.EnableDriftDefense(options);
  DriftDefense& defense = *db.drift_defense();

  // An I/O-dominated plan priced at band 64, queue depth 4: min_samples
  // runs learn the cell's reference, then as many at 4x cross drift_ratio.
  core::PlanCandidate plan;
  plan.band_pages = 64.0;
  plan.queue_depth = 4.0;
  plan.io_us = 900.0;
  plan.cpu_us = 100.0;
  plan.total_us = 1000.0;
  const uint64_t min_samples = options.detector.min_samples;
  for (uint64_t i = 0; i < min_samples; ++i) defense.ObserveQuery(plan, 1e3);
  for (uint64_t i = 0; i < min_samples; ++i) defense.ObserveQuery(plan, 4e3);
  ASSERT_EQ(defense.stats().recalibrations_triggered, 1u);
  const uint64_t generation = db.qdtt().generation();
  db.simulator().Run();

  const core::QdttModel& live = db.qdtt();
  EXPECT_EQ(defense.stats().recalibrations_completed, 1u);
  EXPECT_EQ(defense.stats().points_merged, live.num_qds());
  EXPECT_EQ(live.generation(), generation + live.num_qds());
  for (size_t b = 0; b < live.num_bands(); ++b) {
    for (size_t q = 0; q < live.num_qds(); ++q) {
      if (b == 1) continue;
      EXPECT_EQ(live.PointAt(b, q), installed.PointAt(b, q))
          << "b=" << b << " q=" << q;
    }
  }
  EXPECT_EQ(defense.confidence(), 1.0);
}

TEST(DatabaseDeathTest, EnableHealthMonitorTwiceDies) {
  // The monitor is enable-once: a second one would be left deaf when the
  // first one's destructor uninstalls the device's completion observer.
  EXPECT_DEATH(
      {
        Database db(SmallSsd());
        db.EnableHealthMonitor();
        db.EnableHealthMonitor();
      },
      "health monitor already enabled");
}

TEST(DatabaseDeathTest, EnableAdmissionControlTwiceDies) {
  // A second controller would free the one drift defense's probe gate
  // still points at.
  EXPECT_DEATH(
      {
        Database db(SmallSsd());
        db.EnableAdmissionControl();
        db.EnableAdmissionControl();
      },
      "admission control already enabled");
}

TEST(DatabaseDeathTest, EnableDriftDefenseTwiceDies) {
  // A second defense would drop the detector's learned state.
  EXPECT_DEATH(
      {
        Database db(SmallSsd());
        db.Calibrate();
        db.EnableDriftDefense();
        db.EnableDriftDefense();
      },
      "drift defense already enabled");
}

TEST(DatabaseDeathTest, EnableHealthMonitorAfterAdmissionDies) {
  // Admission copies the monitor pointer when it is enabled: a later
  // monitor would clamp scans but never admission.
  EXPECT_DEATH(
      {
        Database db(SmallSsd());
        db.EnableAdmissionControl();
        db.EnableHealthMonitor();
      },
      "EnableHealthMonitor\\(\\) after EnableAdmissionControl");
}

TEST(DatabaseDeathTest, EnableAdmissionControlAfterDriftDefenseDies) {
  // The defense builds its probe gate from the controller when it is
  // enabled: a later controller would leave it without busy probes.
  EXPECT_DEATH(
      {
        Database db(SmallSsd());
        db.Calibrate();
        db.EnableDriftDefense();
        db.EnableAdmissionControl();
      },
      "EnableAdmissionControl\\(\\) after EnableDriftDefense");
}

TEST(DatabaseDeathTest, CalibrateAfterDriftDefenseDies) {
  // The defense plans from and recalibrates into the live model, and its
  // detector's per-cell references were learned against that model.
  EXPECT_DEATH(
      {
        Database db(SmallSsd());
        db.Calibrate();
        db.EnableDriftDefense();
        db.Calibrate();
      },
      "Calibrate\\(\\) after EnableDriftDefense");
}

TEST(DatabaseDeathTest, InstallModelAfterDriftDefenseDies) {
  EXPECT_DEATH(
      {
        Database db(SmallSsd());
        core::QdttModel model = db.Calibrate().model;
        db.EnableDriftDefense();
        (void)db.InstallModel(std::move(model));
      },
      "InstallModel\\(\\) after EnableDriftDefense");
}

TEST(ExperimentConfigTest, TableOneHasSixConfigs) {
  auto configs = PaperExperimentConfigs();
  ASSERT_EQ(configs.size(), 6u);
  int hdd = 0, ssd = 0;
  for (const auto& c : configs) {
    if (c.device == io::DeviceKind::kHdd7200) ++hdd;
    if (c.device == io::DeviceKind::kSsdConsumer) ++ssd;
    EXPECT_GT(c.num_rows(), 0u);
  }
  EXPECT_EQ(hdd, 3);
  EXPECT_EQ(ssd, 3);
}

TEST(ExperimentConfigTest, LookupAndScale) {
  auto full = PaperExperimentConfig("E33-SSD");
  EXPECT_EQ(full.rows_per_page, 33u);
  EXPECT_EQ(full.device, io::DeviceKind::kSsdConsumer);
  auto small = PaperExperimentConfig("E33-SSD", 0.1);
  EXPECT_LT(small.data_pages, full.data_pages);
  EXPECT_NEAR(static_cast<double>(small.data_pages) / full.data_pages, 0.1,
              0.02);
}

}  // namespace
}  // namespace pioqo::db
