#include "core/calibrator.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "calibration_test_util.h"
#include "io/device_factory.h"
#include "io/hdd_device.h"
#include "io/raid_device.h"
#include "io/ssd_device.h"
#include "sim/simulator.h"

namespace pioqo::core {
namespace {

CalibratorOptions FastOptions() {
  CalibratorOptions opts;
  opts.band_grid = {1, 512, 65536, 1 << 22};
  opts.max_pages_per_point = 512;
  opts.repetitions = 1;
  return opts;
}

TEST(CalibratorTest, SsdCalibrationCompletesGrid) {
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  Calibrator cal(sim, ssd, FastOptions());
  auto result = cal.Calibrate();
  EXPECT_TRUE(result.model.complete());
  // SSD benefits from queue depth: every grid point should be measured,
  // none defaulted by the early-stop rule.
  EXPECT_EQ(result.points_defaulted, 0);
  EXPECT_EQ(result.points_measured, 4 * 6);
  EXPECT_GT(result.calibration_time_us, 0.0);
}

TEST(CalibratorTest, SsdCostsFallWithQueueDepth) {
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  Calibrator cal(sim, ssd, FastOptions());
  auto result = cal.Calibrate();
  const auto& m = result.model;
  // At the largest band, each doubling of queue depth should cut the
  // amortized cost substantially (Fig. 7).
  for (size_t q = 1; q < m.num_qds(); ++q) {
    EXPECT_LT(m.PointAt(3, q), m.PointAt(3, q - 1) * 0.75) << "qd idx " << q;
  }
  // QD32 is an order of magnitude cheaper than QD1.
  EXPECT_LT(m.PointAt(3, 5), m.PointAt(3, 0) / 10.0);
}

TEST(CalibratorTest, SsdBandSizeMattersButMildly) {
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  Calibrator cal(sim, ssd, FastOptions());
  auto result = cal.Calibrate();
  const auto& m = result.model;
  // Sequential (band 1) is cheapest; large bands cost more but within a
  // small factor (paper: the impact "is not as serious as ... on ...
  // single-spindle hard disk drives").
  EXPECT_LT(m.PointAt(0, 0), m.PointAt(3, 0));
  EXPECT_LT(m.PointAt(3, 0) / m.PointAt(1, 0), 16.0);
}

TEST(CalibratorTest, HddEarlyStopAnchorsAtTheDeepestQueue) {
  sim::Simulator sim;
  io::HddDevice hdd(sim, io::HddGeometry::Commodity7200());
  Calibrator cal(sim, hdd, FastOptions());
  auto result = cal.Calibrate();
  const QdttModel& m = result.model;
  ASSERT_TRUE(m.complete());
  // Without NCQ's reordering (three or more queued) qd 2 gains nothing, so
  // the T test fires there; the qd-32 anchor gains far more than T, so the
  // whole qd-32 column is measured and the rest filled (Sec. 4.6 + anchor).
  EXPECT_EQ(result.points_measured, 9);
  EXPECT_EQ(result.points_defaulted, 4 * 6 - 9);
  EXPECT_LT(m.PointAt(3, 5), m.PointAt(3, 1) * (1.0 - kEarlyStopThreshold));

  QdttModel replay(m.band_grid(), m.qd_grid());
  testing::PointSet expected = {{3, 1}};
  for (size_t b = 0; b < 4; ++b) {
    expected.emplace(b, 0);
    expected.emplace(b, 5);
  }
  EXPECT_EQ(testing::MeasuredPoints(m, &replay), expected);
  // Each filled point lies between its band's last measured cost and its
  // anchor.
  for (size_t b = 0; b < 4; ++b) {
    const size_t last = b == 3 ? 1 : 0;
    const double lo = std::min(m.PointAt(b, last), m.PointAt(b, 5));
    const double hi = std::max(m.PointAt(b, last), m.PointAt(b, 5));
    for (size_t q = last + 1; q < 5; ++q) {
      EXPECT_EQ(replay.PointAt(b, q), m.PointAt(b, q)) << b << "," << q;
      EXPECT_GE(m.PointAt(b, q), lo * (1.0 - 1e-12)) << b << "," << q;
      EXPECT_LE(m.PointAt(b, q), hi * (1.0 + 1e-12)) << b << "," << q;
    }
  }
}

TEST(CalibratorTest, HddWithoutNcqStopsAtTheFirstDoubling) {
  // Sec. 4.6's weak-device path: without command reordering the anchor
  // misses too, and every skipped point gets the qd-1 default.
  sim::Simulator sim;
  io::HddGeometry geometry = io::HddGeometry::Commodity7200();
  geometry.ncq_depth = 1;
  io::HddDevice hdd(sim, geometry);
  Calibrator cal(sim, hdd, FastOptions());
  auto result = cal.Calibrate();
  const QdttModel& m = result.model;
  ASSERT_TRUE(m.complete());
  EXPECT_EQ(result.points_measured, 6);
  EXPECT_EQ(result.points_defaulted, 4 * 6 - 6);

  QdttModel replay(m.band_grid(), m.qd_grid());
  testing::PointSet measured = testing::MeasuredPoints(m, &replay);
  EXPECT_EQ(measured, (testing::PointSet{
                          {0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 1}, {3, 5}}));
  for (size_t b = 0; b < 4; ++b) {
    for (size_t q = 1; q < 6; ++q) {
      if (measured.count({b, q}) > 0) continue;
      EXPECT_EQ(m.PointAt(b, q), m.PointAt(b, 0) * kEarlyStopDefaultFactor)
          << b << "," << q;
    }
  }
}

TEST(CalibratorTest, HddCalibrationFasterThanWithoutEarlyStop) {
  sim::Simulator sim;
  io::HddDevice hdd(sim, io::HddGeometry::Commodity7200());
  auto opts = FastOptions();
  Calibrator cal(sim, hdd, opts);
  auto with_stop = cal.Calibrate();

  sim::Simulator sim2;
  io::HddDevice hdd2(sim2, io::HddGeometry::Commodity7200());
  opts.early_stop = false;
  Calibrator cal2(sim2, hdd2, opts);
  auto without_stop = cal2.Calibrate();

  EXPECT_TRUE(without_stop.model.complete());
  EXPECT_EQ(without_stop.points_defaulted, 0);
  EXPECT_LT(with_stop.calibration_time_us,
            without_stop.calibration_time_us * 0.6);
}

TEST(CalibratorTest, HddBandSizeDominates) {
  sim::Simulator sim;
  io::HddDevice hdd(sim, io::HddGeometry::Commodity7200());
  Calibrator cal(sim, hdd, FastOptions());
  auto result = cal.Calibrate();
  // Random reads in a huge band cost orders of magnitude more than
  // sequential on a spinning disk (Fig. 6).
  EXPECT_GT(result.model.PointAt(3, 0), result.model.PointAt(0, 0) * 20.0);
}

TEST(CalibratorTest, GwAndAwAgreeOnSsd) {
  // Fig. 10: on SSD the two async methods produce nearly identical costs —
  // the paper's maximum observed difference is about 7 microseconds.
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  Calibrator cal(sim, ssd, FastOptions());
  for (int qd : {4, 16, 32}) {
    double gw = cal.MeasurePointStats(65536, qd,
                                      CalibrationMethod::kGroupWaiting, 3, 11)
                    .mean();
    double aw = cal.MeasurePointStats(65536, qd,
                                      CalibrationMethod::kActiveWaiting, 3, 11)
                    .mean();
    EXPECT_NEAR(gw, aw, 8.0) << "qd=" << qd;
  }
}

TEST(CalibratorTest, AwBeatsGwOnRaid) {
  // Fig. 11: on a multi-spindle array AW sustains the target queue depth
  // while GW drains it, so AW measures lower costs.
  sim::Simulator sim;
  io::RaidDevice raid(sim, 8, io::HddGeometry::Enterprise15000());
  Calibrator cal(sim, raid, FastOptions());
  double gw =
      cal.MeasurePointStats(1 << 22, 16, CalibrationMethod::kGroupWaiting, 3, 5)
          .mean();
  double aw =
      cal.MeasurePointStats(1 << 22, 16, CalibrationMethod::kActiveWaiting, 3, 5)
          .mean();
  EXPECT_LT(aw, gw * 0.9);
}

TEST(CalibratorTest, MultiThreadMatchesActiveWaiting) {
  // Both sustain a constant queue depth; costs should agree.
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  Calibrator cal(sim, ssd, FastOptions());
  double mt = cal.MeasurePoint(65536, 8, CalibrationMethod::kMultiThread, 3);
  double aw = cal.MeasurePoint(65536, 8, CalibrationMethod::kActiveWaiting, 3);
  EXPECT_NEAR(mt, aw, 0.25 * aw);
}

TEST(CalibratorTest, InterpolatedPointsCloseToMeasured) {
  // Fig. 12: calibrating {1,2,4,8,16,32} and interpolating odd depths is
  // accurate.
  sim::Simulator sim;
  io::RaidDevice raid(sim, 8, io::HddGeometry::Enterprise15000());
  auto opts = FastOptions();
  opts.early_stop = false;
  Calibrator cal(sim, raid, opts);
  auto result = cal.Calibrate();
  for (int qd : {3, 6, 12, 24}) {
    double measured =
        cal.MeasurePointStats(65536, qd, CalibrationMethod::kActiveWaiting, 3, 77)
            .mean();
    double interpolated = result.model.Lookup(65536, qd);
    EXPECT_NEAR(interpolated, measured, 0.35 * measured) << "qd=" << qd;
  }
}

TEST(CalibratorTest, RepetitionsReduceToStats) {
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  Calibrator cal(sim, ssd, FastOptions());
  auto stat =
      cal.MeasurePointStats(512, 4, CalibrationMethod::kActiveWaiting, 5, 1);
  EXPECT_EQ(stat.count(), 5);
  EXPECT_GT(stat.mean(), 0.0);
  EXPECT_GE(stat.max(), stat.min());
}

TEST(CalibratorDeathTest, MeasurePointStatsWithoutRepetitionsDies) {
  // Zero repetitions would return an empty distribution whose mean reads 0.
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  Calibrator cal(sim, ssd, FastOptions());
  EXPECT_DEATH(
      cal.MeasurePointStats(512, 4, CalibrationMethod::kActiveWaiting, 0, 1),
      "repetitions >= 1");
}

TEST(CalibratorTest, PagesReadCountsTheSequencesRead) {
  // Band 512 reads whole 512-page blocks: six of them, 3072 pages, under
  // M = 3200.
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  CalibratorOptions opts;
  opts.band_grid = {1, 512};
  opts.qd_grid = {1, 2};
  opts.repetitions = 2;
  opts.early_stop = false;
  Calibrator cal(sim, ssd, opts);
  auto result = cal.Calibrate();
  EXPECT_EQ(result.pages_read, ssd.stats().reads());
  EXPECT_EQ(result.pages_read, 2u * 2u * (3200u + 3072u));
}

TEST(CalibratorTest, SequenceRespectsPageBudget) {
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  auto opts = FastOptions();
  opts.max_pages_per_point = 256;
  Calibrator cal(sim, ssd, opts);
  ssd.stats().Reset();
  cal.MeasurePoint(1 << 20, 4, CalibrationMethod::kActiveWaiting, 9);
  EXPECT_LE(ssd.stats().reads(), 256u);
  ssd.stats().Reset();
  cal.MeasurePoint(16, 4, CalibrationMethod::kActiveWaiting, 9);
  EXPECT_LE(ssd.stats().reads(), 256u);
}

}  // namespace
}  // namespace pioqo::core
