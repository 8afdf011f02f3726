#include "core/drift_detector.h"

#include <gtest/gtest.h>

#include "core/qdtt_model.h"

namespace pioqo::core {
namespace {

QdttModel MakeModel() {
  QdttModel model({1, 4096, 1 << 22}, {1, 2, 4, 8, 16, 32});
  for (size_t b = 0; b < model.num_bands(); ++b) {
    for (size_t q = 0; q < model.num_qds(); ++q) {
      model.SetPoint(b, q, 100.0);
    }
  }
  return model;
}

/// Feeds `n` samples of (predicted, observed) into one cell.
void Feed(DriftDetector& d, int n, double band, double qd, double predicted,
          double observed) {
  for (int i = 0; i < n; ++i) d.Observe(band, qd, predicted, observed);
}

TEST(DriftDetectorTest, FullConfidenceWhilePredictionsHold) {
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  EXPECT_EQ(detector.confidence(), 1.0);
  EXPECT_FALSE(detector.drifted());

  // Accurate predictions (with mild noise) keep confidence pinned at 1.
  for (int i = 0; i < 20; ++i) {
    detector.Observe(4096.0, 8.0, 1000.0, i % 2 == 0 ? 1200.0 : 900.0);
  }
  EXPECT_EQ(detector.confidence(), 1.0);
  EXPECT_TRUE(detector.DriftedBands().empty());
}

TEST(DriftDetectorTest, StaticBiasIsNotDrift) {
  // Whole-plan cost estimates carry structural bias (pipelining, CPU
  // overlap): predictions consistently 4x below observed from the very
  // first sample. The warmup learns that as the reference error level, so
  // it never reads as drift — however long it persists.
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  Feed(detector, 30, 4096.0, 8.0, 1000.0, 4000.0);
  EXPECT_EQ(detector.confidence(), 1.0);
  EXPECT_FALSE(detector.drifted());
  EXPECT_NEAR(detector.CellRatio(1, 3), 1.0, 0.01);
}

TEST(DriftDetectorTest, SustainedShiftDegradesConfidence) {
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  // Healthy warmup at ratio 1, then the device gets 3x slower than the
  // model believes (and stays there long enough for the EWMA to converge).
  Feed(detector, 5, 4096.0, 8.0, 1000.0, 1000.0);
  Feed(detector, 30, 4096.0, 8.0, 1000.0, 3000.0);
  EXPECT_TRUE(detector.drifted());
  EXPECT_LT(detector.confidence(), 1.0);
  EXPECT_NEAR(detector.WorstRatio(), 3.0, 0.05);
  EXPECT_NEAR(detector.confidence(), 1.5 / 3.0, 0.05);
  ASSERT_EQ(detector.DriftedBands().size(), 1u);
  EXPECT_EQ(detector.DriftedBands()[0], 1u);  // band 4096
}

TEST(DriftDetectorTest, ShiftIsRelativeToTheLearnedReference) {
  // A biased cell (reference 2x) that degrades a further 4x reads as a 4x
  // shift — the bias is factored out, the regime change is not.
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  Feed(detector, 5, 4096.0, 8.0, 1000.0, 2000.0);
  Feed(detector, 40, 4096.0, 8.0, 1000.0, 8000.0);
  EXPECT_NEAR(detector.WorstRatio(), 4.0, 0.1);
}

TEST(DriftDetectorTest, OverestimationIsDriftToo) {
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  // Predictions that *were* accurate turning 4x too pessimistic are also a
  // broken model (the symmetric |log| shift catches both directions).
  Feed(detector, 5, 1.0, 1.0, 1000.0, 1000.0);
  Feed(detector, 40, 1.0, 1.0, 4000.0, 1000.0);
  EXPECT_TRUE(detector.drifted());
  EXPECT_NEAR(detector.WorstRatio(), 4.0, 0.1);
}

TEST(DriftDetectorTest, RequiresPostWarmupSamplesBeforeTrusting) {
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  // 3 warmup samples at ratio 1, then a 10x shift: the shifted cell is not
  // trusted until it has kMinSamples post-warmup observations.
  static_assert(DriftDetector::kMinSamples == 3);
  Feed(detector, 3, 4096.0, 8.0, 1000.0, 1000.0);
  detector.Observe(4096.0, 8.0, 1000.0, 10'000.0);
  detector.Observe(4096.0, 8.0, 1000.0, 10'000.0);
  EXPECT_EQ(detector.confidence(), 1.0) << "two post-warmup samples";
  detector.Observe(4096.0, 8.0, 1000.0, 10'000.0);
  EXPECT_LT(detector.confidence(), 1.0);
}

TEST(DriftDetectorTest, AttributesToNearestCellInLogSpace) {
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  // band 3000 is nearest 4096 (log space), qd 6 nearest 8.
  Feed(detector, 5, 3000.0, 6.0, 100.0, 100.0);
  Feed(detector, 10, 3000.0, 6.0, 100.0, 500.0);
  EXPECT_GT(detector.CellSamples(1, 3), 0u);
  EXPECT_EQ(detector.CellSamples(0, 0), 0u);
  ASSERT_EQ(detector.DriftedBands().size(), 1u);
  EXPECT_EQ(detector.DriftedBands()[0], 1u);  // band 4096
}

TEST(DriftDetectorTest, DriftedBandsOrderedBySeverity) {
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  Feed(detector, 5, 1.0, 1.0, 100.0, 100.0);
  Feed(detector, 5, 4'000'000.0, 32.0, 100.0, 100.0);
  for (int i = 0; i < 30; ++i) {
    detector.Observe(1.0, 1.0, 100.0, 300.0);             // 3x shift
    detector.Observe(4'000'000.0, 32.0, 100.0, 1000.0);   // 10x shift
  }
  const std::vector<size_t> bands = detector.DriftedBands();
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_EQ(bands[0], 2u);  // band 1 << 22, the worst, first
  EXPECT_EQ(bands[1], 0u);  // band 1
}

TEST(DriftDetectorTest, RecalibrationClearsHistoryAndRestoresConfidence) {
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  Feed(detector, 5, 4096.0, 8.0, 100.0, 100.0);
  Feed(detector, 10, 4096.0, 8.0, 100.0, 1000.0);
  ASSERT_TRUE(detector.drifted());

  detector.NoteBandRecalibrated(1);  // band 4096
  EXPECT_EQ(detector.confidence(), 1.0);
  EXPECT_EQ(detector.CellSamples(1, 3), 0u);
  // The cell re-learns its reference against the refreshed model: the
  // formerly drifted ratio, if it persists, is the new healthy baseline.
  Feed(detector, 10, 4096.0, 8.0, 100.0, 1000.0);
  EXPECT_EQ(detector.confidence(), 1.0);
  EXPECT_EQ(detector.samples(), 25u) << "sample total is cumulative";
}

TEST(DriftDetectorTest, IgnoresNonPositiveCosts) {
  QdttModel model = MakeModel();
  DriftDetector detector(model);
  detector.Observe(4096.0, 8.0, 0.0, 1000.0);
  detector.Observe(4096.0, 8.0, 1000.0, 0.0);
  detector.Observe(4096.0, 8.0, -1.0, -5.0);
  EXPECT_EQ(detector.samples(), 0u);
  EXPECT_EQ(detector.confidence(), 1.0);
}

}  // namespace
}  // namespace pioqo::core
