#include "core/qdtt_model.h"

#include <string>

#include <gtest/gtest.h>

namespace pioqo::core {
namespace {

QdttModel MakeFilled() {
  // Costs fall with queue depth and rise with band size:
  // cost = 10 * band_idx + 100 / qd.
  QdttModel m({1, 100, 10000}, {1, 2, 4, 8});
  for (size_t b = 0; b < 3; ++b) {
    for (size_t q = 0; q < 4; ++q) {
      m.SetPoint(b, q, 10.0 * static_cast<double>(b) +
                           100.0 / static_cast<double>(m.qd_grid()[q]));
    }
  }
  return m;
}

TEST(QdttModelTest, StartsIncomplete) {
  QdttModel m({1, 10}, {1, 2});
  EXPECT_FALSE(m.complete());
  EXPECT_FALSE(m.IsSet(0, 0));
  m.SetPoint(0, 0, 5.0);
  EXPECT_TRUE(m.IsSet(0, 0));
  EXPECT_DOUBLE_EQ(m.PointAt(0, 0), 5.0);
}

TEST(QdttModelTest, CompleteAfterAllPointsSet) {
  QdttModel m = MakeFilled();
  EXPECT_TRUE(m.complete());
}

TEST(QdttModelTest, LookupAtGridPointsIsExact) {
  QdttModel m = MakeFilled();
  EXPECT_DOUBLE_EQ(m.Lookup(1, 1), 100.0);
  EXPECT_DOUBLE_EQ(m.Lookup(100, 2), 60.0);
  EXPECT_DOUBLE_EQ(m.Lookup(10000, 8), 32.5);
}

TEST(QdttModelTest, BilinearInterpolationBetweenPoints) {
  QdttModel m = MakeFilled();
  // Midway between bands 1 and 100 at qd 1: lerp(100, 110) at t=(50.5-1)/99.
  double expected_band = 100.0 + (50.5 - 1.0) / 99.0 * 10.0;
  EXPECT_NEAR(m.Lookup(50.5, 1), expected_band, 1e-9);
  // Midway between qd 2 and 4 at band 1: lerp(50, 25) at t=0.5.
  EXPECT_NEAR(m.Lookup(1, 3), 37.5, 1e-9);
  // Both axes at once.
  double b_lo = 100.0 + (50.5 - 1.0) / 99.0 * 10.0;  // qd 2 row offset: 50
  double v_q2 = (b_lo - 100.0) + 50.0;
  double v_q4 = (b_lo - 100.0) + 25.0;
  EXPECT_NEAR(m.Lookup(50.5, 3), (v_q2 + v_q4) / 2.0, 1e-9);
}

TEST(QdttModelTest, LookupClampsOutsideGrid) {
  QdttModel m = MakeFilled();
  EXPECT_DOUBLE_EQ(m.Lookup(0.5, 1), m.Lookup(1, 1));
  EXPECT_DOUBLE_EQ(m.Lookup(1e9, 1), m.Lookup(10000, 1));
  EXPECT_DOUBLE_EQ(m.Lookup(1, 0.1), m.Lookup(1, 1));
  EXPECT_DOUBLE_EQ(m.Lookup(1, 64), m.Lookup(1, 8));
}

TEST(QdttModelTest, DttViewIsQdOneRow) {
  QdttModel m = MakeFilled();
  EXPECT_DOUBLE_EQ(m.LookupDtt(100), m.Lookup(100, 1));
  EXPECT_DOUBLE_EQ(m.LookupDtt(100), 110.0);
}

TEST(QdttModelTest, DefaultBandGridCoversDevice) {
  auto grid = QdttModel::DefaultBandGrid(1 << 24);
  EXPECT_EQ(grid.front(), 1u);
  EXPECT_EQ(grid.back(), static_cast<uint64_t>(1 << 24));
  for (size_t i = 1; i < grid.size(); ++i) EXPECT_GT(grid[i], grid[i - 1]);
}

TEST(QdttModelTest, DefaultQdGridIsExponentialTo32) {
  EXPECT_EQ(QdttModel::DefaultQdGrid(), (std::vector<int>{1, 2, 4, 8, 16, 32}));
}

TEST(QdttModelTest, SerializeRoundTrips) {
  QdttModel m = MakeFilled();
  auto restored = QdttModel::Deserialize(m.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->band_grid(), m.band_grid());
  EXPECT_EQ(restored->qd_grid(), m.qd_grid());
  for (double band : {1.0, 55.0, 10000.0}) {
    for (double qd : {1.0, 3.0, 8.0}) {
      EXPECT_DOUBLE_EQ(restored->Lookup(band, qd), m.Lookup(band, qd));
    }
  }
}

TEST(QdttModelTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(QdttModel::Deserialize("not a model").ok());
  EXPECT_FALSE(QdttModel::Deserialize("qdtt v1\n").ok());
  const std::string valid = "qdtt v1\n1 1 100\n1 4 60\n16 1 120\n16 4 70\n";
  ASSERT_TRUE(QdttModel::Deserialize(valid).ok());
  for (const std::string& bad : {
           valid + "this is junk\n",             // not a number
           valid + "16 4",                        // truncated triple
           valid + "32 x 1\n",                    // junk inside a triple
           std::string("qdtt v1\n0 1 100\n8 1 90\n"),  // band 0
           std::string("qdtt v1\n-8 1 100\n"),         // negative band
           std::string("qdtt v1\n1 0 100\n1 1 90\n"),  // queue depth 0
           valid + "16 4 75\n",                  // repeated point
       }) {
    const auto model = QdttModel::Deserialize(bad);
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // Serialize writes an unset point as -1, which reads back unset.
  const auto partial = QdttModel::Deserialize("qdtt v1\n1 1 100\n1 4 -1\n");
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->IsSet(0, 0));
  EXPECT_FALSE(partial->IsSet(0, 1));
}

TEST(QdttModelTest, ToStringShowsGrid) {
  QdttModel m = MakeFilled();
  std::string s = m.ToString();
  EXPECT_NE(s.find("band\\qd"), std::string::npos);
  EXPECT_NE(s.find("10000"), std::string::npos);
}

TEST(QdttModelTest, MonotoneModelStaysMonotoneUnderInterpolation) {
  QdttModel m = MakeFilled();
  double prev = 1e18;
  for (double qd = 1.0; qd <= 8.0; qd += 0.5) {
    double v = m.Lookup(500, qd);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
}

}  // namespace
}  // namespace pioqo::core
