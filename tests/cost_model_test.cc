#include "core/cost_model.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/calibrator.h"
#include "io/hdd_device.h"
#include "io/ssd_device.h"
#include "sim/simulator.h"

namespace pioqo::core {
namespace {

/// Synthetic SSD-like model: sequential cheap, random expensive at low
/// queue depth, random cost dropping ~linearly with depth.
QdttModel SsdLikeModel() {
  QdttModel m({1, 1024, 1 << 20}, QdttModel::DefaultQdGrid());
  const double band_cost[3] = {8.0, 150.0, 180.0};
  for (size_t b = 0; b < 3; ++b) {
    for (size_t q = 0; q < 6; ++q) {
      double qd = m.qd_grid()[q];
      // Sequential barely improves; random scales with depth.
      double v = b == 0 ? band_cost[b] / std::min(qd, 2.0)
                        : band_cost[b] / qd + 5.0;
      m.SetPoint(b, q, v);
    }
  }
  return m;
}

/// HDD-like: random cost huge, no benefit from depth.
QdttModel HddLikeModel() {
  QdttModel m({1, 1024, 1 << 20}, QdttModel::DefaultQdGrid());
  const double band_cost[3] = {45.0, 6000.0, 13000.0};
  for (size_t b = 0; b < 3; ++b) {
    for (size_t q = 0; q < 6; ++q) {
      double qd = m.qd_grid()[q];
      double v = b == 0 ? band_cost[b] : band_cost[b] / std::min(qd, 3.0);
      m.SetPoint(b, q, v);
    }
  }
  return m;
}

TableProfile Typical33() {
  TableProfile t;
  t.table_pages = 24000;
  t.rows_per_page = 33;
  t.rows = 24000ull * 33;
  t.index_height = 2;
  t.index_leaves = 24000 * 33 / 408 + 1;
  t.pool_pages = 2048;
  return t;
}

TEST(CostModelTest, RequiresCompleteModel) {
  QdttModel incomplete({1, 2}, {1});
  EXPECT_DEATH(
      { CostModel cm(incomplete, CostConstants{}, true); }, "calibrated");
}

TEST(CostModelTest, FtsCostIndependentOfSelectivity) {
  QdttModel m = SsdLikeModel();
  CostModel cm(m, CostConstants{}, true);
  auto plan = cm.CostFullTableScan(Typical33(), 1);
  EXPECT_EQ(plan.method, AccessMethod::kFts);
  EXPECT_GT(plan.total_us, 0.0);
}

TEST(CostModelTest, PftsCheaperThanFtsOnSsd) {
  QdttModel m = SsdLikeModel();
  CostModel cm(m, CostConstants{}, true);
  auto fts = cm.CostFullTableScan(Typical33(), 1);
  auto pfts8 = cm.CostFullTableScan(Typical33(), 8);
  EXPECT_LT(pfts8.total_us, fts.total_us);
  EXPECT_EQ(pfts8.method, AccessMethod::kPfts);
}

TEST(CostModelTest, DttModeSeesNoIoBenefitFromParallelism) {
  QdttModel m = SsdLikeModel();
  CostModel dtt(m, CostConstants{}, /*queue_depth_aware=*/false);
  auto is = dtt.CostIndexScan(Typical33(), 0.01, 1, 0);
  auto pis32 = dtt.CostIndexScan(Typical33(), 0.01, 32, 0);
  // Same I/O cost; parallel only pays extra startup -> never preferred when
  // I/O dominates (the paper's old-optimizer behaviour).
  EXPECT_DOUBLE_EQ(is.io_us, pis32.io_us);
  EXPECT_GT(pis32.total_us, is.total_us * 0.5);
}

TEST(CostModelTest, QdttModeMakesParallelIndexScanCheap) {
  QdttModel m = SsdLikeModel();
  CostModel qdtt(m, CostConstants{}, true);
  auto is = qdtt.CostIndexScan(Typical33(), 0.01, 1, 0);
  auto pis32 = qdtt.CostIndexScan(Typical33(), 0.01, 32, 0);
  EXPECT_LT(pis32.io_us, is.io_us / 5.0);
  EXPECT_LT(pis32.total_us, is.total_us / 3.0);
}

TEST(CostModelTest, PrefetchRaisesEffectiveDepth) {
  QdttModel m = SsdLikeModel();
  CostModel qdtt(m, CostConstants{}, true);
  auto plain = qdtt.CostIndexScan(Typical33(), 0.01, 4, 0);
  auto prefetching = qdtt.CostIndexScan(Typical33(), 0.01, 4, 8);
  EXPECT_LT(prefetching.io_us, plain.io_us);
}

TEST(CostModelTest, BreakEvenShiftsRightUnderQdtt) {
  // The paper's headline: the IS/FTS crossover selectivity moves to much
  // larger values when the optimizer is queue-depth aware on SSD.
  QdttModel m = SsdLikeModel();
  CostModel dtt(m, CostConstants{}, false);
  CostModel qdtt(m, CostConstants{}, true);
  TableProfile t = Typical33();

  auto cross = [&](const CostModel& cm, int dop) {
    for (double sel = 1e-5; sel < 1.0; sel *= 1.3) {
      if (cm.CostIndexScan(t, sel, dop, 0).total_us >
          cm.CostFullTableScan(t, dop).total_us) {
        return sel;
      }
    }
    return 1.0;
  };
  double np_breakeven = cross(dtt, 1);
  double p_breakeven = cross(qdtt, 32);
  EXPECT_GT(p_breakeven, np_breakeven * 3.0);
}

TEST(CostModelTest, HddModelKeepsIndexScanExpensive) {
  QdttModel m = HddLikeModel();
  CostModel qdtt(m, CostConstants{}, true);
  TableProfile t = Typical33();
  // Even at tiny selectivity, random I/O on HDD at any depth stays costly:
  // break-even is far left of the SSD's.
  auto is = qdtt.CostIndexScan(t, 0.01, 32, 0);
  auto fts = qdtt.CostFullTableScan(t, 32);
  EXPECT_GT(is.total_us, fts.total_us);
}

TEST(CostModelTest, EstimatedFetchesTracksYaoRegimes) {
  QdttModel m = SsdLikeModel();
  CostModel cm(m, CostConstants{}, true);
  TableProfile t = Typical33();
  // At very low selectivity, fetches ~= selected rows.
  double sel = 1e-4;
  double k = sel * static_cast<double>(t.rows);
  EXPECT_NEAR(cm.EstimatedIndexFetches(t, sel), k, k * 0.05);
  // At selectivity 1 with a small pool, fetches exceed the page count.
  EXPECT_GT(cm.EstimatedIndexFetches(t, 1.0),
            static_cast<double>(t.table_pages));
}

TEST(CostModelTest, CachedFractionReducesIo) {
  QdttModel m = SsdLikeModel();
  CostModel cm(m, CostConstants{}, true);
  TableProfile cold = Typical33();
  TableProfile warm = cold;
  warm.cached_fraction = 0.5;
  EXPECT_NEAR(cm.CostFullTableScan(warm, 1).io_us,
              cm.CostFullTableScan(cold, 1).io_us * 0.5, 1e-6);
  EXPECT_LT(cm.CostIndexScan(warm, 0.01, 1, 0).io_us,
            cm.CostIndexScan(cold, 0.01, 1, 0).io_us);
}

void ExpectSamePlan(const PlanCandidate& a, const PlanCandidate& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.dop, b.dop);
  EXPECT_EQ(a.prefetch_depth, b.prefetch_depth);
  EXPECT_EQ(a.band_pages, b.band_pages);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
  EXPECT_EQ(a.io_us, b.io_us);
  EXPECT_EQ(a.cpu_us, b.cpu_us);
  EXPECT_EQ(a.total_us, b.total_us);
}

TEST(CostModelTest, PlanRecordsThePricedCell) {
  // The cost model alone picks the QDTT cell a plan's page reads are priced
  // at; drift defense charges the executed plan to the cell it records.
  const QdttModel m = SsdLikeModel();
  const TableProfile t = Typical33();
  const double table_pages = static_cast<double>(t.table_pages);
  for (int streams : {1, 4}) {
    const CostModel cm(m, CostConstants{}, /*queue_depth_aware=*/true,
                       streams);
    const CostModel blind(m, CostConstants{}, /*queue_depth_aware=*/false,
                          streams);
    for (int dop : {1, 4, 32}) {
      SCOPED_TRACE("streams " + std::to_string(streams) + " dop " +
                   std::to_string(dop));
      const PlanCandidate fts = cm.CostFullTableScan(t, dop);
      EXPECT_EQ(fts.band_pages, 1.0);
      EXPECT_EQ(fts.queue_depth,
                std::max(1.0, static_cast<double>(dop) / streams));
      // An uncached FTS reads every table page at its cell's cost.
      EXPECT_EQ(fts.io_us,
                table_pages * m.Lookup(fts.band_pages, fts.queue_depth));
      EXPECT_EQ(blind.CostFullTableScan(t, dop).queue_depth, 1.0);
      for (int prefetch : {0, 8}) {
        SCOPED_TRACE("prefetch " + std::to_string(prefetch));
        const double depth = std::max(
            1.0, static_cast<double>(dop * std::max(1, prefetch)) / streams);
        const PlanCandidate is = cm.CostIndexScan(t, 0.01, dop, prefetch);
        const PlanCandidate sis =
            cm.CostSortedIndexScan(t, 0.01, dop, prefetch);
        for (const PlanCandidate& plan : {is, sis}) {
          EXPECT_EQ(plan.band_pages, table_pages);
          EXPECT_EQ(plan.queue_depth, depth);
        }
        EXPECT_EQ(blind.CostIndexScan(t, 0.01, dop, prefetch).queue_depth,
                  1.0);
        EXPECT_EQ(
            blind.CostSortedIndexScan(t, 0.01, dop, prefetch).queue_depth,
            1.0);
        // Cost() is the one dispatch from access method to these functions;
        // table scans ignore the prefetch depth.
        ExpectSamePlan(cm.Cost(fts.method, t, 0.01, dop, prefetch), fts);
        ExpectSamePlan(cm.Cost(is.method, t, 0.01, dop, prefetch), is);
        ExpectSamePlan(
            cm.Cost(AccessMethod::kSortedIs, t, 0.01, dop, prefetch), sis);
      }
    }
  }
}

TEST(CostModelTest, PlanToStringIsReadable) {
  QdttModel m = SsdLikeModel();
  CostModel cm(m, CostConstants{}, true);
  auto plan = cm.CostIndexScan(Typical33(), 0.01, 8, 16);
  std::string s = plan.ToString();
  EXPECT_NE(s.find("PIS8"), std::string::npos);
  EXPECT_NE(s.find("pf16"), std::string::npos);
}

TEST(AccessMethodTest, Names) {
  EXPECT_EQ(AccessMethodName(AccessMethod::kFts), "FTS");
  EXPECT_EQ(AccessMethodName(AccessMethod::kPfts), "PFTS");
  EXPECT_EQ(AccessMethodName(AccessMethod::kIs), "IS");
  EXPECT_EQ(AccessMethodName(AccessMethod::kPis), "PIS");
}

}  // namespace
}  // namespace pioqo::core
