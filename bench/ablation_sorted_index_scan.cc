// Extension: the sorted (RID-ordered) index scan of paper Sec. 3.1 — "some
// databases support a variation of index scan in which before fetching
// table pages, row identifiers are sorted in the order of page id ... Since
// SAP SQL Anywhere does not support this operator, we could not consider it
// in our experiments."
//
// We implemented it (exec::ScanSpec::sorted), so this bench completes the
// paper's missing comparison on E33-SSD: SIS fetches each table page at
// most once, which makes it the winner in exactly the selectivity band the
// paper predicts ("it can be the optimal choice in a particular selectivity
// range") — above the PIS break-even but below the point where FTS's purely
// sequential I/O wins.

#include <cstdio>

#include "common/logging.h"
#include "experiment_lib.h"

int main() {
  using namespace pioqo;
  const double scale = bench::ScaleFromEnv();
  auto config = db::PaperExperimentConfig("E33-SSD", scale);
  auto rig = bench::MakeRig(config, /*calibrate=*/true);
  std::printf(
      "Extension: sorted index scan vs PIS/FTS on %s (scale %.2f), runtimes "
      "in ms\n\n",
      config.id.c_str(), scale);
  std::printf("%12s %10s %10s %10s %10s %12s\n", "selectivity", "PIS32",
              "SIS32", "PFTS32", "winner", "SIS reads");

  for (double sel : bench::Fig4Selectivities(config)) {
    auto pred = rig.PredicateFor(sel);
    auto pis = rig.database->ExecuteScan(rig.table_name(), pred,
                                         core::AccessMethod::kPis, 32, 0, true);
    auto sis = rig.database->ExecuteScan(
        rig.table_name(), pred, core::AccessMethod::kSortedIs, 32, 8, true);
    auto pfts = rig.database->ExecuteScan(
        rig.table_name(), pred, core::AccessMethod::kPfts, 32, 0, true);
    PIOQO_CHECK(pis.ok() && sis.ok() && pfts.ok());
    const char* winner =
        sis->runtime_us < pis->runtime_us && sis->runtime_us < pfts->runtime_us
            ? "SIS"
            : (pis->runtime_us < pfts->runtime_us ? "PIS" : "PFTS");
    std::printf("%11.4f%% %10s %10s %10s %10s %12llu\n", sel * 100.0,
                bench::Ms(pis->runtime_us).c_str(),
                bench::Ms(sis->runtime_us).c_str(),
                bench::Ms(pfts->runtime_us).c_str(), winner,
                (unsigned long long)sis->device_reads);
  }

  // And the optimizer picks it when allowed to.
  opt::OptimizerOptions with_sis;
  with_sis.enable_sorted_index_scan = true;
  auto pred = rig.PredicateFor(0.02);
  auto outcome =
      rig.database->ExecuteQuery(rig.table_name(), pred, true, true, with_sis);
  PIOQO_CHECK(outcome.ok());
  std::printf("\noptimizer with SIS enabled at 2%% selectivity chooses: %s\n",
              outcome->optimization.chosen.ToString().c_str());
  return 0;
}
