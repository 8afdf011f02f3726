// Reproduces paper Table 3: average I/O throughput of PFTS32 vs FTS over the
// six experiment configurations.
//
// Paper values (MB/s):           PFTS32     FTS     ratio
//   E1-HDD / E1-SSD            100 / 849   97 / 263   (SSD/HDD 8.5x / 2.7x)
//   E33-HDD / E33-SSD          106 / 581  101 / 192   (5.5x / 1.9x)
//   E500-HDD / E500-SSD        111 / 251   51 / 58    (2.3x / 1.1x)
//
// Shape: PFTS32 gains a lot on SSD, nothing on HDD (except E500 where a
// second core doubles it); per-row CPU cost caps throughput as rows-per-page
// grows.

#include <cstdio>

#include "common/logging.h"
#include "experiment_lib.h"

int main() {
  using namespace pioqo;
  const double scale = bench::ScaleFromEnv();
  std::printf("Table 3: FTS vs PFTS32 I/O throughput (scale %.2f)\n\n", scale);
  std::printf("%-12s %16s %16s %8s\n", "experiment", "PFTS32 MB/s", "FTS MB/s",
              "ratio");

  for (const auto& config : db::PaperExperimentConfigs(scale)) {
    auto rig = bench::MakeRig(config, /*calibrate=*/false);
    auto pred = rig.PredicateFor(0.5);
    auto fts = rig.database->ExecuteScan(rig.table_name(), pred,
                                         core::AccessMethod::kFts, 1, 0, true);
    auto pfts = rig.database->ExecuteScan(
        rig.table_name(), pred, core::AccessMethod::kPfts, 32, 0, true);
    PIOQO_CHECK(fts.ok() && pfts.ok());
    std::printf("%-12s %16.1f %16.1f %7.2fx\n", config.id.c_str(),
                pfts->io_throughput_mbps, fts->io_throughput_mbps,
                pfts->io_throughput_mbps / fts->io_throughput_mbps);
  }
  return 0;
}
