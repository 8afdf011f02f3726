// Reproduces paper Fig. 4 (a)-(f) and Table 1: the runtime of
//   Q: SELECT MAX(C1) FROM Ti WHERE C2 BETWEEN low AND high
// under IS, FTS, PIS32 and PFTS32 across a selectivity sweep, for the six
// configurations {T1, T33, T500} x {HDD, SSD}.
//
// Paper shape: on SSD, PIS32 beats IS by an order of magnitude and the
// IS/FTS and PIS32/PFTS32 crossovers sit at much larger selectivities than
// on HDD (Table 2); on HDD parallelism buys little.
//
// Set PIOQO_SCALE (0,1] to shrink/grow the tables (default 0.5).

#include <cstdio>

#include "experiment_lib.h"

int main() {
  using namespace pioqo;
  const double scale = bench::ScaleFromEnv();
  std::printf("Fig. 4: runtime of Q per access method (scale %.2f)\n", scale);
  std::printf("\nTable 1 configurations:\n%-12s %-6s %14s %8s\n", "experiment",
              "table", "rows/page", "device");
  for (const auto& config : db::PaperExperimentConfigs(scale)) {
    std::printf("%-12s %-6s %14u %8s\n", config.id.c_str(),
                config.table_name.c_str(), config.rows_per_page,
                std::string(io::DeviceKindName(config.device)).c_str());
  }

  for (const auto& config : db::PaperExperimentConfigs(scale)) {
    auto rig = bench::MakeRig(config, /*calibrate=*/false);
    auto points =
        bench::RunFig4Sweep(rig, bench::Fig4Selectivities(config));
    std::printf("\n%s (%u pages, %llu rows) — runtimes in ms\n",
                config.id.c_str(), config.data_pages,
                static_cast<unsigned long long>(config.num_rows()));
    std::printf("%12s %12s %12s %12s %12s\n", "selectivity", "IS", "FTS",
                "PIS32", "PFTS32");
    for (const auto& p : points) {
      std::printf("%12.5f%% %11s %12s %12s %12s\n", p.selectivity * 100.0,
                  bench::Ms(p.is_us).c_str(), bench::Ms(p.fts_us).c_str(),
                  bench::Ms(p.pis32_us).c_str(),
                  bench::Ms(p.pfts32_us).c_str());
    }
    const double np = bench::CrossoverSelectivity(
        points, [](const auto& p) { return p.is_us; },
        [](const auto& p) { return p.fts_us; });
    const double pp = bench::CrossoverSelectivity(
        points, [](const auto& p) { return p.pis32_us; },
        [](const auto& p) { return p.pfts32_us; });
    std::printf("break-even: IS/FTS %.4f%%  PIS32/PFTS32 %.4f%%\n", np * 100.0,
                pp * 100.0);
  }
  return 0;
}
