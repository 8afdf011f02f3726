// Reproduces paper Fig. 4 (a)-(f) and Tables 1 and 2: the runtime of
//   Q: SELECT MAX(C1) FROM Ti WHERE C2 BETWEEN low AND high
// under IS, FTS, PIS32 and PFTS32 across a selectivity sweep, for the six
// configurations {T1, T33, T500} x {HDD, SSD}, then Table 2's summary of the
// sweeps' crossovers: the shift from the non-parallel (IS vs FTS) to the
// parallel (PIS32 vs PFTS32) selectivity break-even point.
//
// Paper shape: on SSD, PIS32 beats IS by an order of magnitude and the
// IS/FTS and PIS32/PFTS32 crossovers sit at much larger selectivities than
// on HDD; on HDD parallelism buys little.
//
// Paper Table 2 for reference:
//   rows/page    NP-HDD    P-HDD    NP-SSD   P-SSD
//   1            0.55%     1.4%     8%       48%
//   33           0.02%     0.05%    0.4%     2.1%
//   500          0.0045%   0.005%   0.15%    0.5%
//
// Table 2 shape criteria: P > NP everywhere; SSD shifts are much larger than
// HDD shifts; break-evens shrink as rows-per-page grows.
//
// Set PIOQO_SCALE (0,1] to shrink/grow the tables (default 0.5).

#include <cstdio>
#include <map>
#include <string>

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

  struct BreakEven {
    double np = 0, p = 0;
  };
  // rows per page -> device -> the configuration's break-even points.
  std::map<uint32_t, std::map<std::string, BreakEven>> table2;
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
    BreakEven& be = table2[config.rows_per_page]
                          [std::string(io::DeviceKindName(config.device))];
    be.np = bench::CrossoverSelectivity(
        points, [](const auto& p) { return p.is_us; },
        [](const auto& p) { return p.fts_us; });
    be.p = bench::CrossoverSelectivity(
        points, [](const auto& p) { return p.pis32_us; },
        [](const auto& p) { return p.pfts32_us; });
    std::printf("break-even: IS/FTS %.4f%%  PIS32/PFTS32 %.4f%%\n",
                be.np * 100.0, be.p * 100.0);
  }

  std::printf("\nTable 2: break-even shift summary (scale %.2f)\n\n", scale);
  std::printf("%-14s %10s %10s %10s %10s %10s %10s\n", "rows per page",
              "NP-HDD", "P-HDD", "NP-SSD", "P-SSD", "HDD shift", "SSD shift");
  for (auto& [rpp, by_device] : table2) {
    const BreakEven& hdd = by_device["hdd"];
    const BreakEven& ssd = by_device["ssd"];
    std::printf("%-14u %9.4f%% %9.4f%% %9.4f%% %9.4f%% %9.2fx %9.2fx\n", rpp,
                hdd.np * 100, hdd.p * 100, ssd.np * 100, ssd.p * 100,
                hdd.p / hdd.np, ssd.p / ssd.np);
  }
  std::printf(
      "\npaper:        %9s %9s %9s %9s  (shifts 2.5x / 6x @rpp=1;"
      " 2.5x / 5.3x @33; 1.1x / 3.3x @500)\n",
      "0.55%/0.02%/0.0045%", "1.4%/0.05%/0.005%", "8%/0.4%/0.15%",
      "48%/2.1%/0.5%");
  return 0;
}
