#include "experiment_lib.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace pioqo::bench {

namespace {

/// The value of environment variable `name` if all of it parses as a `T`
/// that `valid` accepts; otherwise `def`, with a warning when it is set.
template <typename T, typename Valid>
T FromEnv(const char* name, T def, Valid valid) {
  const char* env = std::getenv(name);
  if (env == nullptr) return def;
  const char* end = env + std::strlen(env);
  T v{};
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ec != std::errc() || ptr != end || !valid(v)) {
    PIOQO_LOG_WARNING << "ignoring " << name << "=" << env;
    return def;
  }
  return v;
}

}  // namespace

double ScaleFromEnv(double def) {
  return FromEnv("PIOQO_SCALE", def,
                 [](double v) { return v > 0.0 && v <= 1.0; });
}

int RepsFromEnv(int def) {
  return FromEnv("PIOQO_REPS", def, [](int v) { return v >= 1; });
}

exec::RangePredicate ExperimentRig::PredicateFor(double selectivity) const {
  auto cfg = config.DatasetConfigFor();
  return exec::RangePredicate{
      0, storage::C2UpperBoundForSelectivity(cfg.c2_domain, selectivity)};
}

ExperimentRig MakeRig(const db::ExperimentConfig& config, bool calibrate) {
  ExperimentRig rig{config, std::make_unique<db::Database>(
                                config.DatabaseOptionsFor())};
  PIOQO_CHECK_OK(rig.database->CreateTable(config.DatasetConfigFor()));
  if (calibrate) rig.database->Calibrate();
  return rig;
}

std::vector<Fig4Point> RunFig4Sweep(ExperimentRig& rig,
                                    const std::vector<double>& selectivities) {
  std::vector<Fig4Point> points;
  for (double sel : selectivities) {
    auto pred = rig.PredicateFor(sel);
    auto run = [&](core::AccessMethod method, int dop) {
      auto result = rig.database->ExecuteScan(rig.table_name(), pred, method,
                                              dop, 0, /*flush_pool=*/true);
      PIOQO_CHECK(result.ok()) << result.status().ToString();
      return result->runtime_us;
    };
    Fig4Point p;
    p.selectivity = sel;
    p.is_us = run(core::AccessMethod::kIs, 1);
    p.fts_us = run(core::AccessMethod::kFts, 1);
    p.pis32_us = run(core::AccessMethod::kPis, 32);
    p.pfts32_us = run(core::AccessMethod::kPfts, 32);
    points.push_back(p);
  }
  return points;
}

double CrossoverSelectivity(const std::vector<Fig4Point>& points,
                            std::function<double(const Fig4Point&)> a,
                            std::function<double(const Fig4Point&)> b) {
  for (size_t i = 1; i < points.size(); ++i) {
    const double prev_gap = a(points[i - 1]) - b(points[i - 1]);
    const double gap = a(points[i]) - b(points[i]);
    if (prev_gap <= 0.0 && gap > 0.0) {
      // Linear interpolation of the zero crossing in selectivity space.
      const double t = prev_gap / (prev_gap - gap);
      return points[i - 1].selectivity +
             t * (points[i].selectivity - points[i - 1].selectivity);
    }
  }
  return points.empty() ? 0.0 : points.back().selectivity;
}

std::vector<double> Fig4Selectivities(const db::ExperimentConfig& config) {
  // Geometric grids spanning the crossover regions (cf. paper Table 2; the
  // diagrams' ranges differ per configuration).
  double lo = 1e-4, hi = 1.0;
  const bool ssd = config.device == io::DeviceKind::kSsdConsumer;
  if (config.rows_per_page == 1) {
    lo = ssd ? 0.01 : 1e-3;
    hi = ssd ? 0.9 : 0.06;
  } else if (config.rows_per_page == 33) {
    lo = ssd ? 5e-4 : 2e-5;
    hi = ssd ? 0.1 : 2.5e-3;
  } else {  // 500 rows/page
    lo = ssd ? 1e-4 : 1e-5;
    hi = ssd ? 0.02 : 5e-4;
  }
  std::vector<double> grid;
  const int kPoints = 9;
  for (int i = 0; i < kPoints; ++i) {
    grid.push_back(lo * std::pow(hi / lo, static_cast<double>(i) / (kPoints - 1)));
  }
  return grid;
}

std::string Ms(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us / 1000.0);
  return buf;
}

}  // namespace pioqo::bench
