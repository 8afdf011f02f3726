#ifndef PIOQO_BENCH_EXPERIMENT_LIB_H_
#define PIOQO_BENCH_EXPERIMENT_LIB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/experiment_config.h"
#include "exec/scan_result.h"

namespace pioqo::bench {

/// Scale factor for experiment tables, read from the PIOQO_SCALE environment
/// variable (default `def`, clamped to (0, 1]). Smaller is faster; the
/// paper-shape conclusions hold from ~0.25 upward.
double ScaleFromEnv(double def = 0.5);

/// Calibration repetitions per point for the Fig. 9-11 benches, read from
/// the PIOQO_REPS environment variable (default `def`); anything but a whole
/// positive integer is ignored with a warning.
int RepsFromEnv(int def);

/// Builds a ready-to-query database for one of the paper's Table 1
/// configurations: device, table, index, and a calibrated QDTT model.
struct ExperimentRig {
  db::ExperimentConfig config;
  std::unique_ptr<db::Database> database;

  const std::string& table_name() const { return config.table_name; }
  exec::RangePredicate PredicateFor(double selectivity) const;
};

ExperimentRig MakeRig(const db::ExperimentConfig& config, bool calibrate);

/// Runtime of query Q under every access method the paper plots in Fig. 4.
struct Fig4Point {
  double selectivity;
  double is_us;
  double fts_us;
  double pis32_us;
  double pfts32_us;
};

/// Runs the four curves at each selectivity (cold pool each run).
std::vector<Fig4Point> RunFig4Sweep(ExperimentRig& rig,
                                    const std::vector<double>& selectivities);

/// Selectivity where curve `a` starts losing to curve `b`, linearly
/// interpolated between sweep points; returns the last selectivity if the
/// curves never cross in the sweep.
double CrossoverSelectivity(const std::vector<Fig4Point>& points,
                            std::function<double(const Fig4Point&)> a,
                            std::function<double(const Fig4Point&)> b);

/// The selectivity grid the Fig. 4 sweep uses for a configuration: spans
/// the expected non-parallel and parallel break-even points for that
/// rows-per-page/device combination (paper Table 2).
std::vector<double> Fig4Selectivities(const db::ExperimentConfig& config);

/// Formats microseconds for table output (ms with 1 decimal).
std::string Ms(double us);

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_EXPERIMENT_LIB_H_
