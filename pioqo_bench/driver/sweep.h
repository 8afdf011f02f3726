#ifndef PIOQO_BENCH_DRIVER_SWEEP_H_
#define PIOQO_BENCH_DRIVER_SWEEP_H_

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "db/database.h"
#include "oracle.h"
#include "trace.h"

namespace pioqo::bench {

/// One selectivity of the regret sweep.
struct SweepPoint {
  double selectivity = 0.0;
  core::PlanCandidate chosen;
  double chosen_us = 0.0;  // executed runtime of the chosen plan
  core::PlanCandidate best;
  double best_us = 0.0;    // best executed runtime over every candidate
};

struct SweepResult {
  std::vector<SweepPoint> points;
  size_t scans = 0;
  /// Geomean and max over the sweep of chosen_us / best_us.
  double regret_geomean = 0.0;
  double regret_max = 0.0;
  /// Geomean over the sweep of the chosen plan's q-error,
  /// max(estimate / executed, executed / estimate).
  double est_error = 0.0;
};

/// The plan-regret sweep: at each of eight selectivities the optimizer
/// plans query Q through `Database::ExecuteQuery` (QDTT costing, PIS
/// prefetch depths {0, 8}), then every plan it considered — 18 candidates,
/// FTS/PFTS and IS/PIS at DOP 1..32 — runs through `ExecuteScan` on a cold
/// pool. Regret is how much slower the chosen plan ran than the best one.
/// Serial, deterministic given the database state.
SweepResult RunRegretSweep(db::Database& db, const std::string& table,
                           ExactCounts& exact, Oracle& oracle,
                           TraceLog& trace);

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_DRIVER_SWEEP_H_
