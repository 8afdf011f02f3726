#include "sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/optimizer.h"

namespace pioqo::bench {

namespace {

constexpr double kSelectivities[] = {0.00005, 0.0002, 0.001, 0.003,
                                     0.01,    0.03,   0.10,  0.30};

bool SamePlan(const core::PlanCandidate& a, const core::PlanCandidate& b) {
  return a.method == b.method && a.dop == b.dop &&
         a.prefetch_depth == b.prefetch_depth;
}

}  // namespace

SweepResult RunRegretSweep(db::Database& db, const std::string& table,
                           ExactCounts& exact, Oracle& oracle,
                           TraceLog& trace) {
  const int32_t domain = (*db.GetTable(table))->c2_domain;
  opt::OptimizerOptions options;
  options.prefetch_depths = {0, 8};

  SweepResult result;
  std::vector<double> regrets;
  std::vector<double> q_errors;
  for (double selectivity : kSelectivities) {
    const exec::RangePredicate pred{
        0, storage::C2UpperBoundForSelectivity(domain, selectivity)};
    const uint64_t expected_rows = exact.For(pred);
    const std::string label = "sel " + std::to_string(selectivity);

    Clock::time_point start = Clock::now();
    auto planned = db.ExecuteQuery(table, pred, /*queue_depth_aware=*/true,
                                   /*flush_pool=*/true, options);
    trace.HostSpan("ExecuteQuery " + label, "opt", start, Clock::now());
    ++result.scans;
    oracle.Check(planned.ok(), "sweep ExecuteQuery failed at " + label);
    if (!planned.ok()) continue;
    oracle.Check(planned->scan.rows_matched == expected_rows,
                 "sweep ExecuteQuery rows mismatch at " + label);

    SweepPoint point;
    point.selectivity = selectivity;
    point.chosen = planned->optimization.chosen;
    point.best_us = std::numeric_limits<double>::infinity();
    for (const core::PlanCandidate& candidate :
         planned->optimization.considered) {
      start = Clock::now();
      auto scan = db.ExecuteScan(table, pred, candidate.method, candidate.dop,
                                 candidate.prefetch_depth,
                                 /*flush_pool=*/true);
      trace.HostSpan("ExecuteScan " + candidate.ToString(), "exec", start,
                     Clock::now());
      ++result.scans;
      oracle.Check(scan.ok(), "sweep scan failed: " + candidate.ToString());
      if (!scan.ok()) continue;
      oracle.Check(scan->rows_matched == expected_rows,
                   "sweep scan rows mismatch: " + candidate.ToString());
      if (scan->runtime_us < point.best_us) {
        point.best_us = scan->runtime_us;
        point.best = candidate;
      }
      if (SamePlan(candidate, point.chosen)) point.chosen_us = scan->runtime_us;
    }
    oracle.Check(point.chosen_us > 0.0,
                 "chosen plan missing from the considered set at " + label);
    if (point.chosen_us <= 0.0) continue;
    regrets.push_back(point.chosen_us / point.best_us);
    q_errors.push_back(std::exp(
        std::fabs(std::log(point.chosen.total_us / point.chosen_us))));
    result.points.push_back(point);
  }
  result.regret_geomean = GeoMean(regrets);
  result.regret_max =
      regrets.empty() ? 0.0 : *std::max_element(regrets.begin(), regrets.end());
  result.est_error = GeoMean(q_errors);
  return result;
}

}  // namespace pioqo::bench
