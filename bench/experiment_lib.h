#ifndef PIOQO_BENCH_EXPERIMENT_LIB_H_
#define PIOQO_BENCH_EXPERIMENT_LIB_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "db/experiment_config.h"
#include "exec/scan_result.h"

namespace pioqo::bench {

/// Scale factor for experiment tables, read from the PIOQO_SCALE environment
/// variable (default `def`, clamped to (0, 1]). Smaller is faster; the
/// paper-shape conclusions hold from ~0.25 upward.
double ScaleFromEnv(double def = 0.5);

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

/// Worker-thread count for RunCells: the PIOQO_BENCH_THREADS environment
/// variable if set (clamped to >= 1), otherwise hardware_concurrency().
int BenchThreadsFromEnv();

/// Runs independent simulation *cells* — one (device, seed, config) unit of
/// work each — on a pool of worker threads and returns their results in
/// input order, so output is byte-identical regardless of thread count or
/// completion order.
///
/// Threading model (DESIGN.md §11): each cell constructs and owns its own
/// `sim::Simulator` (plus devices, database, ...) entirely inside its
/// callable; nothing simulation-related is shared between cells, and the
/// per-thread engine state (coroutine frame pool, invariant-check registry)
/// is `thread_local`. The only cross-thread traffic is the atomic work
/// index and each cell's slot in the results vector, so this is pure
/// wall-clock parallelism with per-cell determinism untouched. Cells must
/// not print; return what to print and emit it after collection.
template <typename Result>
std::vector<Result> RunCells(const std::vector<std::function<Result()>>& cells,
                             int threads = 0) {
  if (threads <= 0) threads = BenchThreadsFromEnv();
  threads = std::min<int>(threads, static_cast<int>(cells.size()));
  // Optional slots so Result only needs to be move-constructible (models and
  // rigs are not default-constructible).
  std::vector<std::optional<Result>> slots(cells.size());
  if (threads <= 1) {
    for (size_t i = 0; i < cells.size(); ++i) slots[i].emplace(cells[i]());
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells.size()) return;
        slots[i].emplace(cells[i]());
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  std::vector<Result> results;
  results.reserve(cells.size());
  for (std::optional<Result>& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_EXPERIMENT_LIB_H_
