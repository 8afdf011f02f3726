#ifndef PIOQO_BENCH_DRIVER_WORKLOADS_H_
#define PIOQO_BENCH_DRIVER_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/calibrator.h"
#include "db/database.h"
#include "trace.h"

namespace pioqo::bench {

/// Host seconds of one database build, by phase.
struct SetupTimes {
  double create_table_s = 0.0;
  double calibrate_s = 0.0;
  double warmup_s = 0.0;
  double total_s = 0.0;
};

/// A named benchmark workload: how its database is built and the open-loop
/// request stream it replays. The request stream — arrival times,
/// predicates, deadlines, cancellations, device degradation — is generated
/// from the seed; the tables use the library's fixed data seed, so the
/// plan-regret sweep over them reads the same for every seed. The database
/// sees only the generated inputs.
///
/// The seed varies the stream without changing its make-up: arrivals are
/// jittered around a fixed spacing, and where a workload draws a parameter
/// (needle position, throttle strength) it draws it stratified, so every
/// seed covers the same range in a different order. That keeps the
/// simulated-clock metrics within a fraction of a percent from seed to seed.
///
/// The stream is replayed in windows of a fixed number of requests, each a
/// `Database::RunWorkload` call that drains before the next window's first
/// arrival. The first `sample_windows()` windows are the simulated-clock
/// sample: they, and everything before them, depend on the seed alone, so
/// their metrics repeat exactly for a given seed.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& table() const { return table_.name; }
  io::DeviceKind device() const { return options_.device; }
  size_t sample_windows() const { return sample_windows_; }
  /// True for the overload workload, where shedding, deadline expiry and
  /// injected cancellation are expected terminal states rather than
  /// failures.
  bool overloaded() const { return overloaded_; }

  /// Builds a ready-to-run database: construction, table load, calibration
  /// with the library defaults, then the workload's warm-up and
  /// configuration. Records each phase's host time and span.
  std::unique_ptr<db::Database> Build(TraceLog& trace, SetupTimes* times);

  /// Calibration outcome of the most recent Build.
  const core::CalibrationResult& calibration() const { return *calibration_; }

  /// The next window's requests, all arriving after the database's current
  /// simulated time.
  std::vector<db::Database::QueryRequest> NextWindow(db::Database& db);

  /// Restores the workload's cache state after the regret sweep flushed
  /// the pool, before the first window.
  virtual void AfterSweep(db::Database& /*db*/) {}

 protected:
  Workload(uint64_t seed, double scale, size_t window_queries,
           size_t sample_windows);

  /// Warm-up plus workload configuration (admission, defenses), run after
  /// calibration as part of set-up.
  virtual void Prepare(db::Database& db) = 0;
  /// Request `index` of the stream, arriving at `arrival_us`.
  virtual db::Database::QueryRequest MakeRequest(size_t index,
                                                 double arrival_us) = 0;
  /// Simulated gap before the next arrival.
  virtual double NextGapUs() = 0;
  /// Called with each window's requests before they run; `first_index` is
  /// the stream index of the window's first request.
  virtual void OnWindow(
      db::Database& /*db*/, size_t /*first_index*/,
      const std::vector<db::Database::QueryRequest>& /*requests*/) {}

  exec::RangePredicate PredicateFor(double selectivity) const;
  /// Arrival gap uniform in [0.5, 1.5] x `mean_us`. Poisson arrivals moved
  /// the p99 by 4-8% between seeds even over 3000 queries; these keep the
  /// mean rate and move it by well under 1%.
  double JitteredGapUs(double mean_us);

  db::DatabaseOptions options_;
  storage::DatasetConfig table_;
  Pcg32 rng_;
  bool overloaded_ = false;

 private:
  size_t window_queries_;
  size_t sample_windows_;
  size_t next_query_ = 0;
  std::optional<core::CalibrationResult> calibration_;
};

/// The benchmark's workloads, in the order the README lists them.
const std::vector<std::string>& WorkloadNames();

/// `scale` shrinks the window size (for smoke runs); 1.0 is the benchmark.
/// Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale);

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_DRIVER_WORKLOADS_H_
