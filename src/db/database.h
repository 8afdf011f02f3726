#ifndef PIOQO_DB_DATABASE_H_
#define PIOQO_DB_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/calibrator.h"
#include "db/admission.h"
#include "db/drift_defense.h"
#include "core/cost_constants.h"
#include "core/cost_model.h"
#include "core/histogram.h"
#include "core/qdtt_model.h"
#include "exec/scan_operators.h"
#include "io/device_factory.h"
#include "io/fault_injection.h"
#include "io/health_monitor.h"
#include "io/retry_policy.h"
#include "opt/optimizer.h"
#include "opt/plan_cache.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "storage/buffer_pool.h"
#include "storage/data_generator.h"
#include "storage/disk_image.h"

namespace pioqo::db {

struct DatabaseOptions {
  io::DeviceKind device = io::DeviceKind::kSsdConsumer;
  /// Buffer pool frames. The paper keeps this small (64 MB) relative to the
  /// tables "to factor out the impact of memory buffer pool".
  uint32_t pool_pages = 2048;
  core::CostConstants constants;
  /// Calibration settings used by Calibrate(); the defaults keep a full
  /// grid calibration around a second of host time.
  core::CalibratorOptions calibration;
  /// When set, the storage device is wrapped in a FaultInjectingDevice with
  /// this (seeded, deterministic) fault schedule. Absent = no wrapper at
  /// all, so fault-free runs are bit-identical to builds without this knob.
  std::optional<io::FaultConfig> faults;
  /// Retry/timeout policy for buffer-pool page loads (plus the jitter seed).
  /// The inert default costs nothing; give timeout_us > 0 to survive stuck
  /// requests.
  storage::BufferPoolOptions pool_options;
};

/// The top-level facade: one simulated host (clock, 8 logical cores), one
/// storage device with its disk image and buffer pool, any number of
/// generated tables with C2 indexes, a QDTT calibration, and the
/// access-path optimizer — everything needed to reproduce the paper's
/// experiments in a few lines (see examples/quickstart.cc).
class Database {
 public:
  explicit Database(DatabaseOptions options);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Generates and loads a table (plus its C2 index) onto the device.
  Status CreateTable(const storage::DatasetConfig& config);

  StatusOr<const storage::Dataset*> GetTable(const std::string& name) const;

  /// Runs the QDTT calibration against this database's device and installs
  /// the model for the optimizer. Must be called before ExecuteQuery and
  /// before EnableDriftDefense (it aborts after it).
  core::CalibrationResult Calibrate();

  /// Installs an externally calibrated/deserialized model instead. The same
  /// ordering rule as Calibrate() applies. A model that leaves a grid point
  /// unset is rejected with kInvalidArgument, and the installed model (if
  /// any) stays in place.
  Status InstallModel(core::QdttModel model);
  bool calibrated() const { return qdtt_.has_value(); }
  const core::QdttModel& qdtt() const;

  /// Executes query Q with a forced plan. If `flush_pool`, the buffer pool
  /// is emptied first (the paper flushes it "to factor out the impact of
  /// pages which are already in memory").
  StatusOr<exec::ScanResult> ExecuteScan(const std::string& table,
                                         exec::RangePredicate pred,
                                         core::AccessMethod method, int dop,
                                         int prefetch_depth, bool flush_pool);

  struct QueryOutcome {
    opt::OptimizationResult optimization;
    exec::ScanResult scan;
  };

  /// The forced plan of one QueryRequest: table, predicate, access method,
  /// DOP and prefetch depth.
  struct ConcurrentScanSpec {
    std::string table;
    exec::RangePredicate pred;
    core::AccessMethod method = core::AccessMethod::kFts;
    int dop = 1;
    int prefetch_depth = 0;
  };

  /// Plans Q with the optimizer (QDTT if `queue_depth_aware`, the legacy
  /// DTT costing otherwise) at full model confidence, then flushes the pool
  /// if asked and executes the winning plan. The plan is costed against the
  /// pool as it was *before* the flush.
  StatusOr<QueryOutcome> ExecuteQuery(const std::string& table,
                                      exec::RangePredicate pred,
                                      bool queue_depth_aware, bool flush_pool,
                                      opt::OptimizerOptions options = {});

  // --- Query lifecycle (admission, deadlines, cancellation) ---------------

  /// Installs the admission controller for RunWorkload. When
  /// `options.health` is null, the database's health monitor (if enabled)
  /// is wired in, so degraded devices clamp admitted DOP automatically.
  /// May be called at most once per database. Call it after
  /// EnableHealthMonitor, whose monitor it copies, and before
  /// EnableDriftDefense, whose probe gate copies it: it aborts once the
  /// drift defense is enabled.
  void EnableAdmissionControl(AdmissionOptions options = {});
  AdmissionController* admission() { return admission_.get(); }

  /// One query of an open-loop workload replayed by RunWorkload.
  struct QueryRequest {
    ConcurrentScanSpec scan;
    /// Plan with the optimizer at *arrival time* instead of forcing
    /// `scan`'s method/dop/prefetch (only `scan.table` and `scan.pred` are
    /// used then). Planning consults the live model and, when drift defense
    /// is enabled, the current model confidence — so queries arriving after
    /// a device regime change are planned by the defended optimizer.
    bool use_optimizer = false;
    /// Planner knobs for `use_optimizer` (enumerated degrees, fallback
    /// thresholds, ...). `queue_depth_aware` is taken as-is.
    opt::OptimizerOptions optimizer;
    /// Absolute simulated arrival time.
    double arrival_us = 0.0;
    /// Deadline relative to arrival; 0 disables it.
    double timeout_us = 0.0;
    /// Absolute simulated time of an injected cancellation (a user hitting
    /// Ctrl-C); negative disables it.
    double cancel_at_us = -1.0;
  };

  /// Terminal state of the query lifecycle state machine (DESIGN.md §9):
  /// admitted → running → {completed, cancelled, timed out} and
  /// queued → shed.
  enum class QueryTerminal { kCompleted, kShed, kTimedOut, kCancelled, kFailed };

  struct QueryReport {
    QueryTerminal terminal = QueryTerminal::kFailed;
    Status status;          // OK iff terminal == kCompleted
    double admit_wait_us = 0.0;
    double latency_us = 0.0;  // arrival → terminal state
    int granted_dop = 0;      // 0 when never admitted
    uint64_t rows_matched = 0;
    /// Q's answer, MAX(C1); meaningful only if rows_matched > 0.
    int32_t max_c1 = 0;
    /// Plan the optimizer chose (use_optimizer queries only).
    core::AccessMethod planned_method = core::AccessMethod::kFts;
    int planned_dop = 0;  // 0 when the request forced its plan
    /// Fallbacks that fired at plan time (use_optimizer queries only).
    bool plan_dop_clamped = false;
    bool plan_dtt_fallback = false;
    double plan_confidence = 1.0;
  };

  struct WorkloadReport {
    std::vector<QueryReport> queries;  // in request order
    AdmissionStats admission;
    size_t completed = 0;
    size_t shed = 0;
    size_t timed_out = 0;
    size_t cancelled = 0;
    size_t failed = 0;
    /// Plan-cache activity during *this* workload.
    opt::PlanCacheStats plan_cache;
  };

  /// Replays `requests` as an open-loop arrival process against the shared
  /// device/CPU/pool, each query flowing through admission control, its
  /// deadline, and any injected cancellation, and runs the simulation until
  /// every query reaches a terminal state. Requires EnableAdmissionControl.
  /// The one way to run queries concurrently: with both admission caps at
  /// std::numeric_limits<int>::max() and every arrival at simulator().Now(),
  /// the requests start together at their requested DOP (the paper's
  /// future-work scenario of concurrent requests).
  StatusOr<WorkloadReport> RunWorkload(const std::vector<QueryRequest>& requests,
                                       bool flush_pool);

  // --- Drift defense (DESIGN.md §12) --------------------------------------

  /// Installs the cost-model drift defense. Requires a calibrated model
  /// (the live model's grids parameterize the detector and recalibrator);
  /// enable admission control first if busy-probe escalation should work on
  /// a never-idle device. Workload queries with `use_optimizer` then plan
  /// under the defense's confidence, feed their predicted-vs-observed
  /// runtime back, and trigger guarded recalibration on drift. May be
  /// called at most once per database. Call it after
  /// EnableAdmissionControl: that call aborts once the defense is enabled.
  void EnableDriftDefense(DriftDefenseOptions options = {});
  DriftDefense* drift_defense() { return drift_defense_.get(); }

  /// Arrival-time planning for a `use_optimizer` workload query: estimates
  /// selectivity, plans under the current drift-defense confidence (1.0
  /// when the defense is off) without recording the losing candidates, and
  /// resolves the winning plan. Exposed for the query lifecycle and for
  /// tests.
  struct PlannedQuery {
    exec::ScanSpec spec;
    opt::OptimizationResult optimization;
    core::TableProfile profile;
    double selectivity = 0.0;
  };
  StatusOr<PlannedQuery> PlanWorkloadQuery(const QueryRequest& request);

  /// The cache behind every optimizer call (never null). Cumulative stats;
  /// WorkloadReport::plan_cache carries the per-workload delta.
  opt::PlanCache* plan_cache() { return &plan_cache_; }

  /// Optimizer-facing statistics for a table.
  core::TableProfile ProfileFor(const storage::Dataset& dataset) const;

  /// Exact selectivity of `pred` on `table` (via the index; used as ground
  /// truth by tests and experiment harnesses).
  StatusOr<double> SelectivityOf(const std::string& table,
                                 exec::RangePredicate pred) const;

  /// Histogram-based selectivity estimate — what the optimizer actually
  /// consults (an equi-width histogram on C2 built at load time).
  StatusOr<double> EstimatedSelectivityOf(const std::string& table,
                                          exec::RangePredicate pred) const;

  StatusOr<const core::EquiWidthHistogram*> HistogramFor(
      const std::string& table) const;

  /// Installs a health monitor on the (outermost) device; subsequent scans
  /// clamp their DOP while the device looks degraded. When `options` has no
  /// explicit baseline and a model is installed, the expected read latency
  /// is derived from it (whole-device band at queue depth 1 — the DTT view,
  /// i.e. the true single-request completion latency). Otherwise `options`
  /// is taken as given: a monitor enabled uncalibrated without a baseline
  /// only observes, even after a later Calibrate(). May be called at most
  /// once per database. Call it before EnableAdmissionControl, which
  /// copies the monitor: it aborts once admission control is enabled.
  void EnableHealthMonitor(io::DeviceHealthMonitor::Options options = {});
  io::DeviceHealthMonitor* health_monitor() { return health_.get(); }

  sim::Simulator& simulator() { return sim_; }
  sim::CpuScheduler& cpu() { return cpu_; }
  /// The device queries run against: the fault injector when configured,
  /// else the raw device.
  io::Device& device() { return disk_.device(); }
  /// The raw (unwrapped) device model; == device() without fault injection.
  io::Device& raw_device() { return *device_; }
  io::FaultInjectingDevice* fault_injector() { return fault_device_.get(); }
  storage::BufferPool& pool() { return pool_; }
  storage::DiskImage& disk() { return disk_; }
  const DatabaseOptions& options() const { return options_; }

 private:
  /// Resolves a forced plan against the catalog (table/index pointers, DOP
  /// and prefetch validation) into an executable exec::ScanSpec — the one
  /// place an AccessMethod becomes a scan.
  StatusOr<exec::ScanSpec> ResolveScanSpec(const ConcurrentScanSpec& spec) const;
  /// The one planner behind ExecuteQuery and PlanWorkloadQuery: histogram
  /// estimate, table profile, then a plan-cache hit or a fresh
  /// Optimizer::ChooseAccessPath (inserted), resolved into a scan.
  StatusOr<PlannedQuery> Plan(const ConcurrentScanSpec& scan,
                              const opt::OptimizerOptions& options,
                              double confidence);
  /// Flushes the pool if asked, then runs `spec` as one query.
  StatusOr<exec::ScanResult> RunSpec(const exec::ScanSpec& spec,
                                     bool flush_pool);

  DatabaseOptions options_;
  sim::Simulator sim_;
  std::unique_ptr<io::Device> device_;
  /// Present iff options_.faults is set; wraps *device_.
  std::unique_ptr<io::FaultInjectingDevice> fault_device_;
  storage::DiskImage disk_;
  storage::BufferPool pool_;
  sim::CpuScheduler cpu_;
  std::unique_ptr<io::DeviceHealthMonitor> health_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<DriftDefense> drift_defense_;
  std::map<std::string, storage::Dataset> tables_;
  std::map<std::string, core::EquiWidthHistogram> histograms_;
  std::optional<core::QdttModel> qdtt_;
  /// Flushed when Calibrate()/InstallModel() replace the model object; its
  /// exact tags cover everything else (DESIGN.md §13).
  opt::PlanCache plan_cache_;
};

}  // namespace pioqo::db

#endif  // PIOQO_DB_DATABASE_H_
