#include "db/database.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/btree.h"

namespace pioqo::db {

Database::Database(DatabaseOptions options)
    : options_(options),
      device_(io::MakeDevice(sim_, options.device)),
      fault_device_(options.faults.has_value()
                        ? std::make_unique<io::FaultInjectingDevice>(
                              *device_, *options.faults)
                        : nullptr),
      disk_(fault_device_ != nullptr ? static_cast<io::Device&>(*fault_device_)
                                     : *device_),
      pool_(disk_, options.pool_pages, options.pool_options),
      cpu_(sim_, options.constants.logical_cores,
           options.constants.physical_cores, options.constants.smt_penalty) {}

void Database::EnableHealthMonitor(io::DeviceHealthMonitor::Options options) {
  // Enable-once: the monitor is the device's completion observer, and
  // admission control and scans hold raw pointers to it.
  PIOQO_CHECK(health_ == nullptr) << "health monitor already enabled";
  // Admission copies the monitor pointer when it is enabled, so a monitor
  // enabled later would clamp scans but never admission.
  PIOQO_CHECK(admission_ == nullptr)
      << "EnableHealthMonitor() after EnableAdmissionControl(): enable the "
         "health monitor first, then admission control";
  if (options.expected_read_latency_us <= 0.0 && qdtt_.has_value()) {
    // Baseline from the calibrated model: one random page read across the
    // whole device at queue depth 1 — the DTT view, which *is* the expected
    // single-request completion latency (a deeper depth amortizes overlap
    // into the per-page cost and would understate it).
    const double band = static_cast<double>(disk_.device().capacity_bytes() /
                                            storage::kPageSize);
    options.expected_read_latency_us = qdtt_->Lookup(band, 1.0);
  }
  health_ = std::make_unique<io::DeviceHealthMonitor>(disk_.device(), options);
}

Status Database::CreateTable(const storage::DatasetConfig& config) {
  if (tables_.contains(config.name)) {
    return Status::InvalidArgument("table exists: " + config.name);
  }
  PIOQO_ASSIGN_OR_RETURN(storage::Dataset ds,
                         storage::BuildDataset(disk_, config));

  // Build the C2 statistics the optimizer consults (sampled for big
  // tables, like a real ANALYZE).
  const uint64_t sample_target = 100'000;
  const uint64_t stride =
      std::max<uint64_t>(1, ds.table.num_rows() / sample_target);
  std::vector<int32_t> sample;
  sample.reserve(ds.table.num_rows() / stride + 1);
  for (uint64_t n = 0; n < ds.table.num_rows(); n += stride) {
    const storage::RowId rid = ds.table.NthRowId(n);
    sample.push_back(ds.table.GetColumn(disk_.PageData(rid.page), rid.slot,
                                        storage::kColumnC2));
  }
  PIOQO_ASSIGN_OR_RETURN(core::EquiWidthHistogram histogram,
                         core::EquiWidthHistogram::Build(sample, 128));

  histograms_.emplace(config.name, std::move(histogram));
  tables_.emplace(config.name, std::move(ds));
  return Status::OK();
}

StatusOr<const core::EquiWidthHistogram*> Database::HistogramFor(
    const std::string& table) const {
  auto it = histograms_.find(table);
  if (it == histograms_.end()) return Status::NotFound("no histogram " + table);
  return &it->second;
}

StatusOr<double> Database::EstimatedSelectivityOf(
    const std::string& table, exec::RangePredicate pred) const {
  PIOQO_ASSIGN_OR_RETURN(const core::EquiWidthHistogram* histogram,
                         HistogramFor(table));
  if (pred.empty()) return 0.0;
  return histogram->EstimateRangeSelectivity(pred.low, pred.high);
}

StatusOr<const storage::Dataset*> Database::GetTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table " + name);
  return &it->second;
}

core::CalibrationResult Database::Calibrate() {
  // Drift defense plans from *qdtt_, its recalibration measures into it,
  // and its detector's references were learned against it; cells restart only per refreshed
  // band (DriftDetector::NoteBandRecalibrated), never for a new model.
  PIOQO_CHECK(drift_defense_ == nullptr)
      << "Calibrate() after EnableDriftDefense(): calibrate first, then "
         "enable the drift defense";
  core::Calibrator calibrator(sim_, *device_, options_.calibration);
  core::CalibrationResult result = calibrator.Calibrate();
  qdtt_ = result.model;
  // A replaced model can carry the generation number the cache's entries
  // were tagged with (generations count SetPoint calls per model object),
  // so the tag cannot vouch across a swap: flush.
  plan_cache_.InvalidateAll();
  return result;
}

Status Database::InstallModel(core::QdttModel model) {
  PIOQO_CHECK(drift_defense_ == nullptr)  // as in Calibrate()
      << "InstallModel() after EnableDriftDefense(): install the model "
         "first, then enable the drift defense";
  if (!model.complete()) {
    return Status::InvalidArgument("QDTT model leaves a grid point unset");
  }
  qdtt_ = std::move(model);
  plan_cache_.InvalidateAll();  // as in Calibrate()
  return Status::OK();
}

const core::QdttModel& Database::qdtt() const {
  PIOQO_CHECK(qdtt_.has_value()) << "database not calibrated";
  return *qdtt_;
}

core::TableProfile Database::ProfileFor(
    const storage::Dataset& dataset) const {
  core::TableProfile profile;
  profile.table_pages = dataset.table.num_pages();
  profile.rows = dataset.table.num_rows();
  profile.rows_per_page = dataset.table.rows_per_page();
  profile.index_height = dataset.index_c2.height();
  profile.index_leaves = dataset.index_c2.num_leaves();
  profile.pool_pages = pool_.capacity();
  // Live cached statistic (the paper's experiments flush the pool before
  // each run, making this 0 there).
  profile.cached_fraction =
      static_cast<double>(pool_.ResidentInRange(
          dataset.table.first_page(), dataset.table.num_pages())) /
      static_cast<double>(dataset.table.num_pages());
  return profile;
}

StatusOr<double> Database::SelectivityOf(const std::string& table,
                                         exec::RangePredicate pred) const {
  PIOQO_ASSIGN_OR_RETURN(const storage::Dataset* ds, GetTable(table));
  if (pred.empty()) return 0.0;
  const uint64_t count = ds->index_c2.CountRange(disk_, pred.low, pred.high);
  return static_cast<double>(count) / static_cast<double>(ds->table.num_rows());
}

StatusOr<exec::ScanResult> Database::ExecuteScan(const std::string& table,
                                                 exec::RangePredicate pred,
                                                 core::AccessMethod method,
                                                 int dop, int prefetch_depth,
                                                 bool flush_pool) {
  PIOQO_ASSIGN_OR_RETURN(
      exec::ScanSpec spec,
      ResolveScanSpec({table, pred, method, dop, prefetch_depth}));
  return RunSpec(spec, flush_pool);
}

StatusOr<exec::ScanResult> Database::RunSpec(const exec::ScanSpec& spec,
                                             bool flush_pool) {
  if (flush_pool) PIOQO_RETURN_IF_ERROR(pool_.Clear());
  exec::ExecContext ctx{sim_, cpu_, pool_, options_.constants, health_.get()};
  exec::ScanResult result = exec::RunScan(ctx, spec);
  // A scan that failed mid-flight still tore down cleanly (all coroutines
  // retired, no pages pinned); surface its error as the query's Status.
  if (!result.ok()) return result.status;
  return result;
}

StatusOr<exec::ScanSpec> Database::ResolveScanSpec(
    const ConcurrentScanSpec& spec) const {
  PIOQO_ASSIGN_OR_RETURN(const storage::Dataset* ds, GetTable(spec.table));
  if (spec.dop < 1 || spec.dop > options_.constants.max_parallel_degree) {
    return Status::InvalidArgument("bad parallel degree");
  }
  if (spec.prefetch_depth < 0) {
    return Status::InvalidArgument("negative prefetch depth");
  }
  exec::ScanSpec es;
  es.table = &ds->table;
  es.pred = spec.pred;
  es.dop = spec.dop;
  es.prefetch_depth = spec.prefetch_depth;
  switch (spec.method) {
    case core::AccessMethod::kFts:
    case core::AccessMethod::kPfts:
      es.index = nullptr;
      break;
    case core::AccessMethod::kIs:
    case core::AccessMethod::kPis:
      es.index = &ds->index_c2;
      break;
    case core::AccessMethod::kSortedIs:
      es.index = &ds->index_c2;
      es.sorted = true;
      break;
  }
  return es;
}

StatusOr<Database::QueryOutcome> Database::ExecuteQuery(
    const std::string& table, exec::RangePredicate pred,
    bool queue_depth_aware, bool flush_pool, opt::OptimizerOptions options) {
  options.queue_depth_aware = queue_depth_aware;
  PIOQO_ASSIGN_OR_RETURN(PlannedQuery planned,
                         Plan({table, pred}, options, /*confidence=*/1.0));
  QueryOutcome outcome;
  outcome.optimization = std::move(planned.optimization);
  PIOQO_ASSIGN_OR_RETURN(outcome.scan, RunSpec(planned.spec, flush_pool));
  return outcome;
}

void Database::EnableAdmissionControl(AdmissionOptions options) {
  // Enable-once: drift defense's probe gate holds a raw pointer to the
  // controller.
  PIOQO_CHECK(admission_ == nullptr) << "admission control already enabled";
  // Drift defense builds its probe gate from the controller when it is
  // enabled; without one its recalibration gets no busy probes.
  PIOQO_CHECK(drift_defense_ == nullptr)
      << "EnableAdmissionControl() after EnableDriftDefense(): enable "
         "admission control first, then the drift defense";
  if (options.health == nullptr) options.health = health_.get();
  admission_ = std::make_unique<AdmissionController>(sim_, options);
}

void Database::EnableDriftDefense(DriftDefenseOptions options) {
  // Enable-once: a replacement would drop the detector's learned state, and
  // a recalibration in flight calls back into the defense it started from.
  PIOQO_CHECK(drift_defense_ == nullptr) << "drift defense already enabled";
  PIOQO_CHECK(qdtt_.has_value())
      << "EnableDriftDefense requires a calibrated model";
  // The recalibrator probes the raw device, like Calibrate() does: it must
  // measure the medium (including degradation regimes, which live in the
  // device models), not the injected transient-fault schedule.
  drift_defense_ = std::make_unique<DriftDefense>(
      sim_, *device_, *qdtt_, admission_.get(), options);
}

StatusOr<Database::PlannedQuery> Database::PlanWorkloadQuery(
    const QueryRequest& request) {
  // Arrival-time planning only needs the winner; EXPLAIN-style callers use
  // ExecuteQuery, where record_considered keeps its default. The chosen
  // plan is unaffected (optimizer.h).
  opt::OptimizerOptions options = request.optimizer;
  options.record_considered = false;
  return Plan(request.scan, options,
              drift_defense_ != nullptr ? drift_defense_->confidence() : 1.0);
}

StatusOr<Database::PlannedQuery> Database::Plan(
    const ConcurrentScanSpec& scan, const opt::OptimizerOptions& options,
    double confidence) {
  if (!calibrated()) {
    return Status::FailedPrecondition("calibrate the database first");
  }
  PIOQO_ASSIGN_OR_RETURN(const storage::Dataset* ds, GetTable(scan.table));
  PlannedQuery planned;
  // Plans are costed from the histogram estimate, as a production optimizer
  // would (the executed result is exact regardless).
  PIOQO_ASSIGN_OR_RETURN(planned.selectivity,
                         EstimatedSelectivityOf(scan.table, scan.pred));
  planned.profile = ProfileFor(*ds);

  const opt::PlanCache::Key key{.table_id = ds->table.first_page(),
                                .selectivity = planned.selectivity,
                                .confidence = confidence,
                                .profile = planned.profile,
                                .options = options,
                                .model_generation = qdtt_->generation()};
  if (const opt::OptimizationResult* cached = plan_cache_.Lookup(key)) {
    planned.optimization = *cached;
  } else {
    const opt::Optimizer optimizer(*qdtt_, options_.constants, options);
    planned.optimization = optimizer.ChooseAccessPath(
        planned.profile, planned.selectivity, confidence);
    plan_cache_.Insert(key, planned.optimization);
  }

  ConcurrentScanSpec chosen = scan;
  chosen.method = planned.optimization.chosen.method;
  chosen.dop = planned.optimization.chosen.dop;
  chosen.prefetch_depth = planned.optimization.chosen.prefetch_depth;
  PIOQO_ASSIGN_OR_RETURN(planned.spec, ResolveScanSpec(chosen));
  return planned;
}

namespace {

Database::QueryTerminal ClassifyTerminal(const Status& st, bool admitted) {
  if (st.ok()) return Database::QueryTerminal::kCompleted;
  switch (st.code()) {
    case StatusCode::kDeadlineExceeded:
      return Database::QueryTerminal::kTimedOut;
    case StatusCode::kCancelled:
      return Database::QueryTerminal::kCancelled;
    case StatusCode::kResourceExhausted:
      // Unadmitted kResourceExhausted is the admission controller shedding;
      // after admission it is a real execution failure (pool exhausted).
      return admitted ? Database::QueryTerminal::kFailed
                      : Database::QueryTerminal::kShed;
    default:
      return Database::QueryTerminal::kFailed;
  }
}

/// One query's whole life: wait for its arrival, flow through admission,
/// execute at the granted DOP, release, classify. The QueryContext lives in
/// this frame, outliving every operator/pool interaction of the query.
sim::Task QueryLifecycle(Database& db, AdmissionController& ctrl,
                         const Database::QueryRequest& req,
                         const exec::ScanSpec& base_spec,
                         Database::QueryReport& out, sim::Latch& all_done) {
  sim::Simulator& sim = db.simulator();
  if (req.arrival_us > sim.Now()) {
    co_await sim::Delay(sim, req.arrival_us - sim.Now());
  }
  io::QueryContext query(sim);
  if (req.timeout_us > 0.0) query.SetDeadline(req.arrival_us + req.timeout_us);
  bool cancel_armed = false;
  uint64_t cancel_token = 0;
  if (req.cancel_at_us >= 0.0) {
    cancel_armed = true;
    cancel_token = sim.ScheduleCancellableAfter(
        std::max(0.0, req.cancel_at_us - sim.Now()), [&query] {
          query.Cancel(Status::Cancelled("injected cancellation"));
        });
  }

  // Arrival-time planning: a use_optimizer query picks its plan *now*, so
  // it sees the model and drift-defense confidence as of its arrival — the
  // mechanism that lets queries behind a device regime change fall back to
  // conservative plans while recalibration is still running.
  exec::ScanSpec spec = base_spec;
  std::optional<Database::PlannedQuery> planned;
  bool planned_ok = true;
  Status plan_status;
  if (req.use_optimizer) {
    StatusOr<Database::PlannedQuery> plan_or = db.PlanWorkloadQuery(req);
    if (plan_or.ok()) {
      planned = std::move(plan_or).value();
      spec = planned->spec;
      out.planned_method = planned->optimization.chosen.method;
      out.planned_dop = planned->optimization.chosen.dop;
      out.plan_dop_clamped = planned->optimization.dop_clamped;
      out.plan_dtt_fallback = planned->optimization.dtt_fallback;
      out.plan_confidence = planned->optimization.model_confidence;
    } else {
      planned_ok = false;
      plan_status = plan_or.status();
    }
  }

  bool admitted = false;
  Status final_status;
  double exec_us = 0.0;
  std::optional<core::PlanCandidate> executed;
  if (!planned_ok) {
    final_status = std::move(plan_status);
  } else {
    AdmissionGrant grant = co_await ctrl.Admit(query, spec.dop);
    out.admit_wait_us = grant.wait_us;
    admitted = grant.ok();
    final_status = grant.status;
    if (admitted) {
      out.granted_dop = grant.dop;
      exec::ExecContext ctx{sim,
                            db.cpu(),
                            db.pool(),
                            db.options().constants,
                            db.health_monitor(),
                            &query};
      spec.dop = grant.dop;
      if (planned.has_value()) {
        // The plan as it will actually run, at the *granted* degree, priced
        // queue-depth-aware however it was chosen (a DTT-fallback plan still
        // runs the device at its real depth): drift defense must measure
        // drift of the grid, not conservatism of the fallback costing.
        executed = core::CostModel(db.qdtt(), db.options().constants,
                                   /*queue_depth_aware=*/true,
                                   req.optimizer.concurrent_streams)
                       .Cost(out.planned_method, planned->profile,
                             planned->selectivity, grant.dop,
                             spec.prefetch_depth);
      }
      const double exec_start = sim.Now();
      auto scan = exec::StartScan(ctx, spec);
      co_await scan->done().Wait();
      exec_us = sim.Now() - exec_start;
      final_status = scan->aggregate().status;
      out.rows_matched = scan->aggregate().rows_matched;
      out.max_c1 = scan->aggregate().max_c1;
      ctrl.Release(grant);
    }
  }
  if (db.drift_defense() != nullptr && executed.has_value() &&
      final_status.ok()) {
    db.drift_defense()->ObserveQuery(*executed, exec_us);
  }
  if (cancel_armed) sim.Cancel(cancel_token);
  out.status = std::move(final_status);
  out.terminal = ClassifyTerminal(out.status, admitted);
  out.latency_us = sim.Now() - req.arrival_us;
  all_done.CountDown();
}

}  // namespace

StatusOr<Database::WorkloadReport> Database::RunWorkload(
    const std::vector<QueryRequest>& requests, bool flush_pool) {
  if (admission_ == nullptr) {
    return Status::FailedPrecondition(
        "RunWorkload requires EnableAdmissionControl()");
  }
  std::vector<exec::ScanSpec> specs;
  specs.reserve(requests.size());
  for (const QueryRequest& req : requests) {
    if (req.arrival_us < sim_.Now()) {
      return Status::InvalidArgument("arrival_us in the simulated past");
    }
    PIOQO_ASSIGN_OR_RETURN(exec::ScanSpec spec, ResolveScanSpec(req.scan));
    specs.push_back(spec);
  }
  if (flush_pool) PIOQO_RETURN_IF_ERROR(pool_.Clear());

  const opt::PlanCacheStats cache_before = plan_cache_.stats();
  WorkloadReport report;
  report.queries.resize(requests.size());
  sim::Latch all_done(sim_, static_cast<int64_t>(requests.size()));
  for (size_t i = 0; i < requests.size(); ++i) {
    QueryLifecycle(*this, *admission_, requests[i], specs[i],
                   report.queries[i], all_done).Detach();
  }
  sim_.Run();
  PIOQO_CHECK(all_done.done()) << "workload did not drain";

  report.admission = admission_->stats();
  for (const QueryReport& q : report.queries) {
    switch (q.terminal) {
      case QueryTerminal::kCompleted: ++report.completed; break;
      case QueryTerminal::kShed:      ++report.shed; break;
      case QueryTerminal::kTimedOut:  ++report.timed_out; break;
      case QueryTerminal::kCancelled: ++report.cancelled; break;
      case QueryTerminal::kFailed:    ++report.failed; break;
    }
  }
  const opt::PlanCacheStats& now = plan_cache_.stats();
  report.plan_cache.hits = now.hits - cache_before.hits;
  report.plan_cache.misses = now.misses - cache_before.misses;
  report.plan_cache.invalidations =
      now.invalidations - cache_before.invalidations;
  return report;
}

}  // namespace pioqo::db
