// End-to-end drift-defense soak (DESIGN.md §12): an optimizer-planned
// open-loop workload on an SSD that thermally throttles mid-run.
//
//   1. Completed queries feed predicted-vs-observed runtime into the
//      DriftDetector; the regime change degrades model confidence.
//   2. Queries planned after detection fall back (DOP clamp / DTT costing).
//   3. The guarded recalibration refreshes the drifted bands and merges the
//      new points into the live model, and confidence recovers once the
//      refreshed predictions hold.
//   4. A/B: with the defense on, the recovery tail's p50 returns to within
//      2x of the pre-fault p50 while the device stays throttled; with it
//      off the same workload never reacts and its tail stays >= 10x.
//   5. The same seed replays bit-identically, defense on or off.
//   6. Saturation: under a 10x throttle the jittered arrivals outlast their
//      spacing and pile up; every query still completes, and the replay
//      stays bit-identical.
//   7. Every defense at once: the health monitor, admission with a
//      queue-wait bound, the chaos schedule with retries, deadlines and
//      injected cancels join the drift defense under the 6x throttle. Every
//      query ends in a terminal state other than failed, every completed
//      query returns the exact row count, a recalibration completes, and
//      the replay stays bit-identical.
//
// The refresh's own rules are tested on a DriftDefense driven directly,
// without a database: it defers to foreground I/O, starves on a never-idle
// device without admission control, escalates to busy probes with it, and
// refuses options that name another grid or repetitions, or whose pacing
// would stall or abort the simulator.

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "db/database.h"
#include "io/device_factory.h"
#include "io/ssd_device.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "soak_test_util.h"
#include "storage/page.h"

namespace pioqo {
namespace {

using db::AdmissionController;
using db::AdmissionOptions;
using db::Database;
using db::DatabaseOptions;
using db::DriftDefense;
using db::DriftDefenseOptions;
using db::RecalibrationOptions;
using db::testing::ChaosSchedule;
using db::testing::ExpectDrained;
using db::testing::Gaps;
using db::testing::OpenLoopArrivals;
using db::testing::Percentile;
using db::testing::PredFor;
using db::testing::SoakTable;

/// The throttle arms halfway between this query's arrival and the next.
constexpr size_t kFaultAfterQuery = 10;

std::unique_ptr<Database> MakeDb(std::optional<io::FaultConfig> faults) {
  DatabaseOptions options;
  options.device = io::DeviceKind::kSsdConsumer;
  // Under a harsh throttle the open-loop arrivals outlast their spacing
  // and stack up; 1024 frames give the 8 admitted queries headroom to pin
  // their working sets without exhausting the pool (the table still dwarfs
  // the pool 4:1, so scans stay I/O bound). At 512 frames the saturating
  // run fails 7 of its 30 queries with "buffer pool exhausted".
  options.pool_pages = 1024;
  // A lighter calibration keeps the soak fast; the grid is unchanged.
  options.calibration.max_pages_per_point = 512;
  options.faults = faults;
  if (faults.has_value()) db::testing::ArmRetries(options);
  auto db = std::make_unique<Database>(std::move(options));
  PIOQO_CHECK(db->CreateTable(SoakTable()).ok());
  db->Calibrate();
  return db;
}

Database::QueryRequest MixQuery(size_t i) {
  static constexpr double kSelectivities[4] = {0.30, 0.01, 0.10, 0.02};
  Database::QueryRequest req;
  req.scan.table = "T";
  req.scan.pred = PredFor(SoakTable(), kSelectivities[i % 4]);
  req.use_optimizer = true;
  req.optimizer.parallel_degrees = {1, 2, 4, 8, 16};
  // React to mild distrust with a clamp and to strong distrust with DTT
  // costing (0.6 is still <= the clamp threshold, as the optimizer checks).
  req.optimizer.dtt_fallback_confidence = 0.6;
  return req;
}

/// One soak: the headline is a permanent 6x throttle under 60 evenly
/// spaced queries.
struct DriftScenario {
  bool defense_on = true;
  double throttle_mult = 6.0;
  size_t queries = 60;
  Gaps gaps = Gaps::kFixed;
  uint64_t seed = 0;
  /// Every other defense on too: the health monitor, admission with a
  /// queue-wait bound, the chaos schedule with retries, a deadline on
  /// every 4th query and an injected cancel on every 11th.
  bool every_defense = false;
};

struct SoakOutcome {
  Database::WorkloadReport report;
  DriftDefense::Stats defense;
  double final_confidence = 1.0;
  /// Live-model cost of the table-sized band at qd 8, before/after the run.
  double lookup_before = 0.0;
  double lookup_after = 0.0;
  uint64_t trace_hash = 0;
  /// Each request's exact answer size, counted through the index.
  std::vector<uint64_t> exact_rows;
};

/// Calibrates, arms a permanent thermal-throttle regime starting shortly
/// after query kFaultAfterQuery, and replays the optimizer-planned
/// workload.
SoakOutcome RunDriftSoak(const DriftScenario& scenario) {
  auto db = MakeDb(scenario.every_defense
                       ? std::optional(ChaosSchedule(/*seed=*/7))
                       : std::nullopt);

  // One throwaway scan measures the healthy unit of work; arrivals are
  // spaced far enough apart that even 6x-throttled queries rarely overlap.
  // The scan bypasses admission and the drift defense, so enabling them
  // after it changes no event.
  auto probe = db->ExecuteScan("T", MixQuery(0).scan.pred,
                               core::AccessMethod::kPfts, /*dop=*/8,
                               /*prefetch_depth=*/0, /*flush_pool=*/true);
  PIOQO_CHECK_OK(probe.status());
  const double unit_us = probe->runtime_us;
  const double start_us = db->simulator().Now() + 10'000.0;
  const double spacing_us = 8.0 * unit_us;

  AdmissionOptions admission;
  if (scenario.every_defense) {
    db->EnableHealthMonitor();  // before admission, which then clamps by it
    admission.max_queue_wait_us = 5.0 * unit_us;
  }
  db->EnableAdmissionControl(admission);
  if (scenario.defense_on) {
    DriftDefenseOptions options;
    options.detector.drift_ratio = 2.0;  // headroom over concurrency noise
    options.calibrator.calibration.max_pages_per_point = 256;
    options.calibrator.poll_interval_us = 5'000.0;
    options.calibrator.idle_threshold_us = 20'000.0;
    options.calibrator.busy_escalation_us = 100'000.0;
    options.calibrator.busy_probe_interval_us = 20'000.0;
    db->EnableDriftDefense(options);
  }

  auto* ssd = dynamic_cast<io::SsdDevice*>(&db->raw_device());
  PIOQO_CHECK(ssd != nullptr);
  io::SsdThrottlePhase phase;
  phase.start_us =
      start_us + (static_cast<double>(kFaultAfterQuery) + 0.5) * spacing_us;
  phase.end_us = 1e15;  // the new permanent regime
  phase.latency_multiplier = scenario.throttle_mult;
  phase.unit_divisor = 4;
  ssd->SetThrottleSchedule({phase});

  const std::vector<double> arrivals =
      OpenLoopArrivals(scenario.queries, start_us, spacing_us, scenario.gaps,
                       scenario.seed);
  Pcg32 cancel_rng(scenario.seed, /*stream=*/11);
  const storage::Dataset* table = *db->GetTable("T");
  SoakOutcome out;
  std::vector<Database::QueryRequest> requests;
  for (size_t i = 0; i < scenario.queries; ++i) {
    Database::QueryRequest req = MixQuery(i);
    req.arrival_us = arrivals[i];
    if (scenario.every_defense) {
      if (i % 4 == 2) req.timeout_us = 2.0 * unit_us;
      if (i % 11 == 10) {
        req.cancel_at_us = arrivals[i] + cancel_rng.NextDouble() * unit_us;
      }
    }
    requests.push_back(req);
    out.exact_rows.push_back(table->index_c2.CountRange(
        db->disk(), req.scan.pred.low, req.scan.pred.high));
  }

  out.lookup_before = db->qdtt().Lookup(4096.0, 8.0);
  auto report = db->RunWorkload(requests, /*flush_pool=*/true);
  PIOQO_CHECK_OK(report.status());
  out.report = std::move(report).value();
  out.lookup_after = db->qdtt().Lookup(4096.0, 8.0);
  if (db->drift_defense() != nullptr) {
    out.defense = db->drift_defense()->stats();
    out.final_confidence = db->drift_defense()->confidence();
  }
  out.trace_hash = db->simulator().trace_hash();
  ExpectDrained(*db, "drift soak");
  return out;
}

/// Completion-latency p50 of the recovery tail (the last third of the
/// request order) over that of the healthy queries before the throttle.
double TailOverPreP50(const Database::WorkloadReport& report) {
  std::vector<double> pre;
  std::vector<double> tail;
  const size_t tail_begin = report.queries.size() - report.queries.size() / 3;
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const Database::QueryReport& q = report.queries[i];
    if (q.terminal != Database::QueryTerminal::kCompleted) continue;
    if (i < kFaultAfterQuery) pre.push_back(q.latency_us);
    if (i >= tail_begin) tail.push_back(q.latency_us);
  }
  return Percentile(tail, 0.5) / Percentile(pre, 0.5);
}

TEST(DriftDefenseSoakTest, DetectsFallsBackRecalibratesAndRecovers) {
  const SoakOutcome on = RunDriftSoak({});
  ASSERT_EQ(on.report.queries.size(), 60u);
  EXPECT_EQ(on.report.failed, 0u);
  EXPECT_GT(on.report.completed, 50u);

  // 1. Detection: completed queries were observed and confidence dropped at
  //    some point — visible as plan-time confidence below 1.
  EXPECT_GT(on.defense.observations, 20u);
  size_t distrusted = 0;
  size_t reacted = 0;
  for (const auto& q : on.report.queries) {
    if (q.plan_confidence < 1.0) ++distrusted;
    if (q.plan_dop_clamped || q.plan_dtt_fallback) ++reacted;
  }
  EXPECT_GT(distrusted, 0u) << "no query ever planned under reduced confidence";

  // 2. Fallback: at least one distrusted query actually changed shape.
  EXPECT_GT(reacted, 0u) << "low confidence never clamped or fell back";

  // 3. Guarded recalibration ran to completion and rewrote the live model:
  //    the table-sized band's qd-8 cost now reflects the 6x-throttled device.
  EXPECT_GE(on.defense.recalibrations_triggered, 1u);
  EXPECT_GE(on.defense.recalibrations_completed, 1u);
  EXPECT_GE(on.defense.bands_refreshed, 1u);
  EXPECT_GE(on.defense.points_merged, 6u);
  EXPECT_GT(on.lookup_after, on.lookup_before * 1.5);

  // 4. Recovery: once the refreshed predictions hold, confidence climbs
  //    back, the tail of the workload plans at (near) full trust, and its
  //    p50 is back near the healthy baseline although the device stays
  //    throttled: the refreshed grid re-ranks plans onto the sequential
  //    path the stale model never re-prices.
  EXPECT_GT(on.final_confidence, 0.9);
  EXPECT_GT(on.report.queries.back().plan_confidence, 0.9);
  EXPECT_LE(TailOverPreP50(on.report), 2.0);
}

TEST(DriftDefenseSoakTest, DefenseOffNeverReactsAndTracesDiverge) {
  const SoakOutcome off = RunDriftSoak({.defense_on = false});
  ASSERT_EQ(off.report.queries.size(), 60u);
  // Without the defense the planner never loses trust in the stale model.
  for (const auto& q : off.report.queries) {
    EXPECT_EQ(q.plan_confidence, 1.0);
    EXPECT_FALSE(q.plan_dop_clamped);
    EXPECT_FALSE(q.plan_dtt_fallback);
  }
  EXPECT_EQ(off.defense.observations, 0u);
  // So the tail keeps paying the throttle in full.
  EXPECT_GE(TailOverPreP50(off.report), 10.0);

  // The A/B runs genuinely diverge (the defense replans and recalibrates).
  const SoakOutcome on = RunDriftSoak({});
  EXPECT_NE(on.trace_hash, off.trace_hash);
}

TEST(DriftDefenseSoakTest, SameSeedReplayIsBitIdentical) {
  const SoakOutcome a = RunDriftSoak({});
  const SoakOutcome b = RunDriftSoak({});
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.defense.points_merged, b.defense.points_merged);
  EXPECT_EQ(a.report.completed, b.report.completed);
}

TEST(DriftDefenseSoakTest, SaturatingThrottleCompletesEveryQueryAndReplays) {
  const DriftScenario harsh{.throttle_mult = 10.0,
                            .queries = 30,
                            .gaps = Gaps::kJittered,
                            .seed = 2};
  for (bool defense_on : {true, false}) {
    DriftScenario scenario = harsh;
    scenario.defense_on = defense_on;
    const SoakOutcome a = RunDriftSoak(scenario);
    EXPECT_EQ(a.report.completed, harsh.queries) << "defense " << defense_on;
    const SoakOutcome b = RunDriftSoak(scenario);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "defense " << defense_on;
  }
}

TEST(DriftDefenseSoakTest, EveryDefenseAtOnceAnswersExactlyAndReplays) {
  const DriftScenario all{.every_defense = true};
  const SoakOutcome a = RunDriftSoak(all);
  const Database::WorkloadReport& r = a.report;
  ASSERT_EQ(r.queries.size(), all.queries);
  EXPECT_EQ(r.completed + r.shed + r.timed_out + r.cancelled, all.queries);
  for (size_t i = 0; i < r.queries.size(); ++i) {
    const Database::QueryReport& q = r.queries[i];
    EXPECT_NE(q.terminal, Database::QueryTerminal::kFailed)
        << "query " << i << ": " << q.status.ToString();
    if (q.terminal == Database::QueryTerminal::kCompleted) {
      EXPECT_EQ(q.rows_matched, a.exact_rows[i]) << "query " << i;
    }
  }
  EXPECT_GE(a.defense.recalibrations_completed, 1u);

  const SoakOutcome b = RunDriftSoak(all);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

// --- The refresh, driven directly ----------------------------------------

/// Refresh options that measure quickly: 200 pages a point, 5 ms polls and
/// a 10 ms idle threshold.
DriftDefenseOptions FastRefresh() {
  DriftDefenseOptions options;
  options.calibrator.calibration.max_pages_per_point = 200;
  options.calibrator.poll_interval_us = 5'000.0;
  options.calibrator.idle_threshold_us = 10'000.0;
  return options;
}

/// A complete model on a three-band grid, as an installed one would be.
core::QdttModel InstalledModel() {
  core::QdttModel model({1, 4096, 1 << 22}, core::QdttModel::DefaultQdGrid());
  for (size_t b = 0; b < model.num_bands(); ++b) {
    for (size_t q = 0; q < model.num_qds(); ++q) {
      model.SetPoint(b, q, 100.0 * static_cast<double>(b + 1));
    }
  }
  return model;
}

/// Drifts the cell at band 4096, queue depth 4: kMinSamples runs learn its
/// reference, then as many at 4x cross drift_ratio, which starts a refresh
/// of that one row.
void DriftOneRow(DriftDefense& defense) {
  core::PlanCandidate plan;
  plan.band_pages = 4096.0;
  plan.queue_depth = 4.0;
  plan.io_us = 900.0;
  plan.cpu_us = 100.0;
  plan.total_us = 1000.0;
  const uint64_t min_samples = core::DriftDetector::kMinSamples;
  for (uint64_t i = 0; i < min_samples; ++i) defense.ObserveQuery(plan, 1e3);
  for (uint64_t i = 0; i < min_samples; ++i) defense.ObserveQuery(plan, 4e3);
  ASSERT_EQ(defense.stats().recalibrations_triggered, 1u);
}

/// Bursts of 20 random reads, `period_us` apart. After the last burst,
/// stores the model's generation in `*generation_after_load`.
sim::Task ForegroundBursts(sim::Simulator& sim, io::Device& device,
                           int bursts, double period_us,
                           const core::QdttModel& model,
                           uint64_t* generation_after_load) {
  Pcg32 rng(77);
  const uint64_t pages = device.capacity_bytes() / storage::kPageSize;
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE((co_await device.Read(rng.UniformBelow(pages) *
                                            storage::kPageSize,
                                        storage::kPageSize))
                      .ok());
    }
    *generation_after_load = model.generation();
    co_await sim::Delay(sim, period_us);
  }
}

/// Back-to-back random reads until `until_us`: the device never satisfies
/// the idle threshold while this runs.
sim::Task ContinuousLoad(sim::Simulator& sim, io::Device& device,
                         double until_us) {
  Pcg32 rng(123);
  const uint64_t pages = device.capacity_bytes() / storage::kPageSize;
  while (sim.Now() < until_us) {
    EXPECT_TRUE((co_await device.Read(rng.UniformBelow(pages) *
                                          storage::kPageSize,
                                      storage::kPageSize))
                    .ok());
  }
}

TEST(DriftDefenseRefreshTest, DefersToForegroundBursts) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  core::QdttModel model = InstalledModel();
  DriftDefenseOptions options = FastRefresh();
  options.calibrator.idle_threshold_us = 30'000.0;
  DriftDefense defense(sim, *ssd, model, /*admission=*/nullptr, options);
  // Bursts every 20 ms against a 30 ms idle threshold: while they run, the
  // device never looks idle, so no point may be measured.
  const uint64_t generation = model.generation();
  uint64_t generation_after_load = 0;
  ForegroundBursts(sim, *ssd, /*bursts=*/40, /*period_us=*/20'000.0, model,
                   &generation_after_load).Detach();
  DriftOneRow(defense);
  sim.Run();
  EXPECT_EQ(generation_after_load, generation);
  EXPECT_EQ(defense.stats().recalibrations_completed, 1u);
  EXPECT_EQ(model.generation(), generation + model.num_qds());
}

TEST(DriftDefenseRefreshTest, NeverIdleDeviceStarvesWithoutAdmission) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  core::QdttModel model = InstalledModel();
  const DriftDefenseOptions options = FastRefresh();
  DriftDefense defense(sim, *ssd, model, /*admission=*/nullptr, options);
  ContinuousLoad(sim, *ssd, /*until_us=*/2'000'000.0).Detach();
  const uint64_t generation = model.generation();
  DriftOneRow(defense);
  uint64_t generation_under_load = 0;
  sim.ScheduleAt(1'900'000.0,
                 [&] { generation_under_load = model.generation(); });
  sim.Run();
  EXPECT_EQ(generation_under_load, generation)
      << "an idle-only refresh should starve";
  EXPECT_EQ(defense.stats().recalibrations_completed, 1u)
      << "but complete once the load stops";
  EXPECT_EQ(model.generation(), generation + model.num_qds());
}

TEST(DriftDefenseRefreshTest, AdmissionEscalatesToBusyProbes) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  core::QdttModel model = InstalledModel();
  AdmissionController admission(sim, AdmissionOptions{});
  DriftDefenseOptions options = FastRefresh();
  options.calibrator.busy_escalation_us = 100'000.0;
  options.calibrator.busy_probe_interval_us = 20'000.0;
  DriftDefense defense(sim, *ssd, model, &admission, options);
  ContinuousLoad(sim, *ssd, /*until_us=*/2'000'000.0).Detach();
  const uint64_t generation = model.generation();
  DriftOneRow(defense);
  uint64_t generation_under_load = 0;
  uint64_t completed_under_load = 0;
  sim.ScheduleAt(1'900'000.0, [&] {
    generation_under_load = model.generation();
    completed_under_load = defense.stats().recalibrations_completed;
  });
  sim.Run();
  EXPECT_GT(generation_under_load, generation)
      << "escalation must make progress";
  EXPECT_EQ(completed_under_load, 1u) << "the whole row, under load";
  EXPECT_EQ(model.generation(), generation + model.num_qds());
  // Every busy probe's background charge was released.
  EXPECT_EQ(admission.background_dop(), 0);
}

/// Constructs a DriftDefense with refresh options `recalibration`, on
/// InstalledModel()'s grid.
void ConstructDefense(const RecalibrationOptions& recalibration) {
  sim::Simulator sim;
  auto ssd = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  core::QdttModel model = InstalledModel();
  DriftDefenseOptions options;
  options.calibrator = recalibration;
  DriftDefense defense(sim, *ssd, model, /*admission=*/nullptr, options);
}

TEST(DriftDefenseDeathTest, RejectsRepetitions) {
  // The refresh measures each point once; averaging repetitions is the
  // offline calibrator's, so a larger value would silently be ignored.
  RecalibrationOptions repeated = FastRefresh().calibrator;
  repeated.calibration.repetitions = 2;
  EXPECT_DEATH(ConstructDefense(repeated), "repetitions must be 1");
}

TEST(DriftDefenseDeathTest, RejectsPacingThatStallsOrAborts) {
  // A zero poll interval livelocks a refresh waiting on a busy device (each
  // poll re-queues it at the same instant), and a negative or NaN wait
  // aborts the simulator mid-run: both abort here instead, naming the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {0.0, -1.0, nan, inf}) {
    RecalibrationOptions options = FastRefresh().calibrator;
    options.poll_interval_us = bad;
    EXPECT_DEATH(ConstructDefense(options),
                 "poll_interval_us must be positive and finite")
        << bad;
  }
  for (double bad : {-1.0, nan, inf}) {
    RecalibrationOptions idle = FastRefresh().calibrator;
    idle.idle_threshold_us = bad;
    EXPECT_DEATH(ConstructDefense(idle),
                 "idle_threshold_us must be non-negative and finite")
        << bad;
    RecalibrationOptions escalation = FastRefresh().calibrator;
    escalation.busy_escalation_us = bad;
    EXPECT_DEATH(ConstructDefense(escalation),
                 "busy_escalation_us must be non-negative and finite")
        << bad;
    RecalibrationOptions probe = FastRefresh().calibrator;
    probe.busy_probe_interval_us = bad;
    EXPECT_DEATH(ConstructDefense(probe),
                 "busy_probe_interval_us must be non-negative and finite")
        << bad;
  }
  // The boundaries themselves are accepted.
  RecalibrationOptions edge = FastRefresh().calibrator;
  edge.poll_interval_us = 1e-3;
  edge.idle_threshold_us = 0.0;
  edge.busy_escalation_us = 0.0;
  edge.busy_probe_interval_us = 0.0;
  ConstructDefense(edge);
}

TEST(DriftDefenseDeathTest, RejectsAGridOtherThanTheModels) {
  // The refresh measures the live model's grid; options naming another
  // grid would otherwise be silently ignored.
  RecalibrationOptions other_bands = FastRefresh().calibrator;
  other_bands.calibration.band_grid = {1, 8192, 1 << 22};
  EXPECT_DEATH(ConstructDefense(other_bands),
               "grid must match the live model's grid");
  RecalibrationOptions other_depths = FastRefresh().calibrator;
  other_depths.calibration.qd_grid = {1, 4, 16};
  EXPECT_DEATH(ConstructDefense(other_depths),
               "grid must match the live model's grid");
}

}  // namespace
}  // namespace pioqo
