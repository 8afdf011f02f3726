#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "db/experiment_config.h"
#include "io/ssd_device.h"

namespace pioqo::bench {

namespace {

using Request = db::Database::QueryRequest;

/// Data pages of every workload's table (32 MiB): four times the 2048-frame
/// pool of the cold, overload and drift workloads, half the 16384-frame
/// pool of the warm one.
constexpr uint32_t kE33Pages = 8192;

/// One class of a cyclic query mix: a forced plan, or a predicate the
/// optimizer plans at arrival time.
struct MixClass {
  double selectivity;
  bool planned;
  core::AccessMethod method = core::AccessMethod::kFts;
  int dop = 1;
  int prefetch_depth = 0;
};

Request RequestFor(const std::string& table, exec::RangePredicate pred,
                   const MixClass& c, double arrival_us) {
  Request req;
  req.scan.table = table;
  req.scan.pred = pred;
  req.use_optimizer = c.planned;
  req.scan.method = c.method;
  req.scan.dop = c.dop;
  req.scan.prefetch_depth = c.prefetch_depth;
  req.arrival_us = arrival_us;
  return req;
}

/// One of the paper's E33 table layouts, with the library's default data
/// seed.
storage::DatasetConfig E33Table(io::DeviceKind device) {
  const db::ExperimentConfig config{"E33", "T33", 33, device, kE33Pages};
  return config.DatasetConfigFor();
}

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(4, static_cast<size_t>(std::llround(
                                 static_cast<double>(n) * scale)));
}

/// Draws in [0, 1) stratified over equal bins: each run of `strata`
/// consecutive draws takes one value from every bin, in an order shuffled
/// from the seed.
class StratifiedDraws {
 public:
  explicit StratifiedDraws(size_t strata) : order_(strata) {}

  double Next(Pcg32& rng) {
    if (next_ % order_.size() == 0) {
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng.Shuffle(order_);
    }
    const size_t bin = order_[next_++ % order_.size()];
    return (static_cast<double>(bin) + rng.NextDouble()) /
           static_cast<double>(order_.size());
  }

 private:
  std::vector<size_t> order_;
  size_t next_ = 0;
};

}  // namespace

Workload::Workload(uint64_t seed, double scale, size_t window_queries,
                   size_t sample_windows)
    : rng_(seed),
      window_queries_(Scaled(window_queries, scale)),
      sample_windows_(sample_windows) {}

std::unique_ptr<db::Database> Workload::Build(TraceLog& trace,
                                              SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  auto database = std::make_unique<db::Database>(options_);

  Clock::time_point phase = Clock::now();
  PIOQO_CHECK_OK(database->CreateTable(table_));
  Clock::time_point end = Clock::now();
  trace.HostSpan("CreateTable", "storage", phase, end);
  times->create_table_s = SecondsBetween(phase, end);

  phase = end;
  calibration_.emplace(database->Calibrate());
  end = Clock::now();
  trace.HostSpan("Calibrate", "core", phase, end);
  times->calibrate_s = SecondsBetween(phase, end);

  phase = end;
  Prepare(*database);
  end = Clock::now();
  trace.HostSpan("warm-up", "exec", phase, end);
  times->warmup_s = SecondsBetween(phase, end);

  times->total_s = SecondsBetween(start, end);
  return database;
}

std::vector<Request> Workload::NextWindow(db::Database& db) {
  double t = db.simulator().Now();
  std::vector<Request> requests;
  requests.reserve(window_queries_);
  const size_t first_index = next_query_;
  for (size_t k = 0; k < window_queries_; ++k) {
    t += NextGapUs();
    requests.push_back(MakeRequest(next_query_++, t));
  }
  OnWindow(db, first_index, requests);
  return requests;
}

exec::RangePredicate Workload::PredicateFor(double selectivity) const {
  return {0, storage::C2UpperBoundForSelectivity(table_.c2_domain,
                                                 selectivity)};
}

double Workload::JitteredGapUs(double mean_us) {
  return mean_us * (0.5 + rng_.NextDouble());
}

namespace {

/// Mean simulated runtime of the mix's classes, each run once serially on a
/// cold pool. It sets the arrival rate, and doubles as the warm-up.
double SerialMeanServiceUs(db::Database& db, const std::string& table,
                           const std::vector<MixClass>& mix,
                           const storage::DatasetConfig& config) {
  double total_us = 0.0;
  for (const MixClass& c : mix) {
    const exec::RangePredicate pred{
        0, storage::C2UpperBoundForSelectivity(config.c2_domain,
                                               c.selectivity)};
    if (c.planned) {
      auto outcome = db.ExecuteQuery(table, pred, /*queue_depth_aware=*/true,
                                     /*flush_pool=*/true);
      PIOQO_CHECK_OK(outcome.status());
      total_us += outcome->scan.runtime_us;
    } else {
      auto scan = db.ExecuteScan(table, pred, c.method, c.dop,
                                 c.prefetch_depth, /*flush_pool=*/true);
      PIOQO_CHECK_OK(scan.status());
      total_us += scan->runtime_us;
    }
  }
  return total_us / static_cast<double>(mix.size());
}

// --- scan_cold_ssd / scan_cold_raid -----------------------------------------

/// Forced FTS/PFTS/IS/PIS plans interleaved with optimizer-planned
/// arrivals, from full-table to needle selectivities.
const std::vector<MixClass> kColdMix = {
    {0.30, false, core::AccessMethod::kFts, 1, 0},
    {0.20, false, core::AccessMethod::kPfts, 8, 0},
    {0.002, false, core::AccessMethod::kIs, 1, 0},
    {0.01, false, core::AccessMethod::kPis, 8, 4},
    {0.02, false, core::AccessMethod::kPis, 4, 2},
    {0.30, true},
    {0.001, true},
    {0.01, true},
};

/// Offered load, as a fraction of what one serial executor sustains (four
/// admitted queries sustain more). At 0.7 the SSD's p99 moves by ~4% from
/// seed to seed, at 0.4 by under 0.1%. The RAID needs a full load for its
/// median query to overlap others: at 0.7 the p50 of every seed is the
/// same unshared full-table scan, to the last digit.
constexpr double kColdSsdLoad = 0.4;
constexpr double kColdRaidLoad = 1.0;
/// Sample windows of 200 queries. The RAID's median moves more with the
/// seed, so it samples 2400 queries to the SSD's 2000.
constexpr size_t kColdSsdSampleWindows = 10;
constexpr size_t kColdRaidSampleWindows = 12;

class ColdScanWorkload : public Workload {
 public:
  ColdScanWorkload(io::DeviceKind device, double load, size_t sample_windows,
                   uint64_t seed, double scale)
      : Workload(seed, scale, /*window_queries=*/200, sample_windows),
        load_(load) {
    options_.device = device;
    // 2048 frames (table 4x pool) with 4 queries / 16 DOP admitted: the
    // pool never runs out of unpinned frames under this mix.
    options_.pool_pages = 2048;
    table_ = E33Table(device);
  }

 protected:
  void Prepare(db::Database& db) override {
    mean_service_us_ = SerialMeanServiceUs(db, table(), kColdMix, table_);
    db::AdmissionOptions admission;
    admission.max_concurrent_queries = 4;
    admission.max_total_dop = 16;
    db.EnableAdmissionControl(admission);
  }

  Request MakeRequest(size_t index, double arrival_us) override {
    const MixClass& c = kColdMix[index % kColdMix.size()];
    return RequestFor(table(), PredicateFor(c.selectivity), c, arrival_us);
  }

  double NextGapUs() override {
    return JitteredGapUs(mean_service_us_ / load_);
  }

 private:
  double load_;
  double mean_service_us_ = 0.0;
};

// --- point_warm_ssd ---------------------------------------------------------

/// Needle widths as fractions of the C2 domain (0.005% .. 0.05%).
constexpr double kNeedleWidths[] = {0.00005, 0.0001, 0.0002, 0.0005};
constexpr int kNeedleStarts = 1024;
/// Start positions are drawn stratified over this many bins.
constexpr size_t kNeedleStrata = 64;
constexpr double kPointMeanGapUs = 500.0;  // 2000 queries/s simulated

class PointWarmWorkload : public Workload {
 public:
  // 100k sample queries: over 20k the p99 moved by ~1% between seeds.
  PointWarmWorkload(uint64_t seed, double scale)
      : Workload(seed, scale, /*window_queries=*/5000, /*sample_windows=*/20),
        starts_(kNeedleStrata) {
    options_.device = io::DeviceKind::kSsdConsumer;
    // Table and index together fit: after the warm-up no query reads the
    // device.
    options_.pool_pages = 16384;
    table_ = E33Table(options_.device);
  }

  void AfterSweep(db::Database& db) override { Warm(db); }

 protected:
  void Prepare(db::Database& db) override {
    Warm(db);
    db.EnableAdmissionControl();
  }

  Request MakeRequest(size_t index, double arrival_us) override {
    const double width = kNeedleWidths[index % 4];
    // Start positions skewed toward the low end of the domain.
    const double u = starts_.Next(rng_);
    const int start = std::min(kNeedleStarts - 1,
                               static_cast<int>(u * u * kNeedleStarts));
    const double domain = static_cast<double>(table_.c2_domain);
    const double low = domain * (1.0 - kNeedleWidths[3]) * start /
                       static_cast<double>(kNeedleStarts);
    const exec::RangePredicate pred{
        static_cast<int32_t>(low), static_cast<int32_t>(low + width * domain)};
    return RequestFor(table(), pred, MixClass{0.0, true}, arrival_us);
  }

  double NextGapUs() override { return JitteredGapUs(kPointMeanGapUs); }

 private:
  StratifiedDraws starts_;

  /// A PFTS loads every data page, then an IS every index page.
  void Warm(db::Database& db) {
    const exec::RangePredicate all = PredicateFor(1.0);
    PIOQO_CHECK_OK(db.ExecuteScan(table(), all, core::AccessMethod::kPfts, 8,
                                  0, /*flush_pool=*/true)
                       .status());
    PIOQO_CHECK_OK(db.ExecuteScan(table(), all, core::AccessMethod::kIs, 1, 0,
                                  /*flush_pool=*/false)
                       .status());
  }
};

// --- overload_hdd -----------------------------------------------------------

/// The overload soak's mix: parallel/serial index and full-table scans.
const std::vector<MixClass> kOverloadMix = {
    {0.01, false, core::AccessMethod::kPis, 8, 4},
    {0.20, false, core::AccessMethod::kPfts, 8, 0},
    {0.02, false, core::AccessMethod::kPis, 4, 2},
    {0.30, false, core::AccessMethod::kFts, 1, 0},
};

constexpr double kOverloadLoad = 2.0;

class OverloadWorkload : public Workload {
 public:
  OverloadWorkload(uint64_t seed, double scale)
      : Workload(seed, scale, /*window_queries=*/300, /*sample_windows=*/7) {
    options_.device = io::DeviceKind::kHdd7200;
    options_.pool_pages = 2048;
    table_ = E33Table(options_.device);
    overloaded_ = true;
  }

 protected:
  void Prepare(db::Database& db) override {
    mean_service_us_ = SerialMeanServiceUs(db, table(), kOverloadMix, table_);
    db::AdmissionOptions admission;
    // One query at a time (up to 16 DOP). With four admitted, the scans'
    // interleaving on the one spindle is chaotic: the p99 moved by 4-8%
    // between seeds at any arrival jitter. Serial, it moves by under 1%.
    admission.max_concurrent_queries = 1;
    admission.max_total_dop = 16;
    // The queue-wait bound sheds about one query in a thousand; deadlines
    // and cancellations remove the rest of the excess first. At 3.5-4x it
    // shed 6-20%, and the served share moved by 0.5% between seeds.
    admission.max_queue_wait_us = 4.5 * mean_service_us_;
    db.EnableAdmissionControl(admission);
  }

  Request MakeRequest(size_t index, double arrival_us) override {
    const MixClass& c = kOverloadMix[index % kOverloadMix.size()];
    Request req = RequestFor(table(), PredicateFor(c.selectivity), c,
                             arrival_us);
    if (index % 4 == 2) req.timeout_us = 4.0 * mean_service_us_;
    if (index % 11 == 10) {
      req.cancel_at_us = arrival_us + rng_.NextDouble() * mean_service_us_;
    }
    return req;
  }

  double NextGapUs() override {
    return JitteredGapUs(mean_service_us_ / kOverloadLoad);
  }

 private:
  double mean_service_us_ = 0.0;
};

// --- drift_ssd --------------------------------------------------------------

/// The drift soak's 30 / 1 / 10 / 2% mix plus a needle. Once the model has
/// been recalibrated under the throttle, every other class plans as a
/// full-table scan, whose sequential reads the throttle does not slow: they
/// cannot show that the device has recovered. The needle stays an index
/// scan, so the detector keeps seeing random reads in both regimes.
constexpr double kDriftSelectivities[] = {0.30, 0.01, 0.10, 0.02, 0.0005};
constexpr size_t kDriftClasses = std::size(kDriftSelectivities);
/// The SSD alternates between healthy and throttled every this many
/// queries, healthy first; a sample window holds four phases.
constexpr size_t kDriftPhaseQueries = 60;
/// Each throttled phase multiplies flash latency by 6 +- 0.25, drawn
/// stratified over five bins, and takes three of every four channels out
/// of rotation. The p99 follows the strongest phases: at 6 +- 0.5 it moved
/// by 0.8% between seeds.
constexpr double kThrottleMultiplier = 6.0;
constexpr double kThrottleMultiplierRange = 0.25;
constexpr size_t kThrottleStrata = 5;
constexpr int kThrottleUnitDivisor = 4;

class DriftWorkload : public Workload {
 public:
  DriftWorkload(uint64_t seed, double scale)
      : Workload(seed, scale, /*window_queries=*/4 * kDriftPhaseQueries,
                 /*sample_windows=*/8),
        throttle_draws_(kThrottleStrata) {
    options_.device = io::DeviceKind::kSsdConsumer;
    // The drift soak's table layout at the E33 size, 4x the pool as there.
    // At the soak's 4096 pages the host speed of a run swung by up to 1.6x
    // from run to run where the other workloads' moved by ~10%.
    options_.pool_pages = 2048;
    table_.name = "T";
    table_.num_rows = 33 * kE33Pages;
  }

 protected:
  void Prepare(db::Database& db) override {
    db.EnableHealthMonitor();
    db.EnableAdmissionControl();
    db::DriftDefenseOptions defense;
    defense.detector.drift_ratio = 2.0;
    defense.calibrator.calibration.max_pages_per_point = 256;
    defense.calibrator.poll_interval_us = 5'000.0;
    defense.calibrator.idle_threshold_us = 20'000.0;
    defense.calibrator.busy_escalation_us = 100'000.0;
    defense.calibrator.busy_probe_interval_us = 20'000.0;
    db.EnableDriftDefense(defense);
    // One healthy PFTS sets the unit of work the arrival spacing scales.
    auto probe = db.ExecuteScan(table(), PredicateFor(0.30),
                                core::AccessMethod::kPfts, 8, 0,
                                /*flush_pool=*/true);
    PIOQO_CHECK_OK(probe.status());
    spacing_us_ = 8.0 * probe->runtime_us;
  }

  /// Installs the throttle phases of this window. A phase starts and ends
  /// midway between two arrivals; one that reaches the window's edge stays
  /// open until the next window, which installs its own.
  void OnWindow(db::Database& db, size_t first_index,
                const std::vector<Request>& requests) override {
    auto* ssd = dynamic_cast<io::SsdDevice*>(&db.raw_device());
    PIOQO_CHECK(ssd != nullptr);
    const auto throttled = [](size_t index) {
      return (index / kDriftPhaseQueries) % 2 == 1;
    };
    const auto midway = [&requests](size_t i) {
      return (requests[i - 1].arrival_us + requests[i].arrival_us) / 2;
    };
    io::SsdThrottleSchedule schedule;
    for (size_t i = 0; i < requests.size(); ++i) {
      const size_t index = first_index + i;
      if (!throttled(index)) continue;
      if (i == 0 || !throttled(index - 1)) {
        io::SsdThrottlePhase phase;
        phase.start_us = i == 0 ? 0.0 : midway(i);
        phase.end_us = 1e15;
        phase.latency_multiplier =
            kThrottleMultiplier +
            kThrottleMultiplierRange * (2.0 * throttle_draws_.Next(rng_) - 1.0);
        phase.unit_divisor = kThrottleUnitDivisor;
        schedule.push_back(phase);
      }
      if (i + 1 < requests.size() && !throttled(index + 1)) {
        schedule.back().end_us = midway(i + 1);
      }
    }
    ssd->SetThrottleSchedule(std::move(schedule));
  }

  Request MakeRequest(size_t index, double arrival_us) override {
    Request req;
    req.scan.table = table();
    req.scan.pred = PredicateFor(kDriftSelectivities[index % kDriftClasses]);
    req.use_optimizer = true;
    req.optimizer.parallel_degrees = {1, 2, 4, 8, 16};
    req.optimizer.dtt_fallback_confidence = 0.6;
    req.arrival_us = arrival_us;
    return req;
  }

  /// The drift soak's spacing: 8 units, jittered +-25%, so queries rarely
  /// overlap even while throttled. At 3-4 units, +-50%, throttled queries
  /// overlapped before the recalibration landed, and on some seeds the
  /// backlog snowballed into p99 latencies of seconds.
  double NextGapUs() override {
    return spacing_us_ * (0.75 + 0.5 * rng_.NextDouble());
  }

 private:
  StratifiedDraws throttle_draws_;
  double spacing_us_ = 0.0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "scan_cold_ssd", "scan_cold_raid", "point_warm_ssd", "overload_hdd",
      "drift_ssd"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double scale) {
  if (name == "scan_cold_ssd") {
    return std::make_unique<ColdScanWorkload>(io::DeviceKind::kSsdConsumer,
                                              kColdSsdLoad,
                                              kColdSsdSampleWindows, seed,
                                              scale);
  }
  if (name == "scan_cold_raid") {
    return std::make_unique<ColdScanWorkload>(io::DeviceKind::kRaid8,
                                              kColdRaidLoad,
                                              kColdRaidSampleWindows, seed,
                                              scale);
  }
  if (name == "point_warm_ssd") {
    return std::make_unique<PointWarmWorkload>(seed, scale);
  }
  if (name == "overload_hdd") {
    return std::make_unique<OverloadWorkload>(seed, scale);
  }
  if (name == "drift_ssd") return std::make_unique<DriftWorkload>(seed, scale);
  return nullptr;
}

}  // namespace pioqo::bench
