#include "layers.h"

#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "db/admission.h"
#include "db/database.h"
#include "exec/scan_operators.h"
#include "io/device_factory.h"
#include "io/query_context.h"
#include "opt/optimizer.h"
#include "opt/plan_cache.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"
#include "storage/disk_image.h"

namespace pioqo::bench {

namespace {

constexpr int kRepetitions = 7;

/// Keeps `value` observable so the compiler cannot drop the work that
/// produced it.
template <typename T>
void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median over kRepetitions of `measure()`, which runs one batch and
/// returns its host nanoseconds per operation.
template <typename F>
double MedianNsPerOp(F&& measure) {
  std::vector<double> samples;
  for (int r = 0; r < kRepetitions; ++r) samples.push_back(measure());
  return Median(std::move(samples));
}

double NsPerOp(Clock::time_point start, size_t ops) {
  return SecondsSince(start) * 1e9 / static_cast<double>(ops);
}

// --- sim --------------------------------------------------------------------

double SimEventNs() {
  constexpr size_t kEvents = 100'000;
  Pcg32 rng(1);
  std::vector<double> times(kEvents);
  for (double& t : times) t = rng.NextDouble() * 1e6;
  return MedianNsPerOp([&] {
    sim::Simulator sim;
    uint64_t fired = 0;
    const Clock::time_point start = Clock::now();
    for (double t : times) sim.ScheduleAt(t, [&fired] { ++fired; });
    sim.Run();
    const double ns = NsPerOp(start, kEvents);
    PIOQO_CHECK(fired == kEvents);
    return ns;
  });
}

sim::Task YieldOnce(sim::Simulator& sim, sim::Latch& done) {
  co_await sim::Delay(sim, 0.0);
  done.CountDown();
}

double SimTaskNs() {
  constexpr size_t kTasks = 20'000;
  return MedianNsPerOp([&] {
    sim::Simulator sim;
    sim::Latch done(sim, kTasks);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kTasks; ++i) YieldOnce(sim, done).Detach();
    sim.Run();
    const double ns = NsPerOp(start, kTasks);
    PIOQO_CHECK(done.done());
    return ns;
  });
}

// --- io ---------------------------------------------------------------------

/// Keeps `depth` random 4 KiB reads outstanding until `total` completed.
struct ClosedLoopReader {
  io::Device& device;
  Pcg32 rng{7};
  size_t to_issue = 0;
  size_t completed = 0;

  void Issue() {
    if (to_issue == 0) return;
    --to_issue;
    constexpr uint64_t kBandPages = 262'144;  // 1 GiB
    const io::IoRequest req{io::IoRequest::Kind::kRead,
                            rng.UniformBelow(kBandPages) * 4096, 4096};
    device.Submit(req, [this](const io::IoResult&) {
      ++completed;
      Issue();
    });
  }
};

double SubmitNs(io::DeviceKind kind) {
  constexpr size_t kRequests = 20'000;
  constexpr int kDepth = 32;
  return MedianNsPerOp([&] {
    sim::Simulator sim;
    std::unique_ptr<io::Device> device = io::MakeDevice(sim, kind);
    ClosedLoopReader reader{*device};
    reader.to_issue = kRequests;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kDepth; ++i) reader.Issue();
    sim.Run();
    const double ns = NsPerOp(start, kRequests);
    PIOQO_CHECK(reader.completed == kRequests);
    return ns;
  });
}

// --- storage ----------------------------------------------------------------

/// A bare buffer pool over a consumer SSD, larger than the pages fetched.
struct PoolFixture {
  static constexpr uint32_t kPages = 2048;

  sim::Simulator sim;
  std::unique_ptr<io::Device> device =
      io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  storage::DiskImage disk{*device};
  storage::PageId first = disk.AllocatePages(kPages);
  storage::BufferPool pool{disk, 2 * kPages};
  /// Every page once, in random order (no device readahead).
  std::vector<storage::PageId> shuffled;

  PoolFixture() {
    for (uint32_t i = 0; i < kPages; ++i) shuffled.push_back(first + i);
    Pcg32 rng(3);
    rng.Shuffle(shuffled);
  }

  void Flush() { PIOQO_CHECK_OK(pool.Clear()); }

  /// Host ns per fetch of `passes` passes over the pages by `fetchers`
  /// coroutines in lockstep.
  double TimeFetches(int fetchers, int passes);
};

sim::Task FetchPages(storage::BufferPool& pool,
                     const std::vector<storage::PageId>& pages, int passes,
                     sim::Latch& done) {
  for (int p = 0; p < passes; ++p) {
    for (storage::PageId pid : pages) {
      storage::BufferPool::PageRef ref = co_await pool.Fetch(pid);
      PIOQO_CHECK(ref.ok()) << ref.status.ToString();
      pool.Unpin(pid);
    }
  }
  done.CountDown();
}

double PoolFixture::TimeFetches(int fetchers, int passes) {
  sim::Latch done(sim, fetchers);
  const Clock::time_point start = Clock::now();
  for (int f = 0; f < fetchers; ++f) {
    FetchPages(pool, shuffled, passes, done).Detach();
  }
  sim.Run();
  const double ns = NsPerOp(
      start, static_cast<size_t>(fetchers) * static_cast<size_t>(passes) *
                 shuffled.size());
  PIOQO_CHECK(done.done());
  return ns;
}

// --- exec, core, opt, db: a small calibrated database -------------------------

struct DatabaseFixture {
  static constexpr uint32_t kTablePages = 1024;

  std::unique_ptr<db::Database> database;
  const storage::Dataset* dataset = nullptr;
  core::TableProfile profile;

  DatabaseFixture() {
    db::DatabaseOptions options;
    options.calibration.max_pages_per_point = 128;  // model shape only
    database = std::make_unique<db::Database>(options);
    storage::DatasetConfig table;
    table.name = "T";
    table.num_rows = 33 * kTablePages;
    table.c2_domain = 1 << 30;
    PIOQO_CHECK_OK(database->CreateTable(table));
    (void)database->Calibrate();
    dataset = *database->GetTable("T");
    // Table and index fully resident for the operator measurements.
    PIOQO_CHECK_OK(database
                       ->ExecuteScan("T", Pred(1.0), core::AccessMethod::kIs,
                                     1, 0, /*flush_pool=*/true)
                       .status());
    profile = database->ProfileFor(*dataset);
  }

  exec::RangePredicate Pred(double selectivity) const {
    return {0, storage::C2UpperBoundForSelectivity(1 << 30, selectivity)};
  }

  /// Host ns per `unit` of one StartScan run to completion.
  double TimeScan(const exec::ScanSpec& spec, bool per_row) {
    db::Database& db = *database;
    exec::ExecContext ctx{db.simulator(), db.cpu(), db.pool(),
                          db.options().constants};
    const Clock::time_point start = Clock::now();
    std::unique_ptr<exec::RunningScan> scan = exec::StartScan(ctx, spec);
    db.simulator().Run();
    const double seconds = SecondsSince(start);
    PIOQO_CHECK(scan->done().done());
    PIOQO_CHECK_OK(scan->aggregate().status);
    const double units =
        per_row ? static_cast<double>(scan->aggregate().rows_matched)
                : static_cast<double>(spec.table->num_pages());
    return seconds * 1e9 / units;
  }
};

sim::Task AdmitRelease(db::AdmissionController& ctrl, sim::Simulator& sim,
                       size_t rounds, sim::Latch& done) {
  io::QueryContext query(sim);
  for (size_t i = 0; i < rounds; ++i) {
    db::AdmissionGrant grant = co_await ctrl.Admit(query, 4);
    PIOQO_CHECK(grant.ok());
    ctrl.Release(grant);
  }
  done.CountDown();
}

}  // namespace

std::vector<Metric> RunLayerHarness(TraceLog& trace) {
  std::vector<Metric> out;
  const auto measure = [&](const char* name, const char* layer,
                           const char* unit, auto&& fn) {
    ScopedSpan span(trace, name, layer);
    out.push_back({name, fn(), unit});
  };

  measure("sim.event_ns", "sim", "ns", SimEventNs);
  measure("sim.task_ns", "sim", "ns", SimTaskNs);
  measure("io.submit_ns.ssd", "io", "ns",
          [] { return SubmitNs(io::DeviceKind::kSsdConsumer); });
  measure("io.submit_ns.hdd", "io", "ns",
          [] { return SubmitNs(io::DeviceKind::kHdd7200); });
  measure("io.submit_ns.raid", "io", "ns",
          [] { return SubmitNs(io::DeviceKind::kRaid8); });

  PoolFixture pf;
  measure("storage.fetch_hit_ns", "storage", "ns", [&] {
    pf.Flush();
    (void)pf.TimeFetches(1, 1);  // load every page
    return MedianNsPerOp([&] { return pf.TimeFetches(1, 8); });
  });
  measure("storage.fetch_miss_ns", "storage", "ns", [&] {
    return MedianNsPerOp([&] {
      pf.Flush();
      return pf.TimeFetches(1, 1);
    });
  });
  measure("storage.fetch_join_ns", "storage", "ns", [&] {
    // Four fetchers in lockstep: the first misses, three join its read.
    // The join cost is what the three add over a lone fetcher.
    constexpr int kFetchers = 4;
    return MedianNsPerOp([&] {
      pf.Flush();
      const double alone = pf.TimeFetches(1, 1);
      pf.Flush();
      const double together = pf.TimeFetches(kFetchers, 1) * kFetchers;
      return (together - alone) / (kFetchers - 1);
    });
  });
  measure("storage.prefetch_block_ns_per_page", "storage", "ns/page", [&] {
    constexpr uint32_t kBlock = 32;
    return MedianNsPerOp([&] {
      pf.Flush();
      const Clock::time_point start = Clock::now();
      for (uint32_t p = 0; p < PoolFixture::kPages; p += kBlock) {
        pf.pool.PrefetchBlock(pf.first + p, kBlock);
      }
      pf.sim.Run();
      return NsPerOp(start, PoolFixture::kPages);
    });
  });

  DatabaseFixture fixture;
  measure("exec.fts_ns_per_page", "exec", "ns/page", [&] {
    exec::ScanSpec spec;
    spec.table = &fixture.dataset->table;
    spec.pred = fixture.Pred(0.30);
    return MedianNsPerOp([&] { return fixture.TimeScan(spec, false); });
  });
  measure("exec.is_ns_per_row", "exec", "ns/row", [&] {
    exec::ScanSpec spec;
    spec.table = &fixture.dataset->table;
    spec.index = &fixture.dataset->index_c2;
    spec.pred = fixture.Pred(0.10);
    return MedianNsPerOp([&] { return fixture.TimeScan(spec, true); });
  });

  const core::QdttModel& model = fixture.database->qdtt();
  const core::CostConstants& constants = fixture.database->options().constants;
  constexpr size_t kCalls = 20'000;
  Pcg32 rng(11);
  std::vector<double> uniforms(2 * kCalls);
  for (double& u : uniforms) u = rng.NextDouble();

  measure("core.qdtt_lookup_ns", "core", "ns", [&] {
    const double max_band = static_cast<double>(model.band_grid().back());
    return MedianNsPerOp([&] {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < kCalls; ++i) {
        KeepAlive(model.Lookup(uniforms[2 * i] * max_band,
                               1.0 + uniforms[2 * i + 1] * 31.0));
      }
      return NsPerOp(start, kCalls);
    });
  });
  measure("core.cost_index_scan_ns", "core", "ns", [&] {
    const core::CostModel cost(model, constants, /*queue_depth_aware=*/true);
    return MedianNsPerOp([&] {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < kCalls; ++i) {
        KeepAlive(cost.CostIndexScan(fixture.profile, uniforms[i], 8, 4)
                      .total_us);
      }
      return NsPerOp(start, kCalls);
    });
  });

  // Arrival-time planning options: only the winner is recorded.
  opt::OptimizerOptions planning;
  planning.record_considered = false;
  measure("opt.choose_access_path_ns", "opt", "ns", [&] {
    const opt::Optimizer optimizer(model, constants, planning);
    constexpr size_t kPlans = 5'000;
    return MedianNsPerOp([&] {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < kPlans; ++i) {
        KeepAlive(optimizer.ChooseAccessPath(fixture.profile,
                                             uniforms[i] * 0.3)
                      .chosen.total_us);
      }
      return NsPerOp(start, kPlans);
    });
  });
  measure("opt.plan_cache_lookup_ns", "opt", "ns", [&] {
    opt::PlanCache cache;
    opt::PlanCache::Key key;
    key.table_id = fixture.dataset->table.first_page();
    key.selectivity = 0.01;
    key.profile = fixture.profile;
    key.options = planning;
    key.model_generation = model.generation();
    const opt::Optimizer optimizer(model, constants, planning);
    cache.Insert(key, optimizer.ChooseAccessPath(fixture.profile, 0.01));
    return MedianNsPerOp([&] {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < kCalls; ++i) {
        const opt::OptimizationResult* hit = cache.Lookup(key);
        PIOQO_CHECK(hit != nullptr);
        KeepAlive(hit);
      }
      return NsPerOp(start, kCalls);
    });
  });

  measure("db.plan_query_ns", "db", "ns", [&] {
    std::vector<db::Database::QueryRequest> requests(64);
    for (size_t i = 0; i < requests.size(); ++i) {
      requests[i].scan.table = "T";
      requests[i].scan.pred = fixture.Pred(0.0005 * static_cast<double>(i + 1));
      requests[i].use_optimizer = true;
    }
    constexpr size_t kPlans = 5'000;
    return MedianNsPerOp([&] {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < kPlans; ++i) {
        auto planned =
            fixture.database->PlanWorkloadQuery(requests[i % requests.size()]);
        PIOQO_CHECK_OK(planned.status());
        KeepAlive(planned->optimization.chosen.total_us);
      }
      return NsPerOp(start, kPlans);
    });
  });
  measure("db.admit_release_ns", "db", "ns", [&] {
    constexpr size_t kRounds = 100'000;
    return MedianNsPerOp([&] {
      sim::Simulator sim;
      db::AdmissionController ctrl(sim, db::AdmissionOptions{});
      sim::Latch done(sim, 1);
      const Clock::time_point start = Clock::now();
      AdmitRelease(ctrl, sim, kRounds, done).Detach();
      sim.Run();
      const double ns = NsPerOp(start, kRounds);
      PIOQO_CHECK(done.done());
      return ns;
    });
  });
  return out;
}

}  // namespace pioqo::bench
