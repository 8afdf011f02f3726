// Simulation-engine throughput microbench: events/sec on the host wall
// clock. This is the tracked perf baseline for the hot-path
// work in src/sim — every experiment in EXPERIMENTS.md is bottlenecked by
// how fast the discrete-event core turns over its queue, so the numbers
// here are the repo's "how fast is the engine" trajectory.
//
// Emits BENCH_sim_throughput.json (in the current directory, or at
// $PIOQO_BENCH_JSON) so CI can archive the trajectory and gate on a floor.
//
// Workloads:
//   raw_events       self-rescheduling timer chains with realistic (~40 B)
//                    capture payloads — the pure ScheduleAfter/Step cycle
//   cancellable      arm-then-cancel deadline churn (the buffer pool's
//                    timeout pattern): every I/O arms a deadline that is
//                    almost always cancelled
//   coroutines       spawn + Delay-hop + finish of sim::Task workers — the
//                    frame-allocation path
//   ssd_random_reads 4 KiB random reads at QD 32 against the SSD model —
//                    events/sec through a full device model
//   calibration_cell one early-stopping QDTT calibration on the SSD model —
//                    the paper's Sec. 4.4-4.6 workload (stdout also reports
//                    it as calibration cells/sec)
//
// Wall-clock reads are confined to this driver (bench/ is outside the
// determinism-linted simulated paths).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/calibrator.h"
#include "io/device_factory.h"
#include "io/ssd_device.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Scale factor for iteration counts (PIOQO_BENCH_SCALE, default 1.0).
double BenchScale() {
  const char* env = std::getenv("PIOQO_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// Repetitions per workload (PIOQO_BENCH_REPEATS, default 3). The *best*
/// run is reported: on shared/noisy runners the minimum is the measurement
/// least polluted by scheduling interference, and it is what the perf-smoke
/// floor gates on.
int BenchRepeats() {
  const char* env = std::getenv("PIOQO_BENCH_REPEATS");
  if (env == nullptr) return 3;
  const int v = std::atoi(env);
  return v > 0 ? v : 3;
}

struct Result {
  std::string name;
  uint64_t events = 0;
  double seconds = 0.0;
  double per_sec = 0.0;
};

/// Self-rescheduling timer chains. The payload mirrors what real simulator
/// callbacks capture (a this-pointer plus a couple of words of state) and
/// pushes the lambda past std::function's 16-byte inline buffer — the
/// allocation the InlineCallback SBO exists to eliminate.
Result BenchRawEvents(uint64_t target_events) {
  pioqo::sim::Simulator sim;
  struct Chain {
    pioqo::sim::Simulator* sim;
    uint64_t remaining;
    uint64_t counter = 0;
    double period;

    void Fire() {
      ++counter;
      if (--remaining == 0) return;
      sim->ScheduleAfter(period, [this, gen = counter, pad = period] {
        (void)gen;
        (void)pad;
        Fire();
      });
    }
  };
  const int kChains = 64;
  std::vector<Chain> chains;
  chains.reserve(kChains);
  for (int i = 0; i < kChains; ++i) {
    chains.push_back(Chain{&sim, target_events / kChains,
                           0, 1.0 + 0.01 * i});
  }
  const auto start = Clock::now();
  for (auto& c : chains) {
    sim.ScheduleAfter(c.period, [&c] { c.Fire(); });
  }
  sim.Run();
  const double secs = SecondsSince(start);
  Result r{"raw_events", sim.num_executed(), secs,
           static_cast<double>(sim.num_executed()) / secs};
  return r;
}

/// The buffer pool's deadline pattern: every "I/O" arms a cancellable
/// timeout, and the completion (which nearly always wins) cancels it.
Result BenchCancellable(uint64_t target_events) {
  pioqo::sim::Simulator sim;
  struct Churn {
    pioqo::sim::Simulator* sim;
    uint64_t remaining;
    uint64_t fired = 0;

    void Round() {
      if (remaining-- == 0) return;
      const uint64_t token = sim->ScheduleCancellableAfter(
          1000.0, [this] { ++fired; });
      sim->ScheduleAfter(1.0, [this, token] {
        sim->Cancel(token);
        Round();
      });
    }
  };
  const int kStreams = 32;
  std::vector<Churn> streams(
      kStreams, Churn{&sim, target_events / kStreams});
  const auto start = Clock::now();
  for (auto& s : streams) s.Round();
  sim.Run();
  const double secs = SecondsSince(start);
  PIOQO_CHECK(streams[0].fired == 0);  // cancels always won
  // Count scheduled (not executed) events: the cancelled deadlines are the
  // workload here even though they never run.
  const uint64_t total = sim.num_executed() + target_events + kStreams;
  return Result{"cancellable", total, secs,
                static_cast<double>(total) / secs};
}

/// Coroutine frame allocation/recycling: spawn a wave of short-lived Delay
/// workers, run them to completion, repeat.
Result BenchCoroutines(uint64_t target_spawns) {
  pioqo::sim::Simulator sim;
  uint64_t done = 0;
  const uint64_t kWave = 256;
  auto worker = [](pioqo::sim::Simulator& s, uint64_t& counter,
                   double delay) -> pioqo::sim::Task {
    co_await pioqo::sim::Delay(s, delay);
    co_await pioqo::sim::Delay(s, delay);
    ++counter;
  };
  const auto start = Clock::now();
  uint64_t spawned = 0;
  while (spawned < target_spawns) {
    for (uint64_t i = 0; i < kWave; ++i) {
      worker(sim, done, 1.0 + static_cast<double>(i % 7)).Detach();
    }
    spawned += kWave;
    sim.Run();
  }
  const double secs = SecondsSince(start);
  PIOQO_CHECK(done == spawned);
  return Result{"coroutines", spawned, secs,
                static_cast<double>(spawned) / secs};
}

/// Random 4 KiB reads at queue depth 32 against the SSD model — a full
/// device-model event pipeline (admission, flash units, host bus).
Result BenchSsdRandomReads(uint64_t target_reads) {
  pioqo::sim::Simulator sim;
  auto device = pioqo::io::MakeDevice(sim, pioqo::io::DeviceKind::kSsdConsumer);
  struct Slot {
    pioqo::io::Device* device;
    uint64_t remaining;
    uint64_t issued = 0;
    uint64_t rng;

    void Issue() {
      if (remaining-- == 0) return;
      // xorshift: cheap deterministic offsets, no library RNG in the loop.
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const uint64_t pages = device->capacity_bytes() / 4096;
      const uint64_t offset = (rng % pages) * 4096;
      ++issued;
      device->Submit(
          pioqo::io::IoRequest{pioqo::io::IoRequest::Kind::kRead, offset, 4096},
          [this](const pioqo::io::IoResult& result) {
            PIOQO_CHECK(result.ok());
            Issue();
          });
    }
  };
  const int kQd = 32;
  std::vector<Slot> slots;
  slots.reserve(kQd);
  for (int i = 0; i < kQd; ++i) {
    slots.push_back(Slot{device.get(), target_reads / kQd, 0,
                         0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(i)});
  }
  const auto start = Clock::now();
  for (auto& s : slots) s.Issue();
  sim.Run();
  const double secs = SecondsSince(start);
  return Result{"ssd_random_reads", sim.num_executed(), secs,
                static_cast<double>(sim.num_executed()) / secs};
}

/// One early-stopping QDTT calibration against the SSD model: the grid
/// workload (Secs. 4.4-4.6) whose wall-clock cost gates every figure.
Result BenchCalibrationCell(int repeats) {
  const auto start = Clock::now();
  uint64_t events = 0;
  for (int i = 0; i < repeats; ++i) {
    pioqo::sim::Simulator sim;
    auto device =
        pioqo::io::MakeDevice(sim, pioqo::io::DeviceKind::kSsdConsumer);
    pioqo::core::CalibratorOptions options;
    options.max_pages_per_point = 800;
    options.repetitions = 1;
    pioqo::core::Calibrator calibrator(sim, *device, options);
    auto result = calibrator.Calibrate();
    PIOQO_CHECK(result.pages_read > 0);
    events += sim.num_executed();
  }
  const double secs = SecondsSince(start);
  Result r{"calibration_cell", events, secs,
           static_cast<double>(events) / secs};
  return r;
}

void WriteJson(const std::vector<Result>& results) {
  const char* env = std::getenv("PIOQO_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_sim_throughput.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  double raw_events_per_sec = 0.0;
  for (const Result& r : results) {
    if (r.name == "raw_events") raw_events_per_sec = r.per_sec;
    std::fprintf(f,
                 "  \"%s\": {\"events\": %llu, \"seconds\": %.4f, "
                 "\"events_per_sec\": %.0f},\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 r.seconds, r.per_sec);
  }
  std::fprintf(f, "  \"events_per_sec\": %.0f\n", raw_events_per_sec);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const double scale = BenchScale();
  const int repeats = BenchRepeats();
  std::printf("sim_throughput (scale %.2f, best of %d)\n", scale, repeats);
  std::printf("%-18s %14s %10s %14s\n", "workload", "events", "seconds",
              "events/sec");

  std::vector<Result> results;
  auto record = [&](auto&& workload) {
    Result best = workload();
    for (int i = 1; i < repeats; ++i) {
      Result r = workload();
      if (r.seconds < best.seconds) best = std::move(r);
    }
    std::printf("%-18s %14llu %10.3f %14.0f\n", best.name.c_str(),
                static_cast<unsigned long long>(best.events), best.seconds,
                best.per_sec);
    results.push_back(std::move(best));
  };

  record([&] {
    return BenchRawEvents(static_cast<uint64_t>(4'000'000 * scale));
  });
  record([&] {
    return BenchCancellable(static_cast<uint64_t>(1'000'000 * scale));
  });
  record([&] {
    return BenchCoroutines(static_cast<uint64_t>(1'000'000 * scale));
  });
  record([&] {
    return BenchSsdRandomReads(static_cast<uint64_t>(400'000 * scale));
  });

  const int cells = std::max(1, static_cast<int>(3 * scale));
  record([&] { return BenchCalibrationCell(cells); });
  std::printf("%-18s %14d %10s %14.2f  (cells/sec)\n", "  as cells", cells,
              "", cells / results.back().seconds);

  WriteJson(results);
  return 0;
}
