// Extension: overload soak — an open-loop arrival process of mixed index
// and full-table scans replayed against each device kind at a configurable
// multiple of its sustainable load, with the query lifecycle layer
// (admission control, deadlines, cooperative cancellation) absorbing the
// excess. For each device the driver reports terminal-state counts and
// completion-latency percentiles, once with admission control on and once
// with unlimited caps — the A/B that shows what the controller buys.
//
// Environment:
//   PIOQO_SCALE      table scale factor (default 0.5)
//   PIOQO_SOAK_SEED  arrival-process seed (default 42)
//   PIOQO_SOAK_LOAD  arrival rate as a multiple of sustainable (default 2)
//   PIOQO_FAULT_SEED optional chaos schedule, as in every other benchmark

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "experiment_lib.h"

namespace {

using namespace pioqo;

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : def;
}

double EnvDouble(const char* name, double def) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtod(value, nullptr) : def;
}

std::unique_ptr<db::Database> MakeSoakDb(io::DeviceKind kind, double scale) {
  // The table must dwarf the pool (8 MiB, 2048 frames) or the soak degrades
  // into a cache benchmark with nothing to shed; same footprint as the
  // paper's Table 1 configurations.
  db::ExperimentConfig config{"SOAK", "T33", 33, kind,
                              std::max<uint32_t>(
                                  4096, static_cast<uint32_t>(16384 * scale))};
  db::DatabaseOptions options = config.DatabaseOptionsFor();
  bench::ApplyFaultEnv(options);
  auto database = std::make_unique<db::Database>(std::move(options));
  PIOQO_CHECK(database->CreateTable(config.DatasetConfigFor()).ok());
  return database;
}

/// The mix: parallel/serial index scans and full-table scans, cycled.
db::Database::ConcurrentScanSpec MixQuery(size_t i, int32_t domain) {
  auto pred = [domain](double sel) {
    return exec::RangePredicate{
        0, storage::C2UpperBoundForSelectivity(domain, sel)};
  };
  switch (i % 4) {
    case 0: return {"T33", pred(0.01), core::AccessMethod::kPis, 8, 4};
    case 1: return {"T33", pred(0.20), core::AccessMethod::kPfts, 8, 0};
    case 2: return {"T33", pred(0.02), core::AccessMethod::kPis, 4, 2};
    default: return {"T33", pred(0.30), core::AccessMethod::kFts, 1, 0};
  }
}

double MeanServiceUs(io::DeviceKind kind, double scale, int32_t domain) {
  auto database = MakeSoakDb(kind, scale);
  double total = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    auto spec = MixQuery(i, domain);
    auto result = database->ExecuteScan(spec.table, spec.pred, spec.method,
                                        spec.dop, spec.prefetch_depth, true);
    PIOQO_CHECK_OK(result.status());
    total += result->runtime_us;
  }
  return total / 4.0;
}

std::vector<db::Database::QueryRequest> MakeWorkload(
    size_t n, double mean_us, double load, uint64_t seed, int32_t domain) {
  Pcg32 rng(seed);
  std::vector<db::Database::QueryRequest> requests;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    db::Database::QueryRequest req;
    req.scan = MixQuery(i, domain);
    req.arrival_us = t;
    if (i % 4 == 2) req.timeout_us = 4.0 * mean_us;  // a deadline-carrying class
    if (i % 11 == 10) {                              // the occasional Ctrl-C
      req.cancel_at_us = t + rng.NextDouble() * mean_us;
    }
    requests.push_back(req);
    t += -std::log(1.0 - rng.NextDouble()) * (mean_us / load);
  }
  return requests;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(p * (values.size() - 1))];
}

void PrintReport(const char* label, const db::Database::WorkloadReport& r,
                 db::Database& database) {
  std::vector<double> latencies;
  for (const auto& q : r.queries) {
    if (q.terminal == db::Database::QueryTerminal::kCompleted) {
      latencies.push_back(q.latency_us);
    }
  }
  std::printf("  %-14s %4zu ok %3zu shed %3zu timeout %3zu cancel %3zu fail"
              "  peak_run=%-3d",
              label, r.completed, r.shed, r.timed_out, r.cancelled, r.failed,
              r.admission.peak_running);
  if (!latencies.empty()) {
    std::printf("  p50=%s p90=%s p99=%s max=%s",
                bench::Ms(Percentile(latencies, 0.5)).c_str(),
                bench::Ms(Percentile(latencies, 0.9)).c_str(),
                bench::Ms(Percentile(latencies, 0.99)).c_str(),
                bench::Ms(Percentile(latencies, 1.0)).c_str());
  }
  std::printf("\n");
  const std::string faults = bench::FaultSummary(database);
  if (!faults.empty()) std::printf("  %s\n", faults.c_str());
}

}  // namespace

int main() {
  const double scale = bench::ScaleFromEnv();
  const uint64_t seed = EnvU64("PIOQO_SOAK_SEED", 42);
  const double load = EnvDouble("PIOQO_SOAK_LOAD", 2.0);
  const size_t queries = std::max<size_t>(24, static_cast<size_t>(96 * scale));
  const int32_t domain = 1 << 30;  // ExperimentConfig's C2 domain

  std::printf("Overload soak: %zu mixed IS/FTS queries, open-loop at %.1fx "
              "sustainable load (seed %llu, scale %.2f)\n\n",
              queries, load, static_cast<unsigned long long>(seed), scale);

  for (auto kind : {io::DeviceKind::kHdd7200, io::DeviceKind::kSsdConsumer,
                    io::DeviceKind::kRaid8}) {
    const double mean_us = MeanServiceUs(kind, scale, domain);
    const auto requests = MakeWorkload(queries, mean_us, load, seed, domain);
    std::printf("%s (mean service %s):\n", io::DeviceKindName(kind).data(),
                bench::Ms(mean_us).c_str());

    db::AdmissionOptions admission;
    admission.max_concurrent_queries = 4;
    admission.max_total_dop = 16;
    admission.max_queue_wait_us = 6.0 * mean_us;
    {
      auto database = MakeSoakDb(kind, scale);
      database->EnableAdmissionControl(admission);
      auto report = database->RunWorkload(requests, true);
      PIOQO_CHECK_OK(report.status());
      PrintReport("admission on", *report, *database);
    }
    {
      auto database = MakeSoakDb(kind, scale);
      db::AdmissionOptions off = admission;  // no gate: unlimited caps
      off.max_concurrent_queries = std::numeric_limits<int>::max();
      off.max_total_dop = std::numeric_limits<int>::max();
      database->EnableAdmissionControl(off);
      auto report = database->RunWorkload(requests, true);
      PIOQO_CHECK_OK(report.status());
      PrintReport("admission off", *report, *database);
    }
    std::printf("\n");
  }
  return 0;
}
