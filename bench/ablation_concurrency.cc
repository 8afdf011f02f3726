// Extension: concurrent queries — the paper's future work ("the optimal
// decision of the optimizer about the queue depth parameter depends on the
// concurrency level of the system ... is considered as a future work").
//
// Part 1 measures how N identical parallel index scans over disjoint ranges
// interact on the shared SSD: total device queue depth composes, each
// stream slows down, but far less than N-fold until the device's NCQ slots
// are oversubscribed.
//
// Part 2 shows the cost-model consequence: dividing the queue-depth budget
// by the concurrency level (OptimizerOptions::concurrent_streams) lets the
// optimizer pick a smaller — and under contention actually faster —
// parallel degree per stream.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "experiment_lib.h"

int main() {
  using namespace pioqo;
  const double scale = bench::ScaleFromEnv();
  auto config = db::PaperExperimentConfig("E33-SSD", scale);
  auto rig = bench::MakeRig(config, /*calibrate=*/true);
  auto cfg = config.DatasetConfigFor();
  db::Database& db = *rig.database;
  // Unlimited caps: every stream is admitted on arrival at its own DOP.
  db.EnableAdmissionControl(
      {.max_concurrent_queries = std::numeric_limits<int>::max(),
       .max_total_dop = std::numeric_limits<int>::max()});

  const double sel = 0.02;
  const int32_t span =
      storage::C2UpperBoundForSelectivity(cfg.c2_domain, sel);
  auto pred_for_stream = [&](int i) {
    // Disjoint ranges so the buffer pool cannot share pages across streams.
    const int32_t base = static_cast<int32_t>(
        (static_cast<int64_t>(cfg.c2_domain) / 8) * i);
    return exec::RangePredicate{base, base + span};
  };

  std::printf("Concurrent PIS32 streams over disjoint 2%% ranges on %s "
              "(scale %.2f)\n\n",
              config.id.c_str(), scale);
  std::printf("%8s %16s %16s %14s\n", "streams", "slowest (ms)",
              "per-stream slow", "mix avg qd");
  double alone_ms = 0.0;
  for (int n : {1, 2, 4, 8}) {
    std::vector<db::Database::QueryRequest> requests(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& req = requests[static_cast<size_t>(i)];
      req.scan = {cfg.name, pred_for_stream(i), core::AccessMethod::kPis, 32,
                  0};
      req.arrival_us = db.simulator().Now();
    }
    db.device().stats().Reset();
    auto report = db.RunWorkload(requests, /*flush_pool=*/true);
    PIOQO_CHECK(report.ok() && report->completed == requests.size());
    double slowest = 0.0;
    for (const auto& q : report->queries) {
      slowest = std::max(slowest, q.latency_us);
    }
    if (n == 1) alone_ms = slowest;
    std::printf("%8d %16s %15.2fx %14.1f\n", n,
                bench::Ms(slowest).c_str(), slowest / alone_ms,
                db.device().stats().AverageQueueDepth(db.simulator().Now()));
  }

  std::printf("\nOptimizer queue-depth budgeting (selectivity %.1f%%):\n",
              sel * 100.0);
  std::printf("%8s %16s\n", "streams", "chosen plan");
  for (int streams : {1, 2, 4, 8, 16}) {
    opt::OptimizerOptions options;
    options.concurrent_streams = streams;
    auto table = db.GetTable(cfg.name);
    PIOQO_CHECK(table.ok());
    opt::Optimizer optimizer(db.qdtt(), core::CostConstants{}, options);
    auto choice = optimizer.ChooseAccessPath(db.ProfileFor(**table), sel);
    std::printf("%8d %16s\n", streams, choice.chosen.ToString().c_str());
  }
  return 0;
}
