// Property test for cooperative cancellation: inject a cancellation at a
// random (seeded) simulated instant during each query of a four-plan scan
// workload on every device kind, and verify the query unwinds cleanly every
// time —
//
//   1. The query reaches a terminal state: cancelled, or completed with
//      exactly the fault-free answer when the cancel landed after the
//      finish line.
//   2. Nothing leaks: no pinned frames (pool Clear() succeeds), no in-flight
//      reads, no suspended workers (PIOQO_SIM_CHECKS quiescent), a fully
//      drained simulator event queue, no device request outstanding and
//      empty admission ledgers.
//   3. The same seed reproduces the same trace hash bit-for-bit.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "db/database.h"
#include "soak_test_util.h"

namespace pioqo {
namespace {

using db::Database;
using db::DatabaseOptions;
using db::testing::ExpectDrained;
using db::testing::PredFor;
using db::testing::ScriptQuery;
using db::testing::ScriptTable;

/// The shared four-plan script as workload requests, arrivals serialized
/// so each cancel instant targets a known query.
std::vector<Database::QueryRequest> QueryMix() {
  std::vector<Database::QueryRequest> requests;
  for (const ScriptQuery& q : db::testing::kScript) {
    Database::QueryRequest req;
    req.scan = {"T", PredFor(ScriptTable(), q.selectivity), q.method, q.dop,
                q.prefetch_depth};
    req.arrival_us = static_cast<double>(requests.size()) * 2'000'000.0;
    requests.push_back(req);
  }
  return requests;
}

struct LifecycleRun {
  db::Database::WorkloadReport report;
  uint64_t trace_hash = 0;
};

LifecycleRun RunMix(io::DeviceKind kind,
                    const std::vector<Database::QueryRequest>& requests) {
  DatabaseOptions options;
  options.device = kind;
  Database db(options);
  PIOQO_CHECK(db.CreateTable(ScriptTable()).ok());
  db.EnableAdmissionControl({});
  auto report = db.RunWorkload(requests, /*flush_pool=*/true);
  PIOQO_CHECK_OK(report.status());

  // The leak checks: every pin returned, every read completed or
  // reclaimed, every worker/waiter retired, every simulator event consumed,
  // every admission grant released.
  ExpectDrained(db, "lifecycle cancel run");

  LifecycleRun run;
  run.report = std::move(report).value();
  run.trace_hash = db.simulator().trace_hash();
  return run;
}

class LifecycleCancelTest : public ::testing::TestWithParam<io::DeviceKind> {};

TEST_P(LifecycleCancelTest, SeededCancelInstantsUnwindCleanly) {
  const std::vector<Database::QueryRequest> mix = QueryMix();
  const LifecycleRun baseline = RunMix(GetParam(), mix);
  ASSERT_EQ(baseline.report.completed, mix.size());

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Pcg32 rng(seed);
    std::vector<Database::QueryRequest> requests = mix;
    for (size_t i = 0; i < requests.size(); ++i) {
      // Cancel anywhere from query start to past its fault-free finish, so
      // some seeds hit the descent, some mid-drain, some after completion.
      const double span = baseline.report.queries[i].latency_us * 1.2;
      requests[i].cancel_at_us =
          requests[i].arrival_us + rng.NextDouble() * span;
    }
    const LifecycleRun run = RunMix(GetParam(), requests);
    ASSERT_EQ(run.report.queries.size(), mix.size());
    for (size_t i = 0; i < run.report.queries.size(); ++i) {
      const auto& q = run.report.queries[i];
      if (q.terminal == Database::QueryTerminal::kCompleted) {
        // Beat the cancel to the finish line: the answer must be exact.
        EXPECT_EQ(q.rows_matched, baseline.report.queries[i].rows_matched)
            << "seed " << seed << " query " << i;
      } else {
        EXPECT_EQ(q.terminal, Database::QueryTerminal::kCancelled)
            << "seed " << seed << " query " << i << ": " << q.status.ToString();
        EXPECT_EQ(q.status.code(), StatusCode::kCancelled);
      }
    }
  }
}

TEST_P(LifecycleCancelTest, SameSeedReproducesSameTraceHash) {
  const std::vector<Database::QueryRequest> mix = QueryMix();
  const LifecycleRun baseline = RunMix(GetParam(), mix);
  for (uint64_t seed : {2u, 4u}) {
    Pcg32 rng(seed);
    std::vector<Database::QueryRequest> requests = mix;
    for (size_t i = 0; i < requests.size(); ++i) {
      const double span = baseline.report.queries[i].latency_us * 1.2;
      requests[i].cancel_at_us =
          requests[i].arrival_us + rng.NextDouble() * span;
    }
    const LifecycleRun a = RunMix(GetParam(), requests);
    const LifecycleRun b = RunMix(GetParam(), requests);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    ASSERT_EQ(a.report.queries.size(), b.report.queries.size());
    for (size_t i = 0; i < a.report.queries.size(); ++i) {
      EXPECT_EQ(a.report.queries[i].terminal, b.report.queries[i].terminal);
      EXPECT_EQ(a.report.queries[i].latency_us, b.report.queries[i].latency_us);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDevices, LifecycleCancelTest,
                         db::testing::Devices(), db::testing::DeviceName);

}  // namespace
}  // namespace pioqo
