// Unit tests for the admission controller: exact simulated timelines for
// queueing, bounded-wait shedding, deadline/cancellation while queued,
// partial DOP grants, FIFO ordering, degraded-device clamping, the
// unlimited-caps (A/B) mode, and the rejection of zero caps.

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "db/admission.h"
#include "io/device_factory.h"
#include "io/health_monitor.h"
#include "io/query_context.h"
#include "sim/sim_checks.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace pioqo::db {
namespace {

/// The shape of every test: a lifecycle coroutine that arrives at a given
/// instant, requests admission, holds its grant for `hold_us`, and records
/// what it saw.
struct Probe {
  AdmissionGrant grant;
  double admitted_at = -1.0;   // simulated instant the Admit resolved
  double released_at = -1.0;   // instant the grant was released
  bool resolved = false;
};

sim::Task RunQuery(sim::Simulator& sim, AdmissionController& ctrl,
                   io::QueryContext& query, double arrival_us, int dop,
                   double hold_us, Probe& out) {
  if (arrival_us > sim.Now()) co_await sim::Delay(sim, arrival_us - sim.Now());
  out.grant = co_await ctrl.Admit(query, dop);
  out.admitted_at = sim.Now();
  out.resolved = true;
  if (out.grant.ok()) {
    co_await sim::Delay(sim, hold_us);
    ctrl.Release(out.grant);
    out.released_at = sim.Now();
  }
}

TEST(AdmissionTest, AdmitsImmediatelyWhenCapacityIsFree) {
  sim::Simulator sim;
  AdmissionController ctrl(sim, {});
  io::QueryContext query(sim);
  Probe p;
  RunQuery(sim, ctrl, query, 0.0, 4, 10.0, p).Detach();
  sim.Run();
  ASSERT_TRUE(p.grant.ok());
  EXPECT_EQ(p.grant.dop, 4);
  EXPECT_EQ(p.grant.wait_us, 0.0);
  EXPECT_EQ(p.admitted_at, 0.0);
  EXPECT_EQ(ctrl.running(), 0);
  EXPECT_EQ(ctrl.total_dop(), 0);
  EXPECT_EQ(ctrl.stats().admitted, 1u);
  sim::checks::ExpectQuiescent("admit immediate");
}

TEST(AdmissionTest, ExcessArrivalQueuesUntilRelease) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  AdmissionController ctrl(sim, options);
  io::QueryContext qa(sim), qb(sim);
  Probe a, b;
  RunQuery(sim, ctrl, qa, 0.0, 2, 100.0, a).Detach();   // runs [0, 100)
  RunQuery(sim, ctrl, qb, 10.0, 2, 50.0, b).Detach();   // arrives mid-flight
  sim.Run();
  ASSERT_TRUE(a.grant.ok());
  ASSERT_TRUE(b.grant.ok());
  EXPECT_EQ(b.admitted_at, 100.0);  // exactly when A released
  EXPECT_EQ(b.grant.wait_us, 90.0);
  EXPECT_EQ(ctrl.stats().peak_queued, 1u);
  EXPECT_EQ(ctrl.queued(), 0u);
  sim::checks::ExpectQuiescent("admit queueing");
}

TEST(AdmissionTest, BoundedWaitShedsWithResourceExhausted) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  options.max_queue_wait_us = 50.0;
  AdmissionController ctrl(sim, options);
  io::QueryContext qa(sim), qb(sim);
  Probe a, b;
  RunQuery(sim, ctrl, qa, 0.0, 2, 1000.0, a).Detach();  // hogs the slot
  RunQuery(sim, ctrl, qb, 10.0, 2, 50.0, b).Detach();
  sim.Run();
  ASSERT_TRUE(a.grant.ok());
  ASSERT_FALSE(b.grant.ok());
  EXPECT_EQ(b.grant.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(b.admitted_at, 60.0);  // arrival (10) + bounded wait (50)
  EXPECT_EQ(b.grant.wait_us, 50.0);
  EXPECT_EQ(ctrl.stats().shed_wait_timeout, 1u);
  EXPECT_EQ(ctrl.stats().admitted, 1u);
  sim::checks::ExpectQuiescent("bounded wait shed");
}

TEST(AdmissionTest, FullQueueShedsArrivalsImmediately) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  options.max_queue_length = 1;
  AdmissionController ctrl(sim, options);
  io::QueryContext qa(sim), qb(sim), qc(sim);
  Probe a, b, c;
  RunQuery(sim, ctrl, qa, 0.0, 1, 100.0, a).Detach();
  RunQuery(sim, ctrl, qb, 10.0, 1, 10.0, b).Detach();  // fills the queue
  RunQuery(sim, ctrl, qc, 20.0, 1, 10.0, c).Detach();  // bounces off it
  sim.Run();
  ASSERT_TRUE(a.grant.ok());
  ASSERT_TRUE(b.grant.ok());
  ASSERT_FALSE(c.grant.ok());
  EXPECT_EQ(c.grant.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(c.admitted_at, 20.0);  // shed at arrival, no waiting
  EXPECT_EQ(ctrl.stats().shed_queue_full, 1u);
  sim::checks::ExpectQuiescent("queue full shed");
}

TEST(AdmissionTest, DeadlinePassedAtArrivalShedsWithoutQueueing) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  AdmissionController ctrl(sim, options);
  io::QueryContext query(sim);
  query.SetDeadline(5.0);  // will be long gone at arrival
  Probe p;
  RunQuery(sim, ctrl, query, 20.0, 2, 10.0, p).Detach();
  sim.Run();
  ASSERT_FALSE(p.grant.ok());
  EXPECT_EQ(p.grant.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(p.admitted_at, 20.0);
  EXPECT_EQ(ctrl.stats().shed_deadline, 1u);
  EXPECT_EQ(ctrl.stats().admitted, 0u);
  sim::checks::ExpectQuiescent("deadline at arrival");
}

TEST(AdmissionTest, DeadlineWhileQueuedShedsAtTheDeadlineInstant) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  AdmissionController ctrl(sim, options);
  io::QueryContext qa(sim), qb(sim);
  qb.SetDeadline(30.0);
  Probe a, b;
  RunQuery(sim, ctrl, qa, 0.0, 2, 100.0, a).Detach();  // holds the slot past 30
  RunQuery(sim, ctrl, qb, 10.0, 2, 10.0, b).Detach();
  sim.Run();
  ASSERT_FALSE(b.grant.ok());
  EXPECT_EQ(b.grant.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(b.admitted_at, 30.0);
  EXPECT_EQ(b.grant.wait_us, 20.0);
  EXPECT_EQ(ctrl.stats().shed_deadline, 1u);
  EXPECT_EQ(ctrl.queued(), 0u);
  sim::checks::ExpectQuiescent("deadline while queued");
}

TEST(AdmissionTest, CancellationWhileQueuedShedsWithCancelStatus) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  AdmissionController ctrl(sim, options);
  io::QueryContext qa(sim), qb(sim);
  Probe a, b;
  RunQuery(sim, ctrl, qa, 0.0, 2, 100.0, a).Detach();
  RunQuery(sim, ctrl, qb, 10.0, 2, 10.0, b).Detach();
  sim.ScheduleAfter(25.0,
                    [&qb] { qb.Cancel(Status::Cancelled("user hit ^C")); });
  sim.Run();
  ASSERT_FALSE(b.grant.ok());
  EXPECT_EQ(b.grant.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(b.admitted_at, 25.0);
  EXPECT_EQ(b.grant.wait_us, 15.0);
  EXPECT_EQ(ctrl.stats().shed_cancelled, 1u);
  sim::checks::ExpectQuiescent("cancel while queued");
}

TEST(AdmissionTest, DopBudgetGrantsPartiallyThenQueues) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 4;
  options.max_total_dop = 8;
  AdmissionController ctrl(sim, options);
  io::QueryContext qa(sim), qb(sim), qc(sim);
  Probe a, b, c;
  RunQuery(sim, ctrl, qa, 0.0, 6, 100.0, a).Detach();  // full grant: 6 of 8
  RunQuery(sim, ctrl, qb, 10.0, 6, 100.0, b).Detach(); // partial: only 2 left
  RunQuery(sim, ctrl, qc, 20.0, 4, 10.0, c).Detach();  // budget spent: queues
  sim.Run();
  ASSERT_TRUE(a.grant.ok());
  ASSERT_TRUE(b.grant.ok());
  ASSERT_TRUE(c.grant.ok());
  EXPECT_EQ(a.grant.dop, 6);
  EXPECT_EQ(b.grant.dop, 2);
  EXPECT_EQ(c.admitted_at, 100.0);  // waits for A's release
  EXPECT_EQ(c.grant.dop, 4);
  EXPECT_EQ(ctrl.stats().partial_grants, 1u);
  EXPECT_EQ(ctrl.stats().peak_total_dop, 8);
  sim::checks::ExpectQuiescent("partial grants");
}

TEST(AdmissionTest, QueueDrainsInStrictFifoOrder) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  AdmissionController ctrl(sim, options);
  io::QueryContext qa(sim), qb(sim), qc(sim);
  Probe a, b, c;
  RunQuery(sim, ctrl, qa, 0.0, 1, 100.0, a).Detach();
  RunQuery(sim, ctrl, qb, 10.0, 1, 50.0, b).Detach();
  RunQuery(sim, ctrl, qc, 20.0, 1, 50.0, c).Detach();
  sim.Run();
  ASSERT_TRUE(b.grant.ok());
  ASSERT_TRUE(c.grant.ok());
  EXPECT_EQ(b.admitted_at, 100.0);  // B (earlier arrival) first
  EXPECT_EQ(c.admitted_at, 150.0);  // C only after B finishes
  EXPECT_EQ(ctrl.stats().peak_queued, 2u);
  sim::checks::ExpectQuiescent("fifo order");
}

TEST(AdmissionTest, DegradedDeviceClampsGrantedDop) {
  sim::Simulator sim;
  auto device = io::MakeDevice(sim, io::DeviceKind::kSsdConsumer);
  // An absurdly optimistic baseline makes any real completion look like an
  // 8x+ degradation after one sample.
  io::DeviceHealthMonitor::Options mopts;
  mopts.expected_read_latency_us = 1.0;
  mopts.min_samples = 1;
  io::DeviceHealthMonitor health(*device, mopts);
  device->Submit(
      io::IoRequest{io::IoRequest::Kind::kRead, 0, 4096},
      [](const io::IoResult& r) { PIOQO_CHECK(r.status.ok()); });
  sim.Run();
  ASSERT_TRUE(health.degraded());

  AdmissionOptions options;
  options.health = &health;
  AdmissionController ctrl(sim, options);
  io::QueryContext query(sim);
  Probe p;
  RunQuery(sim, ctrl, query, sim.Now(), 8, 10.0, p).Detach();
  sim.Run();
  ASSERT_TRUE(p.grant.ok());
  EXPECT_LT(p.grant.dop, 8);
  EXPECT_GE(p.grant.dop, 1);
  EXPECT_EQ(device->stats().degraded_clamps(), 1u);
  sim::checks::ExpectQuiescent("degraded clamp");
}

TEST(AdmissionTest, DisabledControllerAdmitsEverythingButTracksPeaks) {
  // "Disabled" is unlimited caps: nothing queues or is cut to a partial
  // grant, yet the controller still counts what ran.
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = std::numeric_limits<int>::max();
  options.max_total_dop = std::numeric_limits<int>::max();
  AdmissionController ctrl(sim, options);
  std::vector<io::QueryContext*> queries;
  std::vector<Probe> probes(5);
  for (int i = 0; i < 5; ++i) queries.push_back(new io::QueryContext(sim));
  for (int i = 0; i < 5; ++i) {
    RunQuery(sim, ctrl, *queries[i], static_cast<double>(i), 4, 100.0,
             probes[i]).Detach();
  }
  sim.Run();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(probes[i].grant.ok());
    EXPECT_EQ(probes[i].grant.dop, 4);  // verbatim, no partial grants
    EXPECT_EQ(probes[i].admitted_at, static_cast<double>(i));
  }
  EXPECT_EQ(ctrl.stats().peak_running, 5);    // the A/B evidence
  EXPECT_EQ(ctrl.stats().peak_total_dop, 20);
  EXPECT_EQ(ctrl.stats().peak_queued, 0u);
  for (io::QueryContext* q : queries) delete q;
  sim::checks::ExpectQuiescent("disabled mode");
}

// A zero cap would admit nothing, so a workload could never drain.
TEST(AdmissionDeathTest, ZeroQueryCapDies) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_concurrent_queries = 0;
  EXPECT_DEATH({ AdmissionController ctrl(sim, options); },
               "max_concurrent_queries must be >= 1");
}

TEST(AdmissionDeathTest, ZeroDopCapDies) {
  sim::Simulator sim;
  AdmissionOptions options;
  options.max_total_dop = 0;
  EXPECT_DEATH({ AdmissionController ctrl(sim, options); },
               "max_total_dop must be >= 1");
}

TEST(AdmissionDeathTest, NegativeOrNanQueueWaitDies) {
  sim::Simulator sim;
  for (double wait : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    AdmissionOptions options;
    options.max_queue_wait_us = wait;
    EXPECT_DEATH({ AdmissionController ctrl(sim, options); },
                 "max_queue_wait_us must be >= 0");
  }
}

}  // namespace
}  // namespace pioqo::db
