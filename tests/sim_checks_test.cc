#include "sim/sim_checks.h"

#include <cmath>
#include <coroutine>
#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "db/admission.h"
#include "io/query_context.h"
#include "io/ssd_device.h"
#include "sim/cpu.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"
#include "storage/disk_image.h"

#if PIOQO_SIM_CHECKS

namespace pioqo::sim {
namespace {

/// A manually managed coroutine for injecting lifetime bugs: eagerly
/// started, suspends wherever it awaits, and its frame is destroyed
/// explicitly via `handle.destroy()`. Task frames are fire-and-forget and
/// cannot be destroyed from outside, so the bug-injection tests need this.
/// Registers with the invariant checker exactly like Task does.
struct Killable {
  struct promise_type {
    Killable get_return_object() {
      auto h = std::coroutine_handle<promise_type>::from_promise(*this);
      checks::OnFrameCreated(h.address());
      return Killable{h};
    }
    ~promise_type() {
      checks::OnFrameDestroyed(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::abort(); }
  };
  std::coroutine_handle<promise_type> handle;
};

// --- Injected bugs must die loudly -----------------------------------------

TEST(SimChecksDeathTest, DestroyWhileResumePendingDies) {
  // A coroutine suspended on Delay has a resume sitting in the event queue;
  // destroying its frame would leave that event holding a dangling handle.
  EXPECT_DEATH(
      {
        Simulator sim;
        auto worker = [&]() -> Killable { co_await Delay(sim, 5.0); };
        Killable k = worker();
        k.handle.destroy();
      },
      "destroyed while a resume is still scheduled");
}

TEST(SimChecksDeathTest, DoubleResumeScheduledDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        Latch latch(sim, 1);
        auto worker = [&]() -> Killable { co_await latch.Wait(); };
        Killable k = worker();
        auto h = std::coroutine_handle<>::from_address(k.handle.address());
        ScheduleResume(sim, 0.0, h);
        ScheduleResume(sim, 0.0, h);
      },
      "double resume");
}

TEST(SimChecksDeathTest, ScheduleResumeOfDestroyedFrameDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        Latch latch(sim, 1);
        auto worker = [&]() -> Killable { co_await latch.Wait(); };
        Killable k = worker();
        void* addr = k.handle.address();
        // Destruction itself is safe (the waiter unregisters), but resuming
        // the dead frame afterwards is use-after-free.
        k.handle.destroy();
        ScheduleResume(sim, 0.0,
                       std::coroutine_handle<>::from_address(addr));
      },
      "destroyed coroutine frame");
}

TEST(SimChecksDeathTest, ExpectQuiescentDiesOnLeakedWorker) {
  EXPECT_DEATH(
      {
        checks::ResetForTest();
        Simulator sim;
        Latch latch(sim, 1);
        auto worker = [&]() -> Killable { co_await latch.Wait(); };
        Killable k = worker();
        (void)k;
        sim.Run();  // nothing counts the latch down: worker is leaked
        checks::ExpectQuiescent("test teardown");
      },
      "leaked worker");
}

TEST(SimulatorDeathTest, NanScheduleTimeDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.ScheduleAt(std::nan(""), [] {});
      },
      "NaN");
}

TEST(SimulatorDeathTest, NegativeDelayDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.ScheduleAfter(-1.0, [] {});
      },
      "negative");
}

// --- Destroying a suspended waiter is safe (the dangling-waiter fix) -------

TEST(SimChecksTest, DestroyedChannelConsumerLeavesNoDanglingWaiter) {
  checks::ResetForTest();
  Simulator sim;
  {
    Channel<int> ch(sim);
    auto consumer = [&]() -> Killable {
      auto item = co_await ch.Pop();
      (void)item;
    };
    Killable k = consumer();
    // Pre-fix, this left a dangling PopAwaiter* in ch.waiters_ and the Push
    // below wrote through freed memory. Now the awaiter unregisters itself
    // during frame destruction and the item is simply queued.
    k.handle.destroy();
    ch.Push(7);
    EXPECT_EQ(ch.size(), 1u);
    sim.Run();
    EXPECT_EQ(ch.size(), 1u);  // nobody left to consume it
  }
  EXPECT_EQ(checks::NumLiveFrames(), 0u);
}

TEST(SimChecksTest, DestroyedLatchWaiterUnregisters) {
  checks::ResetForTest();
  Simulator sim;
  Latch latch(sim, 1);
  auto waiter = [&]() -> Killable { co_await latch.Wait(); };
  Killable k = waiter();
  k.handle.destroy();
  latch.CountDown();
  sim.Run();
  EXPECT_TRUE(latch.done());
  EXPECT_EQ(checks::NumLiveFrames(), 0u);
}

TEST(SimChecksTest, DestroyedSemaphoreWaiterUnregisters) {
  checks::ResetForTest();
  Simulator sim;
  Semaphore sem(sim, 0);
  auto waiter = [&]() -> Killable { co_await sem.WaitAcquire(); };
  Killable k = waiter();
  k.handle.destroy();
  sem.Release();  // permit goes back to the count, not a dead frame
  sim.Run();
  EXPECT_EQ(sem.available(), 1);
  EXPECT_EQ(checks::NumLiveFrames(), 0u);
}

TEST(SimChecksTest, DestroyedCpuWaiterUnparks) {
  checks::ResetForTest();
  Simulator sim;
  CpuScheduler cpu(sim, 1);
  int served = 0;
  auto worker = [&]() -> Task {
    co_await cpu.Consume(10.0);
    ++served;
  };
  worker().Detach();  // holds the only core until t=10
  auto waiter = [&]() -> Killable { co_await cpu.Consume(5.0); };
  Killable k = waiter();
  worker().Detach();  // parks behind the doomed waiter
  k.handle.destroy();
  sim.Run();
  // The core passes straight to the next waiter; the destroyed burst never
  // runs.
  EXPECT_EQ(served, 2);
  EXPECT_EQ(cpu.num_bursts(), 2u);
  EXPECT_DOUBLE_EQ(sim.Now(), 20.0);
  checks::ExpectQuiescent("DestroyedCpuWaiterUnparks");
}

TEST(SimChecksTest, DestroyedAdmissionWaiterUnparks) {
  checks::ResetForTest();
  Simulator sim;
  {
    db::AdmissionOptions options;
    options.max_concurrent_queries = 1;
    options.max_queue_wait_us = 100.0;  // arms a timer per queued query
    db::AdmissionController ctrl(sim, options);
    io::QueryContext q1(sim), q2(sim), q3(sim);
    int served = 0;
    auto query = [&](io::QueryContext& q) -> Task {
      db::AdmissionGrant grant = co_await ctrl.Admit(q, 4);
      if (!grant.ok()) co_return;
      co_await Delay(sim, 10.0);
      ctrl.Release(grant);
      ++served;
    };
    query(q1).Detach();
    auto queued = [&]() -> Killable {
      db::AdmissionGrant grant = co_await ctrl.Admit(q2, 4);
      (void)grant;
    };
    Killable k = queued();
    query(q3).Detach();
    ASSERT_EQ(ctrl.queued(), 2u);
    k.handle.destroy();
    // The destroyed waiter left the queue, its cancel listener and its wait
    // timer (which would otherwise fire into the dead frame at t=100).
    EXPECT_EQ(ctrl.queued(), 1u);
    EXPECT_EQ(q2.num_cancel_listeners(), 0u);
    sim.Run();
    EXPECT_EQ(served, 2);
    EXPECT_EQ(ctrl.running(), 0);
    EXPECT_EQ(ctrl.total_dop(), 0);
    EXPECT_EQ(ctrl.stats().shed_wait_timeout, 0u);
    EXPECT_DOUBLE_EQ(sim.Now(), 20.0);
  }
  checks::ExpectQuiescent("DestroyedAdmissionWaiterUnparks");
}

TEST(SimChecksTest, DestroyedFetchWaiterUnparks) {
  checks::ResetForTest();
  Simulator sim;
  {
    io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
    storage::DiskImage disk(ssd);
    const storage::PageId page = disk.AllocatePages(1);
    storage::BufferPool pool(disk, 4);
    io::QueryContext doomed(sim);
    int served = 0;
    auto fetch = [&]() -> Task {
      storage::BufferPool::PageRef ref = co_await pool.Fetch(page);
      if (!ref.ok()) co_return;
      pool.Unpin(page);
      ++served;
    };
    fetch().Detach();  // starts the read
    auto joined = [&]() -> Killable {
      storage::BufferPool::PageRef ref = co_await pool.Fetch(page, &doomed);
      (void)ref;
    };
    Killable k = joined();  // joins the loading frame
    fetch().Detach();       // joins behind it
    ASSERT_EQ(pool.stats().joined_inflight, 2u);
    k.handle.destroy();
    // The destroyed fetch released its suspend-time pin, its query's pin
    // count and its cancel listener.
    EXPECT_EQ(doomed.pinned_frames(), 0);
    EXPECT_EQ(doomed.num_cancel_listeners(), 0u);
    sim.Run();
    EXPECT_EQ(served, 2);
    EXPECT_EQ(pool.stats().device_reads, 1u);
    EXPECT_TRUE(pool.Clear().ok());  // no pin leaked on the frame
  }
  checks::ExpectQuiescent("DestroyedFetchWaiterUnparks");
}

// --- Bookkeeping -----------------------------------------------------------

TEST(SimChecksTest, TaskFramesReachQuiescenceAfterRun) {
  checks::ResetForTest();
  Simulator sim;
  Latch latch(sim, 3);
  auto worker = [&]() -> Task {
    co_await Delay(sim, 1.0);
    latch.CountDown();
  };
  for (int i = 0; i < 3; ++i) worker().Detach();
  EXPECT_EQ(checks::NumLiveFrames(), 3u);
  EXPECT_EQ(checks::NumPendingResumes(), 3u);
  sim.Run();
  EXPECT_TRUE(latch.done());
  EXPECT_EQ(checks::NumLiveFrames(), 0u);
  EXPECT_EQ(checks::NumPendingResumes(), 0u);
  checks::ExpectQuiescent("TaskFramesReachQuiescenceAfterRun");
}

TEST(SimChecksTest, LeakedWorkerIsCountedUntilDestroyed) {
  checks::ResetForTest();
  Simulator sim;
  Latch latch(sim, 1);
  auto worker = [&]() -> Killable { co_await latch.Wait(); };
  Killable k = worker();
  sim.Run();
  EXPECT_EQ(checks::NumLiveFrames(), 1u);  // suspended, nobody to wake it
  k.handle.destroy();
  EXPECT_EQ(checks::NumLiveFrames(), 0u);
}

TEST(SimChecksTest, DisabledChecksTrackNothing) {
  checks::ResetForTest();
  checks::SetEnabled(false);
  Simulator sim;
  auto worker = [&]() -> Task { co_await Delay(sim, 1.0); };
  worker().Detach();
  EXPECT_EQ(checks::NumLiveFrames(), 0u);
  sim.Run();
  checks::SetEnabled(true);
  EXPECT_TRUE(checks::Enabled());
}

TEST(TraceHashTest, IdenticalRunsProduceIdenticalHashes) {
  auto run = [] {
    Simulator sim;
    Latch latch(sim, 2);
    auto worker = [&](double d) -> Task {
      co_await Delay(sim, d);
      latch.CountDown();
    };
    worker(3.0).Detach();
    worker(1.5).Detach();
    sim.Run();
    return sim.trace_hash();
  };
  EXPECT_EQ(run(), run());
}

TEST(TraceHashTest, DifferentSchedulesProduceDifferentHashes) {
  auto run = [](double d) {
    Simulator sim;
    sim.ScheduleAfter(d, [] {});
    sim.Run();
    return sim.trace_hash();
  };
  EXPECT_NE(run(1.0), run(2.0));
}

}  // namespace
}  // namespace pioqo::sim

#else  // !PIOQO_SIM_CHECKS

TEST(SimChecksTest, CompiledOut) {
  // Invariant checker disabled at configure time (PIOQO_SIM_CHECKS=OFF);
  // nothing to verify.
  SUCCEED();
}

#endif  // PIOQO_SIM_CHECKS
