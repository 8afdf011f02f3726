// Edge-case coverage for the sim sync primitives, running under the
// PIOQO_SIM_CHECKS invariant layer (on by default): close-then-drain
// semantics, death-on-misuse, FIFO fairness under contention, and the
// destructor no-dangling-waiter asserts.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sim_checks.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace pioqo::sim {
namespace {

TEST(ChannelEdgeTest, CloseWithSuspendedConsumersThenDrain) {
  checks::ResetForTest();
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> received;
  int finished = 0;
  auto consumer = [&]() -> Task {
    for (;;) {
      auto item = co_await ch.Pop();
      if (!item) break;
      received.push_back(*item);
    }
    ++finished;
  };
  // All three consumers suspend on an empty channel before any push.
  for (int i = 0; i < 3; ++i) consumer().Detach();
  // Two direct handoffs to suspended consumers, then close while the third
  // is still suspended; it must observe nullopt, and the two woken ones
  // must each hold exactly their handed-off item before draining to end.
  sim.ScheduleAt(1.0, [&] { ch.Push(10); });
  sim.ScheduleAt(2.0, [&] { ch.Push(20); });
  sim.ScheduleAt(3.0, [&] { ch.Close(); });
  sim.Run();
  EXPECT_EQ(finished, 3);
  std::sort(received.begin(), received.end());
  EXPECT_EQ(received, (std::vector<int>{10, 20}));
  EXPECT_TRUE(ch.closed());
  EXPECT_EQ(ch.size(), 0u);
  checks::ExpectQuiescent("CloseWithSuspendedConsumersThenDrain");
}

TEST(ChannelEdgeTest, ItemsQueuedBeforeCloseAreDrainedAfterIt) {
  checks::ResetForTest();
  Simulator sim;
  Channel<int> ch(sim);
  ch.Push(1);
  ch.Push(2);
  ch.Push(3);
  ch.Close();
  // Consumers started after Close() must still drain the backlog, then see
  // nullopt (the await_ready fast path: closed but non-empty).
  std::vector<int> received;
  int finished = 0;
  auto consumer = [&]() -> Task {
    for (;;) {
      auto item = co_await ch.Pop();
      if (!item) break;
      received.push_back(*item);
    }
    ++finished;
  };
  consumer().Detach();
  consumer().Detach();
  sim.Run();
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(received, (std::vector<int>{1, 2, 3}));
  checks::ExpectQuiescent("ItemsQueuedBeforeCloseAreDrainedAfterIt");
}

TEST(ChannelEdgeDeathTest, PushAfterCloseDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        Channel<int> ch(sim);
        ch.Close();
        ch.Push(1);
      },
      "push on closed channel");
}

TEST(LatchEdgeDeathTest, CountDownBelowZeroDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        Latch latch(sim, 1);
        latch.CountDown();
        latch.CountDown();
      },
      "below zero");
}

TEST(SemaphoreEdgeTest, FifoHandoffUnderContention) {
  checks::ResetForTest();
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> acquisition_order;
  Latch done(sim, 8);
  auto worker = [&](int id, double arrival, double hold) -> Task {
    co_await Delay(sim, arrival);
    co_await sem.WaitAcquire();
    acquisition_order.push_back(id);
    co_await Delay(sim, hold);
    sem.Release();
    done.CountDown();
  };
  // Staggered arrivals with hold times long enough that the waiter queue
  // stays contended the whole run; handoff must remain strictly FIFO even
  // as releases interleave with fresh arrivals.
  for (int id = 0; id < 8; ++id) {
    worker(id, /*arrival=*/id * 0.5, /*hold=*/4.0 + (id % 3)).Detach();
  }
  sim.Run();
  EXPECT_TRUE(done.done());
  EXPECT_EQ(acquisition_order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sem.available(), 1);
  EXPECT_EQ(sem.num_waiters(), 0u);
  checks::ExpectQuiescent("FifoHandoffUnderContention");
}

// --- A primitive must outlive its waiters ----------------------------------

TEST(SyncDtorDeathTest, LatchDestroyedWithWaitersDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        auto latch = std::make_unique<Latch>(sim, 1);
        auto waiter = [&]() -> Task { co_await latch->Wait(); };
        waiter().Detach();
        latch.reset();
      },
      "Latch destroyed with");
}

TEST(SyncDtorDeathTest, SemaphoreDestroyedWithWaitersDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        auto sem = std::make_unique<Semaphore>(sim, 0);
        auto waiter = [&]() -> Task { co_await sem->WaitAcquire(); };
        waiter().Detach();
        sem.reset();
      },
      "Semaphore destroyed with");
}

TEST(SyncDtorDeathTest, ChannelDestroyedWithConsumersDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        auto ch = std::make_unique<Channel<int>>(sim);
        auto consumer = [&]() -> Task {
          auto item = co_await ch->Pop();
          (void)item;
        };
        consumer().Detach();
        ch.reset();
      },
      "Channel destroyed with");
}

}  // namespace
}  // namespace pioqo::sim
