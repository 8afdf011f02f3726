#include "sim/sync.h"

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/task.h"

namespace pioqo::sim {
namespace {

TEST(LatchTest, ZeroCountIsImmediatelyDone) {
  Simulator sim;
  Latch latch(sim, 0);
  EXPECT_TRUE(latch.done());
}

TEST(LatchTest, WaiterResumesWhenCountReachesZero) {
  Simulator sim;
  Latch latch(sim, 3);
  double resumed_at = -1;
  auto waiter = [&]() -> Task {
    co_await latch.Wait();
    resumed_at = sim.Now();
  };
  waiter().Detach();
  for (int i = 1; i <= 3; ++i) {
    sim.ScheduleAt(i * 10.0, [&] { latch.CountDown(); });
  }
  sim.Run();
  EXPECT_DOUBLE_EQ(resumed_at, 30.0);
}

TEST(LatchTest, MultipleWaiters) {
  Simulator sim;
  Latch latch(sim, 1);
  int resumed = 0;
  auto waiter = [&]() -> Task {
    co_await latch.Wait();
    ++resumed;
  };
  for (int i = 0; i < 5; ++i) waiter().Detach();
  sim.ScheduleAt(5.0, [&] { latch.CountDown(); });
  sim.Run();
  EXPECT_EQ(resumed, 5);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int concurrent = 0, max_concurrent = 0, completed = 0;
  auto worker = [&]() -> Task {
    co_await sem.WaitAcquire();
    ++concurrent;
    max_concurrent = std::max(max_concurrent, concurrent);
    co_await Delay(sim, 10.0);
    --concurrent;
    sem.Release();
    ++completed;
  };
  for (int i = 0; i < 6; ++i) worker().Detach();
  sim.Run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(max_concurrent, 2);
  EXPECT_DOUBLE_EQ(sim.Now(), 30.0);  // 3 waves of 10us
}

TEST(SemaphoreTest, ReleaseWithoutWaitersIncrementsCount) {
  Simulator sim;
  Semaphore sem(sim, 0);
  sem.Release();
  EXPECT_EQ(sem.available(), 1);
  bool acquired = false;
  auto worker = [&]() -> Task {
    co_await sem.WaitAcquire();
    acquired = true;
  };
  worker().Detach();
  EXPECT_TRUE(acquired);  // permit available, no suspension
}

TEST(SemaphoreTest, FifoHandoff) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  auto worker = [&](int id) -> Task {
    co_await sem.WaitAcquire();
    co_await Delay(sim, 1.0);
    order.push_back(id);
    sem.Release();
  };
  for (int i = 0; i < 4; ++i) worker(i).Detach();
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ChannelTest, PushThenPop) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.Push(7);
  std::optional<int> got;
  auto consumer = [&]() -> Task { got = co_await ch.Pop(); };
  consumer().Detach();
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
}

TEST(ChannelTest, PopBlocksUntilPush) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got;
  double got_at = -1;
  auto consumer = [&]() -> Task {
    got = co_await ch.Pop();
    got_at = sim.Now();
  };
  consumer().Detach();
  sim.ScheduleAt(42.0, [&] { ch.Push(5); });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5);
  EXPECT_DOUBLE_EQ(got_at, 42.0);
}

TEST(ChannelTest, CloseDrainsThenNullopt) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.Push(1);
  ch.Push(2);
  ch.Close();
  std::vector<int> items;
  bool saw_end = false;
  auto consumer = [&]() -> Task {
    for (;;) {
      auto item = co_await ch.Pop();
      if (!item) {
        saw_end = true;
        break;
      }
      items.push_back(*item);
    }
  };
  consumer().Detach();
  sim.Run();
  EXPECT_EQ(items, (std::vector<int>{1, 2}));
  EXPECT_TRUE(saw_end);
}

TEST(ChannelTest, ManyConsumersEachItemDeliveredOnce) {
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
  for (int i = 0; i < 4; ++i) consumer().Detach();
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(i * 1.0, [&ch, i] { ch.Push(i); });
  }
  sim.ScheduleAt(1000.0, [&] { ch.Close(); });
  sim.Run();
  EXPECT_EQ(finished, 4);
  ASSERT_EQ(received.size(), 100u);
  std::sort(received.begin(), received.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(ChannelTest, WaiterWokenByCloseGetsNullopt) {
  Simulator sim;
  Channel<int> ch(sim);
  bool saw_end = false;
  auto consumer = [&]() -> Task {
    auto item = co_await ch.Pop();
    saw_end = !item.has_value();
  };
  consumer().Detach();
  sim.ScheduleAt(1.0, [&] { ch.Close(); });
  sim.Run();
  EXPECT_TRUE(saw_end);
}

}  // namespace
}  // namespace pioqo::sim
