#ifndef PIOQO_SIM_SYNC_H_
#define PIOQO_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>

#include "common/logging.h"
#include "sim/sim_checks.h"
#include "sim/simulator.h"
#include "sim/wait_queue.h"

namespace pioqo::sim {

/// Every primitive here parks its waiters in a `WaitQueue`, which holds the
/// waiter-lifetime rules (sim/wait_queue.h), and wakes them through
/// `ScheduleResume`, so the PIOQO_SIM_CHECKS invariant layer validates every
/// resume (see sim/sim_checks.h).

/// A one-shot countdown latch for joining a team of simulated workers.
///
/// Each worker calls `CountDown()` as its last action; a coordinator
/// `co_await`s the latch (or polls `done()` from non-coroutine driver code
/// that runs the simulator to completion).
class Latch {
 public:
  Latch(Simulator& sim, int64_t count) : sim_(sim), count_(count) {
    PIOQO_CHECK(count >= 0);
  }
  ~Latch() {
    PIOQO_CHECK(waiters_.empty())
        << "Latch destroyed with " << waiters_.size() << " suspended waiter(s)";
  }
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void CountDown() {
    PIOQO_CHECK(count_ > 0) << "latch counted down below zero";
    if (--count_ == 0) {
      while (WaitNode* w = waiters_.PopFront()) {
        ScheduleResume(sim_, 0.0, w->handle());
      }
    }
  }

  bool done() const { return count_ == 0; }

  /// `co_await latch.Wait()` suspends until the count reaches zero.
  class Waiter : public WaitNode {
   public:
    explicit Waiter(Latch& latch) : latch_(latch) {}
    bool await_ready() const noexcept { return latch_.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      latch_.waiters_.Park(*this, h);
    }
    void await_resume() const noexcept {}

   private:
    Latch& latch_;
  };

  Waiter Wait() { return Waiter(*this); }

 private:
  Simulator& sim_;
  int64_t count_;
  WaitQueue<> waiters_;
};

/// Counting semaphore with FIFO wakeup, used e.g. to model a serialized
/// critical section (buffer-pool latch), to bound outstanding prefetches,
/// or, with 0 initial permits, as a completion signal (a `Release` before
/// the wait banks its permit).
class Semaphore {
 public:
  Semaphore(Simulator& sim, int64_t initial) : sim_(sim), count_(initial) {
    PIOQO_CHECK(initial >= 0);
  }
  ~Semaphore() {
    PIOQO_CHECK(waiters_.empty()) << "Semaphore destroyed with "
                                  << waiters_.size()
                                  << " suspended waiter(s)";
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  class Acquire : public WaitNode {
   public:
    explicit Acquire(Semaphore& sem) : sem_(sem) {}
    bool await_ready() noexcept {
      if (sem_.count_ > 0) {
        --sem_.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem_.waiters_.Park(*this, h);
    }
    void await_resume() const noexcept {}

   private:
    Semaphore& sem_;
  };

  /// `co_await sem.WaitAcquire()` obtains one permit (FIFO).
  Acquire WaitAcquire() { return Acquire(*this); }

  /// Returns one permit, waking the oldest waiter if any. The permit is
  /// handed directly to the waiter (no count increment) to preserve FIFO
  /// fairness.
  void Release() {
    if (WaitNode* w = waiters_.PopFront()) {
      ScheduleResume(sim_, 0.0, w->handle());
    } else {
      ++count_;
    }
  }

  int64_t available() const { return count_; }
  size_t num_waiters() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  int64_t count_;
  WaitQueue<> waiters_;
};

/// An unbounded multi-producer multi-consumer queue of work items with
/// close semantics, used to hand index leaf pages to PIS workers.
///
/// `co_await queue.Pop()` yields the next item, or `nullopt` once the queue
/// is closed and drained.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(sim) {}
  ~Channel() {
    PIOQO_CHECK(waiters_.empty())
        << "Channel destroyed with " << waiters_.size()
        << " suspended consumer(s)";
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void Push(T item) {
    PIOQO_CHECK(!closed_) << "push on closed channel";
    // Direct handoff to the oldest waiter avoids the classic lost-wakeup /
    // stolen-item race: a woken consumer is guaranteed to hold its item.
    if (PopAwaiter* w = waiters_.PopFront()) {
      w->slot_ = std::move(item);
      ScheduleResume(sim_, 0.0, w->handle());
      return;
    }
    items_.push_back(std::move(item));
  }

  /// After Close(), consumers drain remaining items then observe nullopt.
  void Close() {
    closed_ = true;
    while (PopAwaiter* w = waiters_.PopFront()) {
      ScheduleResume(sim_, 0.0, w->handle());
    }
  }

  class PopAwaiter : public WaitNode {
   public:
    explicit PopAwaiter(Channel& ch) : ch_(ch) {}
    bool await_ready() const noexcept {
      return !ch_.items_.empty() || ch_.closed_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch_.waiters_.Park(*this, h);
    }
    std::optional<T> await_resume() {
      if (slot_.has_value()) return std::move(slot_);
      if (!ch_.items_.empty()) {
        T item = std::move(ch_.items_.front());
        ch_.items_.pop_front();
        return item;
      }
      PIOQO_CHECK(ch_.closed_);
      return std::nullopt;
    }

   private:
    friend class Channel;
    Channel& ch_;
    std::optional<T> slot_;
  };

  PopAwaiter Pop() { return PopAwaiter(*this); }

  size_t size() const { return items_.size(); }
  bool closed() const { return closed_; }

 private:
  Simulator& sim_;
  bool closed_ = false;
  std::deque<T> items_;
  WaitQueue<PopAwaiter> waiters_;
};

}  // namespace pioqo::sim

#endif  // PIOQO_SIM_SYNC_H_
