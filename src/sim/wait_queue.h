#ifndef PIOQO_SIM_WAIT_QUEUE_H_
#define PIOQO_SIM_WAIT_QUEUE_H_

#include <coroutine>
#include <cstddef>

#include "common/logging.h"
#include "sim/sim_checks.h"

namespace pioqo::sim {

class WaitQueueBase;

/// The waiter-lifetime rules of every place a coroutine parks (`Latch`,
/// `Semaphore`, `Channel`, `CpuScheduler`, a loading buffer-pool frame, the
/// admission queue):
///
///  - The awaiter is the list node: it derives from `WaitNode`, lives in the
///    suspended coroutine's frame, and parks in a FIFO `WaitQueue`. Parking
///    allocates nothing.
///  - Parking registers the coroutine with the PIOQO_SIM_CHECKS layer (see
///    sim/sim_checks.h). Leaving the queue unregisters it, whether the owner
///    wakes it (`PopFront`) or the awaiter leaves early (`Unpark`, which the
///    node's destructor calls when a parked coroutine is destroyed). Either
///    is O(1): no search, so a destroyed coroutine never leaves a dangling
///    node behind.
///  - The owner of a queue must outlive its waiters, because waking (or even
///    unparking from) a destroyed queue is use-after-free. `Latch`,
///    `Semaphore`, `Channel` and the admission controller abort when
///    destroyed with waiters.
///  - Waking is the owner's job: it pops the front and resumes that
///    waiter's handle, through `ScheduleResume` or inline.
class WaitNode {
 public:
  WaitNode() = default;
  WaitNode(const WaitNode&) = delete;
  WaitNode& operator=(const WaitNode&) = delete;
  ~WaitNode() { Unpark(); }

  /// The coroutine that parked this node.
  std::coroutine_handle<> handle() const { return handle_; }

 protected:
  bool parked() const { return queue_ != nullptr; }
  /// Leaves the queue without being woken (timeout, cancellation,
  /// destruction). No-op when not parked.
  void Unpark();

 private:
  friend class WaitQueueBase;
  WaitQueueBase* queue_ = nullptr;
  WaitNode* prev_ = nullptr;
  WaitNode* next_ = nullptr;
  std::coroutine_handle<> handle_;
};

/// The untyped intrusive FIFO behind `WaitQueue<T>`.
class WaitQueueBase {
 public:
  WaitQueueBase() = default;
  /// Parked nodes point back at their queue, so only an empty queue moves
  /// (a recycled buffer-pool frame slot, for one).
  WaitQueueBase(WaitQueueBase&& other) noexcept {
    PIOQO_CHECK(other.empty()) << "moved a queue with waiters";
  }
  WaitQueueBase& operator=(WaitQueueBase&& other) noexcept {
    PIOQO_CHECK(empty() && other.empty()) << "moved a queue with waiters";
    return *this;
  }

  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }

 protected:
  void Park(WaitNode& w, std::coroutine_handle<> h) {
    checks::OnWaiterRegistered(h.address());
    w.queue_ = this;
    w.handle_ = h;
    w.prev_ = tail_;
    (tail_ != nullptr ? tail_->next_ : head_) = &w;
    tail_ = &w;
    ++size_;
  }

  WaitNode* PopFront() {
    WaitNode* w = head_;
    if (w != nullptr) Unlink(*w);
    return w;
  }

  void Append(WaitQueueBase& other) {
    if (other.head_ == nullptr) return;
    for (WaitNode* n = other.head_; n != nullptr; n = n->next_) {
      n->queue_ = this;
    }
    other.head_->prev_ = tail_;
    (tail_ != nullptr ? tail_->next_ : head_) = other.head_;
    tail_ = other.tail_;
    size_ += other.size_;
    other.head_ = other.tail_ = nullptr;
    other.size_ = 0;
  }

  static WaitNode* Next(const WaitNode& w) { return w.next_; }

  WaitNode* head_ = nullptr;

 private:
  friend class WaitNode;

  void Unlink(WaitNode& w) {
    (w.prev_ != nullptr ? w.prev_->next_ : head_) = w.next_;
    (w.next_ != nullptr ? w.next_->prev_ : tail_) = w.prev_;
    w.queue_ = nullptr;
    w.prev_ = w.next_ = nullptr;
    --size_;
    checks::OnWaiterUnregistered(w.handle_.address());
  }

  WaitNode* tail_ = nullptr;
  size_t size_ = 0;
};

inline void WaitNode::Unpark() {
  if (queue_ != nullptr) queue_->Unlink(*this);
}

/// Intrusive FIFO of parked awaiters of type `T` (a `WaitNode`).
template <typename T = WaitNode>
class WaitQueue : public WaitQueueBase {
 public:
  /// Parks `w`, the awaiter suspending `h`, at the back.
  void Park(T& w, std::coroutine_handle<> h) { WaitQueueBase::Park(w, h); }

  /// Unparks and returns the oldest waiter (nullptr when empty); the caller
  /// resumes its handle.
  T* PopFront() { return static_cast<T*>(WaitQueueBase::PopFront()); }

  /// Moves every waiter of `other` to the back of this queue, in order.
  /// They stay parked, so one destroyed before it is woken still unparks.
  void Append(WaitQueue& other) { WaitQueueBase::Append(other); }

  /// Calls `f(T&)` for each waiter, oldest first. `f` must not park or
  /// unpark.
  template <typename F>
  void ForEach(F&& f) const {
    for (WaitNode* n = head_; n != nullptr; n = Next(*n)) {
      f(static_cast<T&>(*n));
    }
  }
};

}  // namespace pioqo::sim

#endif  // PIOQO_SIM_WAIT_QUEUE_H_
