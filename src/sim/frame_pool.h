#ifndef PIOQO_SIM_FRAME_POOL_H_
#define PIOQO_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace pioqo::sim {

/// Size-bucketed recycler for coroutine frames.
///
/// Simulated activities (`sim::Task`) are spawned in bursts — a parallel
/// scan spawns one worker per degree of parallelism per partition, a
/// calibration grid spawns workers per (band, queue-depth) cell — and each
/// spawn heap-allocates a frame the compiler sizes for us. The frames of a
/// given coroutine function are all the same size, so a free list per size
/// bucket turns steady-state spawn/finish churn into pointer pushes/pops.
///
/// The pool is `thread_local`, mirroring the simulator's threading model: a
/// simulator and all its coroutines are confined to one thread, so a frame
/// is always freed on the thread that allocated it and the pool needs no
/// synchronization. Simulators on separate threads get independent pools.
///
/// Blocks are rounded up to 64-byte granularity; sizes above 4 KiB (none in
/// this codebase today) bypass the pool. Per-bucket retention is capped so
/// a one-off burst cannot pin memory forever, and everything retained is
/// released at thread exit (keeps LeakSanitizer clean).
class FramePool {
 public:
  static void* Allocate(size_t size) {
    if (size > kMaxPooled) return ::operator new(size);
    const size_t bucket = BucketOf(size);
    State& s = state();
    if (Node* node = s.heads[bucket]) {
      s.heads[bucket] = node->next;
      --s.counts[bucket];
      return node;
    }
    // Allocate the full bucket size so the block is reusable for any frame
    // that maps to this bucket.
    return ::operator new((bucket + 1) * kGranularity);
  }

  static void Deallocate(void* ptr, size_t size) {
    if (size > kMaxPooled) {
      ::operator delete(ptr);
      return;
    }
    const size_t bucket = BucketOf(size);
    State& s = state();
    if (s.counts[bucket] >= kMaxPerBucket) {
      ::operator delete(ptr);
      return;
    }
    Node* node = static_cast<Node*>(ptr);
    node->next = s.heads[bucket];
    s.heads[bucket] = node;
    ++s.counts[bucket];
  }

 private:
  static constexpr size_t kGranularity = 64;
  static constexpr size_t kMaxPooled = 4096;
  static constexpr size_t kBuckets = kMaxPooled / kGranularity;
  static constexpr size_t kMaxPerBucket = 128;

  struct Node {
    Node* next;
  };

  struct State {
    Node* heads[kBuckets] = {};
    uint16_t counts[kBuckets] = {};

    ~State() {
      for (Node* head : heads) {
        while (head != nullptr) {
          Node* next = head->next;
          ::operator delete(head);
          head = next;
        }
      }
    }
  };

  static State& state() {
    thread_local State s;
    return s;
  }

  static size_t BucketOf(size_t size) {
    // size >= 1 (a coroutine frame is never empty); map (0, 64] -> 0, ...
    return (size + kGranularity - 1) / kGranularity - 1;
  }
};

}  // namespace pioqo::sim

#endif  // PIOQO_SIM_FRAME_POOL_H_
