#ifndef PIOQO_SIM_SIMULATOR_H_
#define PIOQO_SIM_SIMULATOR_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/inline_function.h"

namespace pioqo::sim {

/// Simulated time in microseconds. The paper reports calibrated I/O costs in
/// microseconds, so the whole library uses that unit.
using SimTime = double;

/// A deterministic discrete-event simulator: a virtual clock plus an event
/// queue. Events scheduled for the same instant fire in scheduling order
/// (stable tie-break by sequence number), which makes every run
/// bit-reproducible.
///
/// The simulator is single-threaded: device models, the CPU scheduler and
/// all coroutine workers run interleaved on the caller's thread, and
/// "runtime" means elapsed simulated time. Independent simulators may run on
/// different threads concurrently: no state is shared between instances, and
/// the engine's per-thread state (frame pool, invariant checker) is
/// `thread_local`.
///
/// Hot-path layout (DESIGN.md §11): the priority queue is a 4-ary min-heap
/// of 16-byte plain-old-data nodes (time, seq⋅slot key); the callback and
/// cancellation state live in a free-listed slab indexed by `slot`, so heap
/// sifts move two words instead of a type-erased callable, and callbacks
/// are moved exactly once — out of the slab at execution. Callbacks are
/// `InlineCallback` (48-byte small-buffer optimization), so a typical
/// schedule/execute cycle performs zero heap allocations once the heap and
/// slab have grown to the scenario's high-water mark.
class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (clamped to Now()).
  ///
  /// Templated on the callable so the caller's lambda is type-erased exactly
  /// once, directly into the event slab — no intermediate Callback object
  /// changes hands. Passing an already-erased `Callback` also works (it is
  /// moved in).
  template <typename F>
  void ScheduleAt(SimTime t, F&& cb) {
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      PIOQO_CHECK(cb != nullptr);
    }
    PIOQO_CHECK(!std::isnan(t)) << "event scheduled at NaN time";
    const uint32_t slot = AcquireSlot();
    records_[slot].cb = std::forward<F>(cb);
    HeapPush(MakeNode(std::max(t, now_), NextKey(slot)));
    ++num_pending_;
  }

  /// Schedules `cb` to run `delay` microseconds from now (delay >= 0).
  template <typename F>
  void ScheduleAfter(double delay, F&& cb) {
    PIOQO_CHECK(delay >= 0.0) << "negative or NaN delay " << delay;
    ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  /// Schedules a *cancellable* event (used for I/O timeout deadlines) and
  /// returns a token for `Cancel`. A cancelled event is skipped when it
  /// reaches the head of the queue: it does not run, does not advance the
  /// clock, and does not enter the trace hash — so a deadline that is
  /// cancelled because the guarded I/O completed in time leaves the run
  /// bit-identical to one where no deadline was ever armed.
  template <typename F>
  uint64_t ScheduleCancellableAfter(double delay, F&& cb) {
    PIOQO_CHECK(delay >= 0.0) << "negative or NaN delay " << delay;
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      PIOQO_CHECK(cb != nullptr);
    }
    const uint32_t slot = AcquireSlot();
    records_[slot].cb = std::forward<F>(cb);
    records_[slot].cancellable = true;
    const uint64_t token =
        (uint64_t{records_[slot].generation} << kSlotBits) | slot;
    HeapPush(MakeNode(std::max(now_ + delay, now_), NextKey(slot)));
    ++num_pending_;
    return token;
  }

  /// Cancels a pending cancellable event. Returns true if the event was
  /// still pending (and is now guaranteed never to run), false if it
  /// already fired or was already cancelled. Tokens are generation-checked:
  /// a stale token (its event already fired or cancelled, even if its slab
  /// slot was since reused) always returns false.
  bool Cancel(uint64_t token);

  /// Runs events until the queue is empty. Returns the final clock value.
  SimTime Run();

  /// Runs events with time <= `t`; afterwards Now() == max(event times, t).
  SimTime RunUntil(SimTime t);

  /// Executes the single earliest event; returns false if none pending.
  bool Step();

  /// Live (not-yet-run, not-cancelled) events. Tracked explicitly — the
  /// invariant `num_pending_ + cancelled_in_heap_ == heap_.size()` is
  /// asserted every Step in PIOQO_SIM_CHECKS builds.
  size_t num_pending() const { return num_pending_; }
  uint64_t num_executed() const { return executed_; }

  /// Order-sensitive hash over every executed event's (time, seq) pair.
  /// Two runs of the same scenario are bit-identical iff they executed the
  /// same events in the same order at the same instants — so equal hashes
  /// across same-seed runs are the replay-determinism proof used by
  /// tests/replay_determinism_test.cc, and equal hashes across engine
  /// versions are the bit-identity proof used by tests/trace_golden_test.cc.
  uint64_t trace_hash() const { return trace_hash_; }

 private:
  /// 4-ary min-heap node, packed to 16 bytes (4 per cache line). The whole
  /// ordering — time first, then sequence number — lives in one 128-bit
  /// integer: the high 64 bits are the event time's IEEE-754 bit pattern
  /// (simulated time is never negative, and for non-negative doubles the
  /// bit pattern orders identically to the value), the next 40 bits are the
  /// sequence number, and the low 24 bits are the slab slot. Sequence
  /// numbers are unique, so key order == scheduling order for same-instant
  /// events, and the slot rides along for free below the seq bits without
  /// disturbing the comparison. 40 bits of seq ≈ 10^12 events per
  /// simulator; 24 bits of slot ≈ 16.7M simultaneously pending events
  /// (both checked). One node compare is a single branchless 128-bit
  /// integer compare — this is the innermost operation of the whole
  /// simulator (see DESIGN.md §11).
  struct HeapNode {
    unsigned __int128 ord;
  };

  static constexpr uint32_t kKeySlotBits = 24;
  static constexpr uint64_t kKeySlotMask = (uint64_t{1} << kKeySlotBits) - 1;

  /// Time as order-preserving bits. `t + 0.0` normalizes -0.0 to +0.0 (and
  /// changes nothing else); a negative-zero time would otherwise compare
  /// as a huge unsigned value. NaN is rejected at the schedule entry
  /// points.
  static uint64_t TimeBits(SimTime t) {
    t += 0.0;
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(t));
    __builtin_memcpy(&bits, &t, sizeof(bits));
    return bits;
  }

  static HeapNode MakeNode(SimTime t, uint64_t key) {
    return HeapNode{(static_cast<unsigned __int128>(TimeBits(t)) << 64) | key};
  }
  uint64_t NextKey(uint32_t slot) {
    PIOQO_CHECK((next_seq_ >> (64 - kKeySlotBits)) == 0)
        << "sequence counter exceeded 2^40 events";
    return (next_seq_++ << kKeySlotBits) | slot;
  }
  static SimTime TimeOf(const HeapNode& n) {
    const uint64_t bits = static_cast<uint64_t>(n.ord >> 64);
    SimTime t;
    __builtin_memcpy(&t, &bits, sizeof(t));
    return t;
  }
  static uint64_t SeqOf(const HeapNode& n) {
    return (static_cast<uint64_t>(n.ord) >> kKeySlotBits) &
           ((uint64_t{1} << (64 - kKeySlotBits)) - 1);
  }
  static uint32_t SlotOf(const HeapNode& n) {
    return static_cast<uint32_t>(static_cast<uint64_t>(n.ord) & kKeySlotMask);
  }

  /// Slab record backing one scheduled event. The callback stays put here
  /// (never moved by heap sifts) until execution moves it out, or — for a
  /// cancelled event — until the node is lazily popped and the record
  /// destroyed. `generation` is bumped on every release so stale Cancel
  /// tokens can never hit a reused slot.
  struct EventRecord {
    Callback cb;
    uint32_t generation = 0;
    bool cancellable = false;
    bool cancelled = false;
  };

  static constexpr uint32_t kSlotBits = 32;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

  /// Single branchless 128-bit compare (cmp + sbb on x86-64): event times
  /// are effectively random, so any short-circuit/branchy form would
  /// mispredict on nearly every sift step.
  static bool EarlierThan(const HeapNode& a, const HeapNode& b) {
    return a.ord < b.ord;
  }

  uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    records_.emplace_back();
    const size_t slot = records_.size() - 1;
    PIOQO_CHECK(slot <= kKeySlotMask) << "event slab exceeded 2^24 slots";
    return static_cast<uint32_t>(slot);
  }

  void ReleaseSlot(uint32_t slot);

  void HeapPush(HeapNode node) {
    // Standard hole-based sift-up over 4-ary layout: children of i are
    // 4i+1 .. 4i+4, parent of i is (i-1)/4.
    size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const size_t parent = (hole - 1) / 4;
      if (!EarlierThan(node, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = node;
  }

  /// Removes and returns the minimum node. Precondition: heap not empty.
  HeapNode HeapPopMin();

  std::vector<HeapNode> heap_;
  std::vector<EventRecord> records_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t trace_hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
  /// Live events: scheduled minus executed minus successfully cancelled.
  size_t num_pending_ = 0;
  /// Cancelled events whose heap nodes have not been lazily popped yet.
  size_t cancelled_in_heap_ = 0;
};

}  // namespace pioqo::sim

#endif  // PIOQO_SIM_SIMULATOR_H_
