#ifndef PIOQO_STORAGE_BUFFER_POOL_H_
#define PIOQO_STORAGE_BUFFER_POOL_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "io/query_context.h"
#include "io/retry_policy.h"
#include "sim/wait_queue.h"
#include "storage/disk_image.h"
#include "storage/page.h"

namespace pioqo::storage {

/// Counters exposed by the buffer pool for experiments and tests.
struct BufferPoolStats {
  uint64_t fetches = 0;         // Fetch() calls
  uint64_t hits = 0;            // satisfied without device I/O
  uint64_t misses = 0;          // had to start (or join) a device read
  uint64_t joined_inflight = 0; // miss that piggybacked on a pending read
  uint64_t evictions = 0;
  uint64_t prefetch_issued = 0;   // pages requested by Prefetch/PrefetchBlock
  uint64_t prefetch_read = 0;     // pages actually read by prefetch I/O
  uint64_t prefetch_dropped = 0;  // prefetch pages skipped for lack of frames
  uint64_t device_reads = 0;      // device read *requests* (a block counts 1)
  uint64_t pages_read = 0;        // pages brought in from the device
  uint64_t retries = 0;           // device reads re-issued after failure
  uint64_t timeouts = 0;          // attempts abandoned by the deadline
  uint64_t abandoned_retries = 0; // retries skipped: no live consumer could
                                  // meet its deadline by the re-issue time
  uint64_t failed_loads = 0;      // reads that exhausted every attempt
  uint64_t fetch_errors = 0;      // fetches resolved with a non-OK status
  uint64_t cancelled_fetches = 0; // fetch waiters failed by query cancellation
  uint64_t cancelled_reads = 0;   // device reads reclaimed after their query died
};

/// Retry/timeout configuration for the pool's device reads. The defaults
/// are inert (one attempt, no deadline): an inert pool draws no random
/// numbers and arms no deadline events, so its trace_hash is bit-identical
/// to a pool built before fault handling existed.
struct BufferPoolOptions {
  io::RetryPolicy retry;
  /// Seed for the backoff-jitter RNG (only drawn when a retry happens).
  uint64_t retry_seed = 0x5eedf00dULL;
};

/// A fixed-capacity LRU buffer pool over one `DiskImage`, with asynchronous
/// reads, page pinning, and prefetch — the memory component the paper's
/// break-even analysis depends on ("the size of the memory buffer pool" is
/// one of the two parameters that determine the break-even point, Sec. 2).
///
/// Concurrency model: single simulated timeline. Workers `co_await
/// pool.Fetch(pid)`, which resumes them once the fetch *resolves*: either
/// the page is resident (and pinned for the caller), or the load failed and
/// the returned `PageRef` carries the error. Concurrent fetches of an
/// in-flight page join its waiter list; a failed load resumes every waiter
/// with the same error. `Unpin` must be called exactly once per successful
/// fetch — and never for a failed one.
///
/// Failure handling: a device read that completes with a transient error
/// (or exceeds the per-attempt deadline, which is the only way to recover
/// from a stuck request whose completion never fires) is retried up to
/// `RetryPolicy::max_attempts` times with exponential backoff and
/// deterministic jitter. When every attempt fails, the loading frames are
/// dropped and all waiters resume with the error.
///
/// Eviction: least-recently-used unpinned resident page. When every frame
/// is pinned or loading, a fetch resolves with `kResourceExhausted` (and a
/// prefetch is silently dropped) instead of aborting the process.
///
/// Data structures (DESIGN.md §13): frames live in a fixed slab sized at
/// construction, so every `Frame&` is stable for the pool's lifetime. The
/// page table is a vector of slab slots indexed by PageId, in-flight reads
/// live in a vector indexed by the slab slot of their first frame, the LRU
/// is a doubly-linked list threaded through the slab by slot index, and
/// fetch waiters park in each loading frame's intrusive `sim::WaitQueue`.
/// The steady-state fetch path therefore performs zero heap allocations. A
/// residency bitmap, one bit per disk page, answers ResidentInRange. All of
/// this is host-side bookkeeping: device request order, eviction victims,
/// and waiter resume order are bit-identical to the node-based
/// implementation (enforced by buffer_pool_stress_test's recorded goldens).
class BufferPool {
 public:
  BufferPool(DiskImage& disk, uint32_t capacity_pages,
             BufferPoolOptions options = {});
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Result of a fetch. On success `data` is a stable pointer to the
  /// resident page bytes and the page is pinned; on failure `data` is null,
  /// `status` carries the error, and the page is *not* pinned.
  struct PageRef {
    const char* data = nullptr;
    bool was_hit = false;
    Status status;
    bool ok() const { return status.ok(); }
  };

  class FetchAwaiter : public io::QueryContext::CancelListener,
                       public sim::WaitNode {
   public:
    FetchAwaiter(BufferPool& pool, PageId pid, io::QueryContext* query)
        : pool_(pool), pid_(pid), query_(query) {}
    /// Unparks (and releases the suspend-time pin) if the waiting coroutine
    /// is destroyed before the load resolves.
    ~FetchAwaiter();

    bool await_ready();
    /// Returns false (resume immediately) when the fetch resolves without
    /// I/O — which now includes the kResourceExhausted path.
    bool await_suspend(std::coroutine_handle<> h);
    PageRef await_resume();

   private:
    friend class BufferPool;
    /// Query died while this fetch was suspended: detach from the frame,
    /// release every pin, fail with the cancellation reason, and resume via
    /// the event queue (never inline — the cancel may originate anywhere).
    void OnQueryCancelled(const Status& reason) override;
    /// Unparks before the read resolved it and drops the pins it holds.
    void LeaveEarly();

    BufferPool& pool_;
    PageId pid_;
    io::QueryContext* query_;
    Status status_;
    bool was_hit_ = false;
    bool counted_pin_ = false;  // pin counted in the query's pin counter
    bool listening_ = false;    // registered as the query's cancel listener
  };

  /// Awaitable: resumes when the fetch of page `pid` resolves (success or
  /// failure — check `PageRef::ok()`). With a `query`, the fetch observes
  /// its cancellation token, counts the pin in the query's pin counter, and
  /// is failed (with pins released) the instant the query is cancelled.
  FetchAwaiter Fetch(PageId pid, io::QueryContext* query = nullptr) {
    return FetchAwaiter(*this, pid, query);
  }

  /// Releases one pin taken by a *successful* Fetch. Pass the same `query`
  /// the Fetch carried so its pin counter balances.
  void Unpin(PageId pid, io::QueryContext* query = nullptr);

  /// Starts one device read covering pages [first, first+count) that are not
  /// yet resident/in-flight, as a single large request (the paper's FTS
  /// "instead of prefetching pages one by one a large block consisting of
  /// several consecutive pages is read at a time"). Pages already resident
  /// or in flight are skipped by splitting the block at them: each run of
  /// absent pages is one StartRead. Never blocks the caller; pages land
  /// unpinned. Best-effort: pages that find no free frame are dropped
  /// (counted in stats). `count` 1 prefetches one page.
  void PrefetchBlock(PageId first, uint32_t count);

  /// True if `pid` can be returned by Fetch without device I/O right now.
  bool IsResident(PageId pid) const;

  /// Number of resident pages within [first, first + count) — the cached
  /// statistic the paper's optimizer consults ("SQL Anywhere maintains
  /// statistics on how many table and index pages are currently cached").
  /// A masked popcount over the residency bitmap: one word per 64 pages of
  /// the range (128 for an 8192-page table), independent of pool size.
  uint32_t ResidentInRange(PageId first, uint32_t count) const;

  /// Drops every unpinned resident frame (simulates flushing the cache
  /// between experiments). Returns kFailedPrecondition — without dropping
  /// anything — if any page is still pinned or in flight.
  Status Clear();

  uint32_t capacity() const { return capacity_; }
  uint32_t resident_pages() const { return num_frames_; }
  const BufferPoolStats& stats() const { return stats_; }

  DiskImage& disk() { return disk_; }

 private:
  enum class FrameState : uint8_t { kLoading, kReady };

  /// Sentinel slot index for the page table, the intrusive LRU links and
  /// the free list.
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Frame {
    PageId pid = kInvalidPageId;
    FrameState state = FrameState::kLoading;
    bool in_lru = false;  // linked into the LRU list (see lru_prev)
    const char* data = nullptr;
    /// Slot of the read loading this frame in `reads_` (the slot of that
    /// read's first frame); valid only while state == kLoading.
    uint32_t read_slot = kNoSlot;
    /// Suspended fetches, oldest first; empty unless state == kLoading.
    sim::WaitQueue<FetchAwaiter> waiters;
    uint32_t pin_count = 0;
    /// Intrusive LRU links (slot indices into the slab); valid only when
    /// in_lru, i.e. state == kReady and pin_count == 0.
    uint32_t lru_prev = kNoSlot;
    uint32_t lru_next = kNoSlot;
    /// Free-list link; valid only while the slot is unused.
    uint32_t next_free = kNoSlot;
  };
  // One frame per 64-byte cache line, so a hit or an eviction touches one
  // line. A 72-byte frame measured within noise (DESIGN.md §13); the
  // assert keeps growing the frame a measured decision.
  static_assert(sizeof(Frame) == 64);

  /// One outstanding device read (possibly spanning several pages), tracked
  /// across retries in the `reads_` slot of its first frame. Completions,
  /// deadlines and retries carry (slot, id, attempt) and are ignored once
  /// the slot no longer holds that read at that attempt: that is how a late
  /// completion of a timed-out attempt is discarded, even after the read
  /// has ended and its slot hosts a newer read.
  struct InflightRead {
    uint64_t id = 0;  // unique per read; 0 while the slot holds no read
    PageId first = kInvalidPageId;
    uint32_t count = 0;
    int attempt = 1;
    bool prefetch = false;
    bool has_deadline = false;
    uint64_t deadline_token = 0;
    /// Device request id of the current attempt, for Device::Cancel —
    /// the reclamation path for stuck requests and dead queries' reads.
    uint64_t device_request_id = 0;
    /// The query a (non-prefetch) fetch read was started for; cleared when
    /// other queries' waiters join or survive it. Null for prefetch reads.
    io::QueryContext* originator = nullptr;
  };

  /// Slab lookup through the page table; nullptr when `pid` has no frame.
  Frame* FindFrame(PageId pid) {
    const uint32_t slot = pid < page_slots_.size() ? page_slots_[pid] : kNoSlot;
    return slot != kNoSlot ? &slab_[slot] : nullptr;
  }
  const Frame* FindFrame(PageId pid) const {
    return const_cast<BufferPool*>(this)->FindFrame(pid);
  }
  uint32_t SlotOf(const Frame& f) const {
    return static_cast<uint32_t>(&f - slab_.data());
  }
  /// Takes a slot off the free list and binds it to `pid` in the page
  /// table, first growing the page table and the residency bitmap to the
  /// disk's page count if `pid` lies past their end (a page past the disk
  /// aborts). Requires a free slot (EnsureCapacity guarantees one).
  Frame& AllocFrame(PageId pid);
  /// Unbinds the frame from the page table, clears its residency bit and
  /// returns its slot to the free list.
  void ReleaseFrame(Frame& f);

  /// Makes room for one more frame, evicting the LRU unpinned page if at
  /// capacity (counting in-flight frames against capacity). Returns false
  /// when every frame is pinned or loading.
  bool EnsureCapacity();
  /// Creates loading frames for [first, first+count) and issues the device
  /// read. For a fetch (count == 1, !prefetch) fails with
  /// kResourceExhausted when no frame is free; for a prefetch the block is
  /// truncated to the frames available (possibly to nothing).
  Status StartRead(PageId first, uint32_t count, bool prefetch,
                   io::QueryContext* originator = nullptr);
  /// A cancelled query's waiter detached from `pid`'s loading frame: if the
  /// read was started for that query and nobody else waits on it, try to
  /// reclaim the queued device request (else let it land as an unpinned
  /// resident page, like a prefetch).
  void OnWaiterCancelled(PageId pid, io::QueryContext* query);
  /// The read in `slot` if it is still read `id` at `attempt`; nullptr
  /// when that read has ended or moved on to a later attempt.
  InflightRead* LiveRead(uint32_t slot, uint64_t id, int attempt) {
    InflightRead& r = reads_[slot];
    return r.id == id && r.attempt == attempt ? &r : nullptr;
  }
  /// Submits the device read for the current attempt of the read in `slot`
  /// and arms the deadline if the retry policy has one.
  void IssueAttempt(uint32_t slot);
  void OnReadComplete(uint32_t slot, uint64_t id, int attempt,
                      const Status& status);
  void OnDeadline(uint32_t slot, uint64_t id, int attempt);
  /// False when no live consumer of the read could meet its deadline even
  /// if the retry (re-issued after `backoff`) succeeded instantly.
  bool RetryWorthwhile(const InflightRead& r, double backoff) const;
  /// Retries (after backoff) or, when attempts are exhausted, fails the
  /// read: drops its loading frames and resumes all waiters with `status`.
  void HandleFailure(uint32_t slot, const Status& status);
  void FailRead(uint32_t slot, const Status& status);
  void AddToLru(Frame& frame);
  void RemoveFromLru(Frame& frame);

  DiskImage& disk_;
  const uint32_t capacity_;
  BufferPoolOptions options_;
  Pcg32 retry_rng_;
  /// Fixed frame slab: allocated once, never resized, so `Frame&` stays
  /// stable across every pool operation. Unused slots chain through
  /// `next_free`.
  std::vector<Frame> slab_;
  uint32_t free_head_ = kNoSlot;
  uint32_t num_frames_ = 0;  // slots bound in the page table
  /// Page table: PageId -> slab slot, kNoSlot when the page has no frame.
  /// Grown to the disk's page count when a frame is bound past its end.
  std::vector<uint32_t> page_slots_;
  /// In-flight reads, indexed by the slab slot of each read's first frame:
  /// a read holds that frame loading until it ends, so no two live reads
  /// share a slot. Sized to `capacity_` once.
  std::vector<InflightRead> reads_;
  uint64_t next_read_id_ = 1;
  /// Intrusive LRU through the slab; head = most recent, tail = victim.
  uint32_t lru_head_ = kNoSlot;
  uint32_t lru_tail_ = kNoSlot;
  /// Residency bitmap: bit `pid` is set exactly while `pid` has a kReady
  /// frame. Grown with the page table, so ResidentInRange counts without
  /// touching the page table or slab.
  std::vector<uint64_t> resident_;
  BufferPoolStats stats_;
};

}  // namespace pioqo::storage

#endif  // PIOQO_STORAGE_BUFFER_POOL_H_
