#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "sim/sim_checks.h"

namespace pioqo::storage {

namespace {

/// A negative or NaN backoff aborts the simulator at the first retry, and a
/// negative or NaN deadline silently disables it.
void CheckRetryPolicy(const io::RetryPolicy& retry) {
  PIOQO_CHECK(retry.max_attempts >= 1)
      << "retry max_attempts must be at least 1, got " << retry.max_attempts;
  const std::pair<const char*, double> non_negative[] = {
      {"timeout_us", retry.timeout_us},
      {"backoff_base_us", retry.backoff_base_us},
      {"backoff_multiplier", retry.backoff_multiplier}};
  for (const auto& [name, value] : non_negative) {
    PIOQO_CHECK(std::isfinite(value) && value >= 0.0)
        << "retry " << name << " must be non-negative and finite, got "
        << value;
  }
  PIOQO_CHECK(retry.jitter_frac >= 0.0 && retry.jitter_frac <= 1.0)
      << "retry jitter_frac must lie in [0, 1], got " << retry.jitter_frac;
}

}  // namespace

BufferPool::BufferPool(DiskImage& disk, uint32_t capacity_pages,
                       BufferPoolOptions options)
    : disk_(disk),
      capacity_(capacity_pages),
      options_(options),
      retry_rng_(options.retry_seed) {
  PIOQO_CHECK(capacity_pages >= 2);
  CheckRetryPolicy(options_.retry);
  // The slab is the high-water mark: at most `capacity_` frames can ever be
  // resident or loading, and so at most `capacity_` reads in flight.
  slab_.resize(capacity_pages);
  for (uint32_t i = 0; i < capacity_pages; ++i) {
    slab_[i].next_free = (i + 1 < capacity_pages) ? i + 1 : kNoSlot;
  }
  free_head_ = 0;
  reads_.resize(capacity_pages);
}

BufferPool::Frame& BufferPool::AllocFrame(PageId pid) {
  if (pid >= page_slots_.size()) {
    PIOQO_CHECK(pid < disk_.num_pages())
        << "page " << pid << " lies past the disk's " << disk_.num_pages()
        << " pages";
    page_slots_.resize(disk_.num_pages(), kNoSlot);
    resident_.resize((disk_.num_pages() + 63) / 64);
  }
  PIOQO_CHECK(free_head_ != kNoSlot);
  const uint32_t slot = free_head_;
  Frame& f = slab_[slot];
  free_head_ = f.next_free;
  f = Frame{};
  f.pid = pid;
  page_slots_[pid] = slot;
  ++num_frames_;
  return f;
}

void BufferPool::ReleaseFrame(Frame& f) {
  const uint32_t slot = SlotOf(f);
  // A loading frame's bit is already clear.
  resident_[f.pid / 64] &= ~(uint64_t{1} << (f.pid % 64));
  page_slots_[f.pid] = kNoSlot;
  --num_frames_;
  f.pid = kInvalidPageId;
  f.next_free = free_head_;
  free_head_ = slot;
}

BufferPool::FetchAwaiter::~FetchAwaiter() {
  if (listening_) {
    query_->RemoveCancelListener(this);
    listening_ = false;
  }
  // If the waiting coroutine is destroyed before the load resolves, release
  // the suspend-time pin so the frame can still be evicted later.
  if (parked()) LeaveEarly();
}

void BufferPool::FetchAwaiter::LeaveEarly() {
  Unpark();
  // A failed read already dropped its frames, and their pins with them.
  if (status_.ok()) {
    Frame* f = pool_.FindFrame(pid_);
    PIOQO_CHECK(f != nullptr && f->pin_count > 0);
    if (--f->pin_count == 0 && f->state == FrameState::kReady) {
      pool_.AddToLru(*f);
    }
  }
  if (counted_pin_) {
    query_->OnUnpin();
    counted_pin_ = false;
  }
}

bool BufferPool::FetchAwaiter::await_ready() {
  ++pool_.stats_.fetches;
  if (query_ != nullptr) {
    // Cooperative cancellation: a dead query's fetch resolves immediately
    // with the cancellation reason, before touching pool state.
    Status alive = query_->CheckAlive();
    if (!alive.ok()) {
      ++pool_.stats_.fetch_errors;
      status_ = std::move(alive);
      return true;
    }
  }
  Frame* f = pool_.FindFrame(pid_);
  if (f != nullptr && f->state == FrameState::kReady) {
    if (query_ != nullptr) {
      query_->OnPin();
      counted_pin_ = true;
    }
    // Hit: pin immediately, no suspension.
    ++pool_.stats_.hits;
    // Pinning removes the page from the LRU list; Unpin re-inserts it at the
    // MRU end, which is what makes the policy least-recently-*used*.
    pool_.RemoveFromLru(*f);
    ++f->pin_count;
    was_hit_ = true;
    return true;
  }
  return false;
}

bool BufferPool::FetchAwaiter::await_suspend(std::coroutine_handle<> h) {
  ++pool_.stats_.misses;
  Frame* f = pool_.FindFrame(pid_);
  if (f == nullptr) {
    Status st = pool_.StartRead(pid_, 1, /*prefetch=*/false, query_);
    if (!st.ok()) {
      // No frame available: resolve immediately with the error instead of
      // suspending (the old pool aborted the process here).
      ++pool_.stats_.fetch_errors;
      status_ = std::move(st);
      return false;
    }
    f = pool_.FindFrame(pid_);
    PIOQO_CHECK(f != nullptr);
  } else {
    ++pool_.stats_.joined_inflight;
  }
  PIOQO_CHECK(f->state == FrameState::kLoading);
  f->waiters.Park(*this, h);
  // Pin at suspend time: a waiter resumed earlier could otherwise evict the
  // page (via its own fetches) before this waiter runs. The query counts
  // this pin too: it is a real frame the query keeps un-evictable.
  ++f->pin_count;
  if (query_ != nullptr) {
    query_->OnPin();
    counted_pin_ = true;
    query_->AddCancelListener(this);
    listening_ = true;
  }
  return true;
}

BufferPool::PageRef BufferPool::FetchAwaiter::await_resume() {
  if (listening_) {
    query_->RemoveCancelListener(this);
    listening_ = false;
  }
  if (!status_.ok()) {
    // Failed load: the loading frame (and with it this fetch's pin) is
    // already gone; the caller must not Unpin.
    if (counted_pin_) {
      query_->OnUnpin();
      counted_pin_ = false;
    }
    return PageRef{nullptr, false, status_};
  }
  Frame* f = pool_.FindFrame(pid_);
  PIOQO_CHECK(f != nullptr && f->state == FrameState::kReady)
      << "page " << pid_ << " not resident after fetch";
  // Hit path pinned in await_ready; miss path pinned in await_suspend. The
  // query's pin (counted_pin_) stays counted until Unpin(pid, query).
  PIOQO_CHECK(f->pin_count > 0);
  return PageRef{f->data, was_hit_, Status::OK()};
}

void BufferPool::FetchAwaiter::OnQueryCancelled(const Status& reason) {
  // The QueryContext already dropped us from its listener list.
  listening_ = false;
  PIOQO_CHECK(parked() && status_.ok());
  LeaveEarly();
  status_ = reason;
  ++pool_.stats_.cancelled_fetches;
  ++pool_.stats_.fetch_errors;
  pool_.OnWaiterCancelled(pid_, query_);
  // Resume through the event queue: this callback runs synchronously inside
  // Cancel(), possibly deep in another coroutine's frame.
  sim::ScheduleResume(pool_.disk_.device().simulator(), 0.0, handle());
}

void BufferPool::Unpin(PageId pid, io::QueryContext* query) {
  Frame* f = FindFrame(pid);
  PIOQO_CHECK(f != nullptr) << "unpin of non-resident page " << pid;
  PIOQO_CHECK(f->pin_count > 0) << "unpin of unpinned page " << pid;
  if (--f->pin_count == 0) AddToLru(*f);
  if (query != nullptr) query->OnUnpin();
}

void BufferPool::PrefetchBlock(PageId first, uint32_t count) {
  stats_.prefetch_issued += count;
  // Split the block into maximal runs of absent pages; each run is one
  // device request.
  uint32_t run_start = 0;
  bool in_run = false;
  for (uint32_t i = 0; i <= count; ++i) {
    const bool absent = i < count && FindFrame(first + i) == nullptr;
    if (absent && !in_run) {
      run_start = i;
      in_run = true;
    } else if (!absent && in_run) {
      Status st =
          StartRead(first + run_start, i - run_start, /*prefetch=*/true);
      (void)st;  // prefetch is best-effort; drops are counted in stats
      in_run = false;
    }
  }
}

bool BufferPool::IsResident(PageId pid) const {
  const Frame* f = FindFrame(pid);
  return f != nullptr && f->state == FrameState::kReady;
}

uint32_t BufferPool::ResidentInRange(PageId first, uint32_t count) const {
  // Pages past the bitmap's end have never landed, so none is resident.
  const uint64_t end = std::min<uint64_t>(uint64_t{first} + count,
                                          uint64_t{resident_.size()} * 64);
  if (first >= end) return 0;
  const uint64_t head = first / 64;
  const uint64_t tail = (end - 1) / 64;
  const uint64_t head_mask = ~uint64_t{0} << (first % 64);
  const uint64_t tail_mask = ~uint64_t{0} >> (63 - (end - 1) % 64);
  if (head == tail) {
    return std::popcount(resident_[head] & head_mask & tail_mask);
  }
  uint32_t resident = std::popcount(resident_[head] & head_mask);
  for (uint64_t w = head + 1; w < tail; ++w) {
    resident += std::popcount(resident_[w]);
  }
  return resident + std::popcount(resident_[tail] & tail_mask);
}

Status BufferPool::Clear() {
  for (const Frame& f : slab_) {
    if (f.pid == kInvalidPageId) continue;
    if (f.pin_count > 0) {
      return Status::FailedPrecondition("Clear() with pinned page " +
                                        std::to_string(f.pid));
    }
    if (f.state != FrameState::kReady) {
      return Status::FailedPrecondition("Clear() with in-flight page " +
                                        std::to_string(f.pid));
    }
  }
  std::fill(page_slots_.begin(), page_slots_.end(), kNoSlot);
  for (uint32_t i = 0; i < capacity_; ++i) {
    slab_[i] = Frame{};
    slab_[i].next_free = (i + 1 < capacity_) ? i + 1 : kNoSlot;
  }
  free_head_ = 0;
  num_frames_ = 0;
  lru_head_ = lru_tail_ = kNoSlot;
  std::fill(resident_.begin(), resident_.end(), 0);
  return Status::OK();
}

bool BufferPool::EnsureCapacity() {
  if (num_frames_ < capacity_) return true;
  if (lru_tail_ == kNoSlot) return false;  // every frame pinned or loading
  Frame& victim = slab_[lru_tail_];
  RemoveFromLru(victim);
  ReleaseFrame(victim);
  ++stats_.evictions;
  return true;
}

Status BufferPool::StartRead(PageId first, uint32_t count, bool prefetch,
                             io::QueryContext* originator) {
  PIOQO_CHECK(count >= 1);
  uint32_t slot = kNoSlot;  // the first frame's, which keys the read
  uint32_t created = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (!EnsureCapacity()) break;
    Frame& f = AllocFrame(first + i);
    if (created == 0) slot = SlotOf(f);
    f.state = FrameState::kLoading;
    f.read_slot = slot;
    ++created;
  }
  if (created < count) {
    if (!prefetch) {
      // A fetch reads exactly one page, so created == 0 here: nothing to
      // undo.
      return Status::ResourceExhausted(
          "buffer pool exhausted: all " + std::to_string(capacity_) +
          " frames pinned or loading (fetching page " + std::to_string(first) +
          ")");
    }
    // Best-effort prefetch: read the pages we found frames for, drop the
    // rest.
    stats_.prefetch_dropped += count - created;
    if (created == 0) return Status::OK();
    count = created;
  }
  ++stats_.device_reads;
  stats_.pages_read += count;
  if (prefetch) stats_.prefetch_read += count;
  InflightRead& r = reads_[slot];
  r = InflightRead{};
  r.id = next_read_id_++;
  r.first = first;
  r.count = count;
  r.prefetch = prefetch;
  r.originator = prefetch ? nullptr : originator;
  IssueAttempt(slot);
  return Status::OK();
}

void BufferPool::OnWaiterCancelled(PageId pid, io::QueryContext* query) {
  Frame* f = FindFrame(pid);
  if (f == nullptr || f->state != FrameState::kLoading) return;
  InflightRead& r = reads_[f->read_slot];
  PIOQO_CHECK(r.id != 0);
  if (r.originator != query) return;  // started by (or handed to) another query
  if (!f->waiters.empty()) {
    // Someone else still wants the page: the read survives its originator.
    r.originator = nullptr;
    return;
  }
  PIOQO_CHECK(f->pin_count == 0);
  if (!disk_.device().Cancel(r.device_request_id)) {
    // Already being serviced (or waiting out a retry backoff): let it land
    // as an unpinned resident page, exactly like a prefetch.
    r.originator = nullptr;
    return;
  }
  // Reclaimed before service: drop the loading frames and free the read's
  // slot; the cancelled completion will never fire.
  if (r.has_deadline) disk_.device().simulator().Cancel(r.deadline_token);
  r.id = 0;
  for (uint32_t i = 0; i < r.count; ++i) {
    Frame* df = FindFrame(r.first + i);
    PIOQO_CHECK(df != nullptr && df->state == FrameState::kLoading &&
                df->waiters.empty() && df->pin_count == 0);
    ReleaseFrame(*df);
  }
  ++stats_.cancelled_reads;
}

void BufferPool::IssueAttempt(uint32_t slot) {
  InflightRead& r = reads_[slot];
  const uint64_t id = r.id;
  const int attempt = r.attempt;
  if (options_.retry.timeout_us > 0.0) {
    // The deadline is the only recovery path for a stuck request (whose
    // completion never fires). Cancellable: when the read completes in
    // time, the cancelled deadline never executes and leaves no trace.
    r.has_deadline = true;
    r.deadline_token = disk_.device().simulator().ScheduleCancellableAfter(
        options_.retry.timeout_us,
        [this, slot, id, attempt] { OnDeadline(slot, id, attempt); });
  }
  r.device_request_id = disk_.device().Submit(
      io::IoRequest{io::IoRequest::Kind::kRead, disk_.OffsetOf(r.first),
                    r.count * kPageSize},
      [this, slot, id, attempt](const io::IoResult& result) {
        OnReadComplete(slot, id, attempt, result.status);
      });
}

void BufferPool::OnReadComplete(uint32_t slot, uint64_t id, int attempt,
                                const Status& status) {
  InflightRead* r = LiveRead(slot, id, attempt);
  if (r == nullptr) {
    // Stale completion: this attempt already timed out (and was retried or
    // failed, its slot perhaps reused by a newer read). The data itself
    // lives in the DiskImage, so discarding the late completion loses
    // nothing.
    return;
  }
  if (r->has_deadline) {
    disk_.device().simulator().Cancel(r->deadline_token);
    r->has_deadline = false;
  }
  if (!status.ok()) {
    HandleFailure(slot, status);
    return;
  }
  const PageId first = r->first;
  const uint32_t count = r->count;
  r->id = 0;  // a waiter resumed below may start a read in this slot
  for (uint32_t i = 0; i < count; ++i) {
    const PageId pid = first + i;
    Frame* f = FindFrame(pid);
    PIOQO_CHECK(f != nullptr && f->state == FrameState::kLoading);
    f->state = FrameState::kReady;
    f->data = disk_.PageData(pid);
    resident_[pid / 64] |= uint64_t{1} << (pid % 64);
    if (f->pin_count == 0) AddToLru(*f);  // waiters already hold pins
    // Detach the waiters before resuming any: a resumed coroutine may fetch
    // this page again, parking a fresh waiter on the (now empty) frame
    // queue without disturbing this walk.
    sim::WaitQueue<FetchAwaiter> ready;
    ready.Append(f->waiters);
    while (FetchAwaiter* w = ready.PopFront()) {
      sim::checks::OnBeforeResume(w->handle().address());
      w->handle().resume();
    }
  }
}

void BufferPool::OnDeadline(uint32_t slot, uint64_t id, int attempt) {
  InflightRead* r = LiveRead(slot, id, attempt);
  if (r == nullptr) return;
  r->has_deadline = false;  // this deadline just fired
  ++stats_.timeouts;
  // Try to reclaim the queue slot the abandoned attempt occupies — the
  // recovery path for a *stuck* request, which otherwise pins a device
  // slot forever. False just means the request is genuinely in service
  // (merely slow); its late completion will be discarded as stale.
  disk_.device().Cancel(r->device_request_id);
  // Bumping `attempt` in the retry path (or freeing the slot in the fail
  // path) makes any late completion of this attempt stale.
  HandleFailure(slot,
                Status::IoError("page read timed out after " +
                                std::to_string(options_.retry.timeout_us) +
                                "us (pages " + std::to_string(r->first) + "+" +
                                std::to_string(r->count) + ")"));
}

bool BufferPool::RetryWorthwhile(const InflightRead& r, double backoff) const {
  // A retry is worthwhile only if some consumer of the read could still use
  // the page: a retry that cannot be *re-issued* before every interested
  // query's deadline has passed (or whose queries are all dead already)
  // just burns device time during what is probably a degraded phase.
  const double earliest_reissue = disk_.device().simulator().Now() + backoff;
  bool any_consumer = false;
  bool any_benefit = false;
  auto consider = [&](io::QueryContext* q) {
    any_consumer = true;
    if (q == nullptr) {
      any_benefit = true;  // unattributed fetch: assume it still wants the page
      return;
    }
    if (q->cancelled()) return;
    if (!q->has_deadline() || q->deadline_us() < 0.0 ||
        earliest_reissue < q->deadline_us()) {
      any_benefit = true;
    }
  };
  for (uint32_t i = 0; i < r.count; ++i) {
    const Frame* f = FindFrame(r.first + i);
    if (f == nullptr) continue;
    f->waiters.ForEach([&](const FetchAwaiter& w) { consider(w.query_); });
  }
  if (!any_consumer) {
    // No suspended waiters: prefetches stay best-effort (land unpinned), a
    // fetch read falls back to its originating query's viability.
    if (r.prefetch) return true;
    consider(r.originator);
    if (!any_consumer) return true;
  }
  return any_benefit;
}

void BufferPool::HandleFailure(uint32_t slot, const Status& status) {
  InflightRead& r = reads_[slot];
  // Only kIoError is transient; kOutOfRange (malformed request) would fail
  // identically on every attempt.
  const bool retryable = status.code() == StatusCode::kIoError;
  if (retryable && r.attempt < options_.retry.max_attempts) {
    const double backoff = options_.retry.BackoffUs(r.attempt, retry_rng_);
    if (!RetryWorthwhile(r, backoff)) {
      ++stats_.abandoned_retries;
      FailRead(slot, status);
      return;
    }
    ++stats_.retries;
    ++r.attempt;
    disk_.device().simulator().ScheduleAfter(
        backoff, [this, slot, id = r.id, attempt = r.attempt] {
          // A read waiting out its backoff has no live completion or
          // deadline, so nothing can have ended it.
          PIOQO_CHECK(LiveRead(slot, id, attempt) != nullptr);
          IssueAttempt(slot);
        });
    return;
  }
  FailRead(slot, status);
}

void BufferPool::FailRead(uint32_t slot, const Status& status) {
  InflightRead& r = reads_[slot];
  const PageId first = r.first;
  const uint32_t count = r.count;
  r.id = 0;
  ++stats_.failed_loads;
  // Drop every loading frame *before* resuming any waiter: a resumed
  // coroutine that immediately re-fetches the page must start a fresh read,
  // and the suspend-time pins die with their frames (a failed fetch is
  // never Unpinned). Waiters resume in page order, then arrival order.
  sim::WaitQueue<FetchAwaiter> failed;
  for (uint32_t i = 0; i < count; ++i) {
    Frame* f = FindFrame(first + i);
    PIOQO_CHECK(f != nullptr && f->state == FrameState::kLoading);
    failed.Append(f->waiters);
    ReleaseFrame(*f);
  }
  // Mark every waiter failed before resuming the first one, so a resumed
  // coroutine that tears down a sibling (whose awaiter then unparks) finds
  // it holding no pin.
  failed.ForEach([&](FetchAwaiter& w) {
    ++stats_.fetch_errors;
    w.status_ = status;
  });
  while (FetchAwaiter* w = failed.PopFront()) {
    sim::checks::OnBeforeResume(w->handle().address());
    w->handle().resume();
  }
}

void BufferPool::AddToLru(Frame& frame) {
  if (frame.in_lru) return;
  const uint32_t slot = SlotOf(frame);
  frame.lru_prev = kNoSlot;
  frame.lru_next = lru_head_;
  if (lru_head_ != kNoSlot) slab_[lru_head_].lru_prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNoSlot) lru_tail_ = slot;
  frame.in_lru = true;
}

void BufferPool::RemoveFromLru(Frame& frame) {
  if (!frame.in_lru) return;
  if (frame.lru_prev != kNoSlot) {
    slab_[frame.lru_prev].lru_next = frame.lru_next;
  } else {
    lru_head_ = frame.lru_next;
  }
  if (frame.lru_next != kNoSlot) {
    slab_[frame.lru_next].lru_prev = frame.lru_prev;
  } else {
    lru_tail_ = frame.lru_prev;
  }
  frame.lru_prev = frame.lru_next = kNoSlot;
  frame.in_lru = false;
}

}  // namespace pioqo::storage
