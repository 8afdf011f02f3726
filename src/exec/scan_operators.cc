#include "exec/scan_operators.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "io/device.h"
#include "io/health_monitor.h"
#include "io/query_context.h"
#include "storage/data_generator.h"
#include "sim/sync.h"
#include "sim/task.h"

// The scan's measurement and block cursor keep namespace internal, and so
// external linkage, where the helpers below are in an anonymous namespace:
// with internal linkage GCC 12 at -O3 inlines them into StartScan, which
// grows from 0xc40 to 0x106e bytes.
namespace pioqo::exec::internal {

/// Snapshots the clock and the pool counters (and resets the device
/// counters) on construction; Finish() folds the run since then into a
/// ScanResult.
class Measurement {
 public:
  explicit Measurement(ExecContext& ctx);
  ScanResult Finish(const ScanAggregate& agg) const;

 private:
  ExecContext& ctx_;
  sim::SimTime start_time_;
  storage::BufferPoolStats start_pool_;
};

/// The full table scan's sequential walk over a table: workers claim pages
/// from one counter while a block prefetcher keeps up to `prefetch_blocks`
/// reads of `constants.fts_block_pages` pages in flight ahead of them. A
/// block holds its prefetch slot until every one of its pages is consumed.
class BlockCursor {
 public:
  BlockCursor(ExecContext& ctx, const storage::Table& table,
              int prefetch_blocks);

  /// Claims the next page; false once every page has been claimed.
  bool Next(storage::PageId& page) {
    if (next_page_ >= end_page_) return false;
    page = next_page_++;
    return true;
  }

  /// Marks a claimed page consumed — scanned, failed or drained alike.
  /// Consuming a block's last page releases its prefetch slot.
  void Consumed(storage::PageId page) {
    if (--block_remaining_[(page - first_page_) / block_pages_] == 0) {
      prefetch_slots_.Release();
    }
  }

  /// The block prefetcher coroutine. Once `scan_status` holds an error it
  /// keeps cycling through the slot protocol (drain-mode workers still
  /// consume pages) but issues no new I/O.
  sim::Task Prefetcher(const Status& scan_status);

 private:
  ExecContext& ctx_;
  const storage::PageId first_page_;
  const storage::PageId end_page_;
  storage::PageId next_page_;
  const uint32_t block_pages_;
  std::vector<int32_t> block_remaining_;
  sim::Semaphore prefetch_slots_;
};

}  // namespace pioqo::exec::internal

namespace pioqo::exec {

using storage::BPlusTree;
using storage::kInvalidPageId;
using storage::PageId;

namespace internal {

Measurement::Measurement(ExecContext& ctx)
    : ctx_(ctx), start_time_(ctx.sim.Now()), start_pool_(ctx.pool.stats()) {
  ctx_.pool.disk().device().stats().Reset();
}

ScanResult Measurement::Finish(const ScanAggregate& agg) const {
  ScanResult r;
  r.max_c1 = agg.max_c1;
  r.rows_matched = agg.rows_matched;
  r.rows_examined = agg.rows_examined;
  r.runtime_us = ctx_.sim.Now() - start_time_;
  const auto& dev = ctx_.pool.disk().device().stats();
  r.device_reads = dev.reads();
  r.bytes_read = dev.bytes_read();
  r.avg_queue_depth = dev.AverageQueueDepth(ctx_.sim.Now());
  r.io_throughput_mbps = dev.ThroughputMbps();
  const auto& pool = ctx_.pool.stats();
  r.pool_hits = pool.hits - start_pool_.hits;
  r.pool_misses = pool.misses - start_pool_.misses;
  r.status = agg.status;
  return r;
}

BlockCursor::BlockCursor(ExecContext& ctx, const storage::Table& table,
                         int prefetch_blocks)
    : ctx_(ctx),
      first_page_(table.first_page()),
      end_page_(table.first_page() + table.num_pages()),
      next_page_(table.first_page()),
      block_pages_(ctx.constants.fts_block_pages),
      prefetch_slots_(ctx.sim, prefetch_blocks) {
  const uint32_t blocks = (table.num_pages() + block_pages_ - 1) / block_pages_;
  block_remaining_.assign(blocks, 0);
  for (uint32_t b = 0; b < blocks; ++b) {
    block_remaining_[b] = static_cast<int32_t>(
        std::min<uint32_t>(block_pages_, table.num_pages() - b * block_pages_));
  }
}

sim::Task BlockCursor::Prefetcher(const Status& scan_status) {
  for (PageId b = first_page_; b < end_page_;
       b += static_cast<PageId>(block_pages_)) {
    co_await prefetch_slots_.WaitAcquire();
    // Workers may already be past this block; a fully consumed block's
    // pages are simply found resident/in flight and skipped.
    if (scan_status.ok()) {
      ctx_.pool.PrefetchBlock(b, std::min<uint32_t>(block_pages_, end_page_ - b));
    }
  }
}

}  // namespace internal

namespace {

using internal::BlockCursor;
using internal::Measurement;

using Aggregate = ScanAggregate;

/// Page-granularity cancellation poll: records the query's cancellation
/// status (if it died) into the aggregate so the scan's drain protocol
/// takes over. Returns true when the scan should stop doing device work.
bool PollCancelled(ExecContext& ctx, Aggregate& agg) {
  if (ctx.query != nullptr && !agg.failed()) {
    Status alive = ctx.query->CheckAlive();
    if (!alive.ok()) agg.RecordError(alive);
  }
  return agg.failed();
}

/// Graceful degradation: between units of work, re-evaluates the health
/// monitor's DOP clamp against the scan's currently allowed parallelism and
/// reports whether worker `worker_index` should retire. Worker 0 never
/// does, so the scan always completes, degraded or not.
template <typename State>
bool ShouldRetire(State& s, int worker_index) {
  if (worker_index == 0) return false;
  io::DeviceHealthMonitor* health = s.ctx.health;
  if (health != nullptr && s.allowed_dop > 1 && health->degraded()) {
    s.allowed_dop = std::min(s.allowed_dop, health->ClampDop(s.allowed_dop));
  }
  return worker_index >= s.allowed_dop;
}

// ---------------------------------------------------------------------------
// Full table scan
// ---------------------------------------------------------------------------

struct FtsState {
  ExecContext& ctx;
  const storage::Table& table;
  RangePredicate pred;

  BlockCursor cursor;
  sim::Semaphore page_latch;
  sim::Latch done;
  Aggregate agg;
  int allowed_dop;

  FtsState(ExecContext& c, const ScanSpec& spec, int dop, int prefetch_blocks)
      : ctx(c),
        table(*spec.table),
        pred(spec.pred),
        cursor(c, *spec.table, prefetch_blocks),
        page_latch(c.sim, 1),
        done(c.sim, dop),
        allowed_dop(dop) {}
};

sim::Task FtsPrefetcher(FtsState& s) {
  return s.cursor.Prefetcher(s.agg.status);
}

sim::Task FtsWorker(FtsState& s, int worker_index) {
  const auto& c = s.ctx.constants;
  co_await s.ctx.cpu.Consume(c.worker_startup_us);
  // Every claimed page — scanned, failed or drained — is marked consumed in
  // the loop step, which keeps the prefetcher's slot protocol alive.
  for (PageId page = kInvalidPageId;
       !ShouldRetire(s, worker_index) && s.cursor.Next(page);
       s.cursor.Consumed(page)) {
    // Drain mode: the scan already failed. Consume the remaining pages
    // without device I/O so every coroutine retires.
    if (PollCancelled(s.ctx, s.agg)) continue;

    // Serialized coordination: shared counter + page latch.
    co_await s.page_latch.WaitAcquire();
    co_await s.ctx.cpu.Consume(c.page_latch_us);
    s.page_latch.Release();

    auto ref = co_await s.ctx.pool.Fetch(page, s.ctx.query);
    if (!ref.ok()) {
      // Failed fetch: the page is not pinned; record the error and fall
      // into drain mode for all remaining pages.
      s.agg.RecordError(ref.status);
      continue;
    }
    const uint16_t rows = s.table.RowsInPage(page);
    co_await s.ctx.cpu.Consume(c.fetch_cpu_us + c.page_overhead_cpu_us +
                               rows * c.row_eval_cpu_us);
    for (uint16_t slot = 0; slot < rows; ++slot) {
      const int32_t c2 =
          s.table.GetColumn(ref.data, slot, storage::kColumnC2);
      if (s.pred.Matches(c2)) {
        s.agg.Accumulate(
            s.table.GetColumn(ref.data, slot, storage::kColumnC1));
      }
    }
    s.agg.rows_examined += rows;
    s.ctx.pool.Unpin(page, s.ctx.query);
  }
  s.done.CountDown();
}

// ---------------------------------------------------------------------------
// Index descent (both index scans)
// ---------------------------------------------------------------------------

/// Root-to-leaf descent for `key`, paying one timed page fetch per level.
/// A failed fetch records the error in the scan's aggregate (first error
/// wins) and leaves `out_leaf` at kInvalidPageId.
sim::Task DescendToLeaf(ExecContext& ctx, const BPlusTree& index, int32_t key,
                        Aggregate& agg, PageId& out_leaf,
                        sim::Latch& arrived) {
  const auto& c = ctx.constants;
  PageId pid = index.root();
  for (;;) {
    auto ref = co_await ctx.pool.Fetch(pid, ctx.query);
    if (!ref.ok()) {
      agg.RecordError(ref.status);
      arrived.CountDown();
      co_return;
    }
    co_await ctx.cpu.Consume(c.fetch_cpu_us + c.page_overhead_cpu_us);
    const bool leaf = BPlusTree::IsLeaf(ref.data);
    const PageId next = leaf ? kInvalidPageId : BPlusTree::ChildFor(ref.data, key);
    ctx.pool.Unpin(pid, ctx.query);
    if (leaf) break;
    pid = next;
  }
  out_leaf = pid;
  arrived.CountDown();
}

// ---------------------------------------------------------------------------
// Index scan
// ---------------------------------------------------------------------------

struct IsState {
  ExecContext& ctx;
  const storage::Table& table;
  const BPlusTree& index;
  RangePredicate pred;
  int prefetch_depth;

  sim::Channel<PageId> leaves;
  PageId tail_leaf = kInvalidPageId;  // last leaf pushed so far
  sim::Latch done;
  Aggregate agg;
  int allowed_dop;

  IsState(ExecContext& c, const ScanSpec& spec, int dop, int prefetch)
      : ctx(c),
        table(*spec.table),
        index(*spec.index),
        pred(spec.pred),
        prefetch_depth(prefetch),
        leaves(c.sim),
        done(c.sim, dop + 1),
        allowed_dop(dop) {}

  /// Marks the scan failed and closes the leaf channel so every worker —
  /// queued, popping, or about to pop — unblocks and retires.
  void Fail(const Status& st) {
    agg.RecordError(st);
    if (!leaves.closed()) leaves.Close();
  }
};

/// "One worker traverses the index from root to leaf level and finds the
/// range of leaf pages which must be accessed" — we descend for both
/// endpoints, then feed the contiguous leaf range to the worker channel.
sim::Task IsCoordinator(IsState& s) {
  if (s.pred.empty()) {
    s.leaves.Close();
    s.done.CountDown();
    co_return;
  }
  PageId leaf_lo = kInvalidPageId, leaf_hi = kInvalidPageId;
  sim::Latch arrived(s.ctx.sim, 2);
  DescendToLeaf(s.ctx, s.index, s.pred.low, s.agg, leaf_lo, arrived).Detach();
  DescendToLeaf(s.ctx, s.index, s.pred.high, s.agg, leaf_hi, arrived).Detach();
  co_await arrived.Wait();
  if (s.agg.failed()) {
    s.Fail(s.agg.status);
    s.done.CountDown();
    co_return;
  }
  PIOQO_CHECK(leaf_lo != kInvalidPageId && leaf_hi != kInvalidPageId);
  for (PageId leaf = leaf_lo; leaf <= leaf_hi; ++leaf) {
    s.leaves.Push(leaf);
  }
  s.tail_leaf = leaf_hi;
  // The channel is closed by the worker that processes the tail leaf and
  // finds no continuation (duplicates of `high` can spill into later
  // leaves).
  s.done.CountDown();
}

sim::Task IsWorker(IsState& s, int worker_index) {
  const auto& c = s.ctx.constants;
  co_await s.ctx.cpu.Consume(c.worker_startup_us);
  while (!ShouldRetire(s, worker_index)) {
    auto item = co_await s.leaves.Pop();
    if (!item) break;
    const PageId leaf_id = *item;
    if (s.ctx.query != nullptr && !s.agg.failed()) {
      // Leaf-granularity cancellation poll. Fail (not just RecordError):
      // closing the channel is what unblocks sibling workers parked in Pop.
      Status alive = s.ctx.query->CheckAlive();
      if (!alive.ok()) s.Fail(alive);
    }
    if (s.agg.failed()) {
      // Drain mode: another worker failed and closed the channel; discard
      // leaves that were already queued without touching the device.
      continue;
    }
    auto leaf = co_await s.ctx.pool.Fetch(leaf_id, s.ctx.query);
    if (!leaf.ok()) {
      s.Fail(leaf.status);
      break;
    }
    co_await s.ctx.cpu.Consume(c.fetch_cpu_us + c.page_overhead_cpu_us);

    const uint16_t n = BPlusTree::EntryCount(leaf.data);
    std::vector<BPlusTree::Entry> batch;
    for (uint16_t slot = BPlusTree::LeafLowerBound(leaf.data, s.pred.low);
         slot < n; ++slot) {
      const auto entry = BPlusTree::LeafEntryAt(leaf.data, slot);
      if (entry.key > s.pred.high) break;
      batch.push_back(entry);
    }

    // Tail handling: extend the range if keys == high may continue on the
    // next leaf, else close the channel. A failed sibling may have closed
    // the channel already, in which case the continuation is moot.
    if (leaf_id == s.tail_leaf && !s.leaves.closed()) {
      const bool may_continue =
          n > 0 && BPlusTree::LeafEntryAt(leaf.data, n - 1).key <= s.pred.high;
      const PageId next = BPlusTree::LeafNext(leaf.data);
      if (may_continue && next != kInvalidPageId) {
        s.tail_leaf = next;
        s.leaves.Push(next);
      } else {
        s.leaves.Close();
      }
    }

    // Pipeline the next leaf: issuing its page now (gated on prefetch_depth,
    // so prefetch-free plans keep their exact trace) means the worker that
    // pops it finds the leaf resident or in flight and starts issuing its
    // own RID batch while this leaf's row pages are still draining from the
    // device queue — instead of stalling a full leaf-read round trip between
    // batches. PrefetchBlock dedups, so a leaf another worker already
    // reached costs one table probe.
    if (s.prefetch_depth > 0 && !s.leaves.closed()) {
      const PageId next_leaf = BPlusTree::LeafNext(leaf.data);
      if (next_leaf != kInvalidPageId && next_leaf <= s.tail_leaf) {
        s.ctx.pool.PrefetchBlock(next_leaf, 1);
      }
    }

    bool leaf_failed = false;
    size_t prefetched = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      // Keep up to prefetch_depth upcoming table pages of this leaf in
      // flight; naturally shrinks near the end of the leaf.
      const size_t horizon =
          std::min(batch.size(), i + 1 + static_cast<size_t>(s.prefetch_depth));
      for (prefetched = std::max(prefetched, i + 1); prefetched < horizon;
           ++prefetched) {
        s.ctx.pool.PrefetchBlock(batch[prefetched].rid.page, 1);
      }

      co_await s.ctx.cpu.Consume(c.index_entry_cpu_us);
      auto row_page = co_await s.ctx.pool.Fetch(batch[i].rid.page, s.ctx.query);
      if (!row_page.ok()) {
        s.Fail(row_page.status);
        leaf_failed = true;
        break;
      }
      co_await s.ctx.cpu.Consume(c.fetch_cpu_us + c.row_eval_cpu_us);
      const int32_t c2 = s.table.GetColumn(row_page.data, batch[i].rid.slot,
                                           storage::kColumnC2);
      PIOQO_CHECK(c2 == batch[i].key) << "index entry does not match row";
      s.agg.Accumulate(s.table.GetColumn(row_page.data, batch[i].rid.slot,
                                         storage::kColumnC1));
      ++s.agg.rows_examined;
      s.ctx.pool.Unpin(batch[i].rid.page, s.ctx.query);
    }
    s.ctx.pool.Unpin(leaf_id, s.ctx.query);
    if (leaf_failed) break;
  }
  s.done.CountDown();
}

// ---------------------------------------------------------------------------
// Sorted index scan (Sec. 3.1's "sorted index scan" access method)
// ---------------------------------------------------------------------------

struct SortedIsState {
  ExecContext& ctx;
  const storage::Table& table;
  const BPlusTree& index;
  RangePredicate pred;
  int prefetch_depth;

  /// Qualifying slots grouped by table page, ascending page order.
  struct PageGroup {
    PageId page;
    std::vector<uint16_t> slots;
  };
  std::vector<PageGroup> groups;
  size_t next_group = 0;
  sim::Latch groups_ready;
  sim::Latch done;
  Aggregate agg;
  int allowed_dop;

  SortedIsState(ExecContext& c, const ScanSpec& spec, int dop, int prefetch)
      : ctx(c),
        table(*spec.table),
        index(*spec.index),
        pred(spec.pred),
        prefetch_depth(prefetch),
        groups_ready(c.sim, 1),
        done(c.sim, dop + 1),
        allowed_dop(dop) {}

  /// Marks the scan failed and skips all unclaimed page groups, so the
  /// remaining workers fall through their loop and retire.
  void Fail(const Status& st) {
    agg.RecordError(st);
    next_group = groups.size();
  }
};

/// Walks the qualifying leaf chain, collects row ids, sorts them by page
/// (the operator's defining "additional sorting stage"), groups by page, and
/// releases the workers.
sim::Task SortedIsCoordinator(SortedIsState& s) {
  const auto& c = s.ctx.constants;
  std::vector<storage::RowId> rids;
  if (!s.pred.empty()) {
    PageId leaf = kInvalidPageId;
    sim::Latch arrived(s.ctx.sim, 1);
    DescendToLeaf(s.ctx, s.index, s.pred.low, s.agg, leaf, arrived).Detach();
    co_await arrived.Wait();
    while (leaf != kInvalidPageId) {
      auto ref = co_await s.ctx.pool.Fetch(leaf, s.ctx.query);
      if (!ref.ok()) {
        // Leaf-chain walk failed: abandon the collection; the workers wake
        // to an empty (or truncated-to-nothing) group list.
        s.agg.RecordError(ref.status);
        break;
      }
      co_await s.ctx.cpu.Consume(c.fetch_cpu_us + c.page_overhead_cpu_us);
      const uint16_t n = BPlusTree::EntryCount(ref.data);
      uint16_t slot = BPlusTree::LeafLowerBound(ref.data, s.pred.low);
      bool past_end = false;
      double entry_cpu = 0.0;
      for (; slot < n; ++slot) {
        const auto entry = BPlusTree::LeafEntryAt(ref.data, slot);
        if (entry.key > s.pred.high) {
          past_end = true;
          break;
        }
        rids.push_back(entry.rid);
        entry_cpu += c.index_entry_cpu_us;
      }
      co_await s.ctx.cpu.Consume(entry_cpu);
      const PageId next = BPlusTree::LeafNext(ref.data);
      s.ctx.pool.Unpin(leaf, s.ctx.query);
      leaf = past_end ? kInvalidPageId : next;
    }
  }

  // The sorting stage: O(k log k) CPU, then group by page. Pointless after
  // a failure — the workers just need to be released.
  if (!rids.empty() && !s.agg.failed()) {
    const double k = static_cast<double>(rids.size());
    co_await s.ctx.cpu.Consume(k * std::log2(std::max(k, 2.0)) *
                               c.sort_entry_cpu_us);
    std::sort(rids.begin(), rids.end());
    for (const auto& rid : rids) {
      if (s.groups.empty() || s.groups.back().page != rid.page) {
        s.groups.push_back(SortedIsState::PageGroup{rid.page, {}});
      }
      s.groups.back().slots.push_back(rid.slot);
    }
  }
  s.groups_ready.CountDown();
  s.done.CountDown();
}

sim::Task SortedIsWorker(SortedIsState& s, int worker_index) {
  const auto& c = s.ctx.constants;
  co_await s.ctx.cpu.Consume(c.worker_startup_us);
  co_await s.groups_ready.Wait();
  while (!ShouldRetire(s, worker_index) && s.next_group < s.groups.size()) {
    if (s.ctx.query != nullptr && !s.agg.failed()) {
      // Group-granularity cancellation poll. Fail skips every unclaimed
      // group, so the sibling workers fall through their loop and retire.
      Status alive = s.ctx.query->CheckAlive();
      if (!alive.ok()) {
        s.Fail(alive);
        break;
      }
    }
    const size_t i = s.next_group++;
    // Keep upcoming pages in flight; PrefetchBlock dedups pages other
    // workers already requested.
    const size_t horizon = std::min(
        s.groups.size(), i + 1 + static_cast<size_t>(s.prefetch_depth));
    for (size_t p = i + 1; p < horizon; ++p) {
      s.ctx.pool.PrefetchBlock(s.groups[p].page, 1);
    }
    const auto& group = s.groups[i];
    auto ref = co_await s.ctx.pool.Fetch(group.page, s.ctx.query);
    if (!ref.ok()) {
      s.Fail(ref.status);
      break;
    }
    co_await s.ctx.cpu.Consume(c.fetch_cpu_us + c.page_overhead_cpu_us +
                               static_cast<double>(group.slots.size()) *
                                   c.row_eval_cpu_us);
    for (uint16_t slot : group.slots) {
      const int32_t c2 = s.table.GetColumn(ref.data, slot, storage::kColumnC2);
      PIOQO_CHECK(s.pred.Matches(c2)) << "sorted rid does not match";
      s.agg.Accumulate(s.table.GetColumn(ref.data, slot, storage::kColumnC1));
      ++s.agg.rows_examined;
    }
    s.ctx.pool.Unpin(group.page, s.ctx.query);
  }
  s.done.CountDown();
}

// ---------------------------------------------------------------------------
// Running scans
// ---------------------------------------------------------------------------

/// One scan in flight: the operator's shared state, its lead coroutine (the
/// FTS block prefetcher or an index scan's coordinator), spawned first, and
/// `dop` workers.
template <typename State, sim::Task (*kLead)(State&),
          sim::Task (*kWorker)(State&, int)>
class ScanJob final : public RunningScan {
 public:
  ScanJob(ExecContext& ctx, const ScanSpec& spec, int dop, int prefetch)
      : state_(ctx, spec, dop, prefetch) {
    kLead(state_).Detach();
    for (int w = 0; w < dop; ++w) kWorker(state_, w).Detach();
  }
  sim::Latch& done() override { return state_.done; }
  const Aggregate& aggregate() const override { return state_.agg; }

 private:
  State state_;
};

using FtsJob = ScanJob<FtsState, FtsPrefetcher, FtsWorker>;
using IsJob = ScanJob<IsState, IsCoordinator, IsWorker>;
using SortedIsJob =
    ScanJob<SortedIsState, SortedIsCoordinator, SortedIsWorker>;

/// Clamp a requested per-worker prefetch depth so dop workers cannot wedge
/// the pool (each may pin a leaf + a row page with prefetches in flight).
int ClampPrefetch(const ExecContext& ctx, int dop, int prefetch_depth) {
  const int max_prefetch = std::max<int>(
      0, static_cast<int>(ctx.pool.capacity()) / (2 * dop) - 4);
  return std::min(prefetch_depth, max_prefetch);
}

}  // namespace

std::string ScanResult::ToString() const {
  std::ostringstream out;
  out << "runtime " << static_cast<int64_t>(runtime_us) << "us, rows "
      << rows_matched << "/" << rows_examined << ", reads " << device_reads
      << " (" << bytes_read / 1024 / 1024 << " MiB), avg qd "
      << avg_queue_depth << ", " << io_throughput_mbps << " MB/s";
  return out.str();
}

std::unique_ptr<RunningScan> StartScan(ExecContext& ctx,
                                       const ScanSpec& spec) {
  PIOQO_CHECK(spec.table != nullptr);
  PIOQO_CHECK(spec.dop >= 1);
  PIOQO_CHECK(spec.prefetch_depth >= 0);
  const int dop =
      ctx.health != nullptr ? ctx.health->ClampDop(spec.dop) : spec.dop;
  if (spec.index == nullptr) {
    return std::make_unique<FtsJob>(
        ctx, spec, dop, static_cast<int>(ctx.constants.fts_prefetch_blocks));
  }
  const int prefetch = ClampPrefetch(ctx, dop, spec.prefetch_depth);
  if (spec.sorted) {
    return std::make_unique<SortedIsJob>(ctx, spec, dop, prefetch);
  }
  return std::make_unique<IsJob>(ctx, spec, dop, prefetch);
}

ScanResult RunScan(ExecContext& ctx, const ScanSpec& spec) {
  Measurement measurement(ctx);
  auto scan = StartScan(ctx, spec);
  ctx.sim.Run();
  PIOQO_CHECK(scan->done().done());
  return measurement.Finish(scan->aggregate());
}

}  // namespace pioqo::exec
