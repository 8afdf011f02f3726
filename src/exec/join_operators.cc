#include "exec/join_operators.h"

#include <vector>

#include "common/logging.h"
#include "exec/scan_internal.h"
#include "io/health_monitor.h"
#include "io/query_context.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/data_generator.h"

namespace pioqo::exec {
namespace {

using storage::BPlusTree;
using storage::kInvalidPageId;
using storage::PageId;

struct JoinState {
  ExecContext& ctx;
  const storage::Table& outer;
  const storage::Table& inner;
  const BPlusTree& inner_index;
  RangePredicate pred;

  internal::BlockCursor cursor;
  sim::Latch done;

  // Accumulators (single simulated timeline).
  uint64_t outer_rows = 0;
  uint64_t probes = 0;
  uint64_t rows_joined = 0;
  int64_t sum_c1 = 0;

  /// First I/O error; once set, workers drain remaining pages without
  /// touching the device (same protocol as the full table scan).
  Status status;
  bool failed() const { return !status.ok(); }
  void RecordError(const Status& st) {
    if (status.ok() && !st.ok()) status = st;
  }

  JoinState(ExecContext& c, const storage::Table& o, const storage::Table& i,
            const BPlusTree& idx, RangePredicate p, int dop)
      : ctx(c),
        outer(o),
        inner(i),
        inner_index(idx),
        pred(p),
        cursor(c, o, c.constants.fts_prefetch_blocks),
        done(c.sim, dop) {}
};

/// Probes the inner index for `key`: root-to-leaf descent (interior pages
/// become buffer-pool hits almost immediately), then fetches the inner
/// table page of every matching entry. Returns via the accumulators.
sim::Task JoinWorker(JoinState& s) {
  const auto& c = s.ctx.constants;
  co_await s.ctx.cpu.Consume(c.worker_startup_us);
  // Every claimed outer page — probed, failed or drained — is marked
  // consumed in the loop step, which keeps the prefetcher's slot protocol
  // alive.
  for (PageId outer_page = kInvalidPageId; s.cursor.Next(outer_page);
       s.cursor.Consumed(outer_page)) {
    if (s.ctx.query != nullptr && !s.failed()) {
      // Outer-page granularity cancellation poll; the drain protocol below
      // consumes the claimed page without device I/O.
      Status alive = s.ctx.query->CheckAlive();
      if (!alive.ok()) s.RecordError(alive);
    }

    // Drain mode: consume remaining outer pages without device I/O so
    // every coroutine retires.
    if (s.failed()) continue;

    auto outer_ref = co_await s.ctx.pool.Fetch(outer_page, s.ctx.query);
    if (!outer_ref.ok()) {
      s.RecordError(outer_ref.status);
      continue;
    }
    const uint16_t rows = s.outer.RowsInPage(outer_page);
    co_await s.ctx.cpu.Consume(c.fetch_cpu_us + c.page_overhead_cpu_us +
                               rows * c.row_eval_cpu_us);
    // Qualifying outer rows of this page (collected before any probe
    // suspends, so outer_ref's data is only used while pinned).
    struct OuterRow {
      int32_t key;
      int32_t c1;
    };
    std::vector<OuterRow> qualifying;
    for (uint16_t slot = 0; slot < rows; ++slot) {
      const int32_t key =
          s.outer.GetColumn(outer_ref.data, slot, storage::kColumnC2);
      if (s.pred.Matches(key)) {
        qualifying.push_back(OuterRow{
            key, s.outer.GetColumn(outer_ref.data, slot, storage::kColumnC1)});
      }
    }
    s.outer_rows += rows;
    s.ctx.pool.Unpin(outer_page, s.ctx.query);

    for (const OuterRow& row : qualifying) {
      if (s.failed()) break;
      ++s.probes;
      // Descent.
      PageId pid = s.inner_index.root();
      for (;;) {
        auto ref = co_await s.ctx.pool.Fetch(pid, s.ctx.query);
        if (!ref.ok()) {
          // Descent holds no pins across a fetch, so nothing to unwind.
          s.RecordError(ref.status);
          break;
        }
        co_await s.ctx.cpu.Consume(c.fetch_cpu_us);
        const bool leaf = BPlusTree::IsLeaf(ref.data);
        const PageId next =
            leaf ? kInvalidPageId : BPlusTree::ChildFor(ref.data, row.key);
        if (leaf) {
          // Matching entries may span into following leaves (duplicates).
          PageId leaf_id = pid;
          auto leaf_ref = ref;
          uint16_t slot = BPlusTree::LeafLowerBound(leaf_ref.data, row.key);
          for (;;) {
            const uint16_t n = BPlusTree::EntryCount(leaf_ref.data);
            if (slot >= n) {
              const PageId next_leaf = BPlusTree::LeafNext(leaf_ref.data);
              s.ctx.pool.Unpin(leaf_id, s.ctx.query);
              if (next_leaf == kInvalidPageId) break;
              leaf_id = next_leaf;
              leaf_ref = co_await s.ctx.pool.Fetch(leaf_id, s.ctx.query);
              if (!leaf_ref.ok()) {
                // The previous leaf is already unpinned.
                s.RecordError(leaf_ref.status);
                break;
              }
              co_await s.ctx.cpu.Consume(c.fetch_cpu_us);
              slot = 0;
              continue;
            }
            const auto entry = BPlusTree::LeafEntryAt(leaf_ref.data, slot);
            if (entry.key != row.key) {
              s.ctx.pool.Unpin(leaf_id, s.ctx.query);
              break;
            }
            // Fetch the matching inner row.
            auto inner_ref =
                co_await s.ctx.pool.Fetch(entry.rid.page, s.ctx.query);
            if (!inner_ref.ok()) {
              s.RecordError(inner_ref.status);
              s.ctx.pool.Unpin(leaf_id, s.ctx.query);
              break;
            }
            co_await s.ctx.cpu.Consume(c.fetch_cpu_us + c.row_eval_cpu_us +
                                       c.index_entry_cpu_us);
            const int32_t inner_c1 = s.inner.GetColumn(
                inner_ref.data, entry.rid.slot, storage::kColumnC1);
            s.sum_c1 += static_cast<int64_t>(row.c1) + inner_c1;
            ++s.rows_joined;
            s.ctx.pool.Unpin(entry.rid.page, s.ctx.query);
            ++slot;
          }
          break;
        }
        s.ctx.pool.Unpin(pid, s.ctx.query);
        pid = next;
      }
    }
  }
  s.done.CountDown();
}

}  // namespace

JoinResult RunIndexNestedLoopJoin(ExecContext& ctx,
                                  const storage::Table& outer,
                                  const storage::Table& inner,
                                  const storage::BPlusTree& inner_index,
                                  RangePredicate pred, int dop) {
  PIOQO_CHECK(dop >= 1);
  if (ctx.health != nullptr) dop = ctx.health->ClampDop(dop);
  internal::Measurement measurement(ctx);
  JoinState state(ctx, outer, inner, inner_index, pred, dop);
  state.cursor.Prefetcher(state.status).Detach();
  for (int w = 0; w < dop; ++w) JoinWorker(state).Detach();
  ctx.sim.Run();
  PIOQO_CHECK(state.done.done());

  const ScanResult run = measurement.Finish(ScanAggregate{});
  JoinResult result;
  result.status = state.status;
  result.outer_rows_examined = state.outer_rows;
  result.probes = state.probes;
  result.rows_joined = state.rows_joined;
  result.sum_c1 = state.sum_c1;
  result.runtime_us = run.runtime_us;
  result.avg_queue_depth = run.avg_queue_depth;
  result.device_reads = run.device_reads;
  return result;
}

}  // namespace pioqo::exec
