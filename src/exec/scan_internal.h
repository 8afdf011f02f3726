#ifndef PIOQO_EXEC_SCAN_INTERNAL_H_
#define PIOQO_EXEC_SCAN_INTERNAL_H_

// Building blocks the scan and join operators share. Not part of the exec
// API: only src/exec includes this header.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/scan_operators.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/table.h"

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

/// The sequential walk over a table that the full table scan and the
/// join's outer side share: workers claim pages from one counter while a
/// block prefetcher keeps up to `prefetch_blocks` reads of
/// `constants.fts_block_pages` pages in flight ahead of them. A block holds
/// its prefetch slot until every one of its pages is consumed.
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

#endif  // PIOQO_EXEC_SCAN_INTERNAL_H_
