#ifndef PIOQO_EXEC_SCAN_OPERATORS_H_
#define PIOQO_EXEC_SCAN_OPERATORS_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/cost_constants.h"
#include "exec/query.h"
#include "exec/scan_result.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace pioqo::io {
class DeviceHealthMonitor;
class QueryContext;
}  // namespace pioqo::io

namespace pioqo::exec {

/// Shared execution environment: the simulated host (clock + cores), the
/// buffer pool over the experiment disk, and the CPU cost coefficients the
/// operators charge.
struct ExecContext {
  sim::Simulator& sim;
  sim::CpuScheduler& cpu;
  storage::BufferPool& pool;
  core::CostConstants constants;
  /// Optional degradation signal: when set, the scan operators clamp their
  /// requested (and mid-scan, their effective) degree of parallelism while
  /// the device looks unhealthy. Null disables graceful degradation.
  io::DeviceHealthMonitor* health = nullptr;
  /// Optional query lifecycle (the database's workload runner sets it):
  /// when set, every page fetch observes the query's cancellation token and
  /// counts its pins, and workers poll `CheckAlive()` at page/leaf/group
  /// granularity. Null runs the scan unconditionally.
  io::QueryContext* query = nullptr;
};

/// Shared MAX(C1) accumulator (single simulated timeline, so plain fields).
/// Also carries the scan's failure state: the first error recorded here —
/// I/O failure or query cancellation — aborts the scan, and every worker
/// checks `failed()` to switch into drain mode (keep the coordination
/// protocol alive without touching the device).
struct ScanAggregate {
  bool found = false;
  int32_t max_c1 = 0;
  uint64_t rows_matched = 0;
  uint64_t rows_examined = 0;
  Status status;

  void Accumulate(int32_t c1) {
    if (!found || c1 > max_c1) {
      found = true;
      max_c1 = c1;
    }
    ++rows_matched;
  }

  bool failed() const { return !status.ok(); }
  void RecordError(const Status& st) {
    if (status.ok() && !st.ok()) status = st;
  }
};

/// One scan of the paper's query Q. The access methods of Secs. 2-3 are one
/// operator family parameterised by DOP and prefetch depth:
///
/// * `index == nullptr` — (parallel) full table scan (Fig. 2). `dop`
///   workers share a page counter; a prefetcher keeps
///   `constants.fts_prefetch_blocks` block reads of
///   `constants.fts_block_pages` pages in flight ahead of them. Every row of
///   every page is evaluated against `pred`. dop == 1 is the paper's FTS;
///   dop > 1 is PFTS. `prefetch_depth` does not apply.
/// * `index != nullptr`, `!sorted` — (parallel) index scan (Fig. 3;
///   prefetching variant of Sec. 3.3). A coordinator descends the index for both range
///   endpoints and hands the qualifying leaf pages to `dop` workers one at a
///   time. Each worker walks its leaf's (key, row_id) entries, prefetching
///   up to `prefetch_depth` upcoming table pages referenced by the *same*
///   leaf (the paper's simplification: "we only prefetch table pages
///   referenced by a single index leaf page", with the depth shrinking near
///   the leaf's end). dop == 1, prefetch 0 is the paper's IS; dop > 1 is
///   PIS.
/// * `sorted` — the sorted index scan of Sec. 3.1 that SQL Anywhere lacked
///   ("before fetching table pages, row identifiers are sorted in the order
///   of page id. In this way, each table page will be fetched at most
///   once"). A coordinator walks the qualifying leaf chain collecting row
///   ids and sorts them by page; then `dop` workers fetch each distinct page
///   once, in ascending page order (which also earns the HDD's elevator
///   behaviour), prefetching up to `prefetch_depth` upcoming pages each.
///   Does not preserve index key order (irrelevant for MAX).
struct ScanSpec {
  const storage::Table* table = nullptr;
  /// Null for a full table scan.
  const storage::BPlusTree* index = nullptr;
  RangePredicate pred;
  bool sorted = false;  // sorted index scan variant (only if index != null)
  int dop = 1;
  int prefetch_depth = 0;
};

/// A scan whose coroutines have been spawned but whose completion the
/// caller observes itself (by `co_await done().Wait()` or by running the
/// simulator to quiescence). RunScan and the database's workload runner
/// both build on it.
class RunningScan {
 public:
  virtual ~RunningScan() = default;
  /// Counts to zero when every coroutine of the scan has retired — on
  /// success, failure, and cancellation alike.
  virtual sim::Latch& done() = 0;
  virtual const ScanAggregate& aggregate() const = 0;
};

/// Spawns the scan described by `spec` at the current simulated instant and
/// returns immediately. Applies the health monitor's DOP clamp and the
/// pool-capacity prefetch clamp. The scan's coroutines reference `ctx` and
/// the returned object: both must outlive the scan's completion.
std::unique_ptr<RunningScan> StartScan(ExecContext& ctx, const ScanSpec& spec);

/// Executes `spec` alone and returns when the simulation has drained:
/// StartScan, run to quiescence, measure.
ScanResult RunScan(ExecContext& ctx, const ScanSpec& spec);

}  // namespace pioqo::exec

#endif  // PIOQO_EXEC_SCAN_OPERATORS_H_
