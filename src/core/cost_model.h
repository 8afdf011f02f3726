#ifndef PIOQO_CORE_COST_MODEL_H_
#define PIOQO_CORE_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/cost_constants.h"
#include "core/qdtt_model.h"

namespace pioqo::core {

/// The access methods the optimizer chooses among. FTS/IS are the
/// degenerate dop == 1 cases of PFTS/PIS; we keep them distinct in plan
/// output for readability. kSortedIs is the RID-sorted index scan of paper
/// Sec. 3.1 (an extension — SQL Anywhere did not implement it).
enum class AccessMethod { kFts, kPfts, kIs, kPis, kSortedIs };

std::string_view AccessMethodName(AccessMethod method);

/// Optimizer-visible statistics about one table + its C2 index.
struct TableProfile {
  uint32_t table_pages = 0;
  uint64_t rows = 0;
  uint32_t rows_per_page = 1;
  int index_height = 1;
  uint32_t index_leaves = 1;
  /// Buffer pool size available to the scan.
  uint32_t pool_pages = 0;
  /// Fraction of the table's pages currently cached (SQL Anywhere
  /// "maintains statistics on how many table and index pages are currently
  /// cached"; the paper's experiments flush the pool, i.e. 0).
  double cached_fraction = 0.0;
};

/// One costed plan alternative.
struct PlanCandidate {
  AccessMethod method = AccessMethod::kFts;
  int dop = 1;
  /// PIS prefetch depth per worker (0 = none).
  int prefetch_depth = 0;
  /// The QDTT cell the plan's page reads are priced at: the band they span
  /// (pages) and the effective queue depth the plan keeps in flight. Drift
  /// defense charges the executed plan's observed runtime to this cell.
  double band_pages = 1.0;
  double queue_depth = 1.0;
  double io_us = 0.0;
  double cpu_us = 0.0;
  double total_us = 0.0;

  std::string ToString() const;
};

/// I/O + CPU cost estimation for the scan access methods, parameterized by
/// a calibrated QDTT model.
///
/// The single switch `queue_depth_aware` selects the paper's two optimizer
/// generations:
///  * false — the legacy DTT behaviour: I/O is priced at queue depth 1 no
///    matter how parallel the plan is ("it is assumed that the cost of
///    parallel I/O is similar to the cost of non-parallel I/O");
///  * true — the QDTT behaviour: the plan's generated queue depth (workers
///    x per-worker prefetch) is passed to the model.
class CostModel {
 public:
  /// `concurrent_streams` > 1 divides every plan's generated queue depth
  /// before the QDTT lookup — the paper's guidance for concurrent workloads
  /// ("the optimizer needs to pass a lower queue depth number to the QDTT
  /// model").
  CostModel(const QdttModel& model, CostConstants constants,
            bool queue_depth_aware, int concurrent_streams = 1);

  /// Cost of (P)FTS with `dop` workers.
  PlanCandidate CostFullTableScan(const TableProfile& t, int dop) const;

  /// Cost of (P)IS with `dop` workers, each prefetching `prefetch_depth`
  /// table pages ahead (0 = synchronous fetches only).
  PlanCandidate CostIndexScan(const TableProfile& t, double selectivity,
                              int dop, int prefetch_depth) const;

  /// Cost of the sorted (RID-ordered) index scan: every distinct table page
  /// fetched at most once, plus the sort stage.
  PlanCandidate CostSortedIndexScan(const TableProfile& t, double selectivity,
                                    int dop, int prefetch_depth) const;

  /// Cost of `method` with `dop` workers: the one dispatch from access
  /// method to the functions above (table scans ignore `selectivity` and
  /// `prefetch_depth`).
  PlanCandidate Cost(AccessMethod method, const TableProfile& t,
                     double selectivity, int dop, int prefetch_depth) const;

  bool queue_depth_aware() const { return queue_depth_aware_; }
  const CostConstants& constants() const { return constants_; }
  const QdttModel& model() const { return qdtt_; }

  /// Expected number of table-page fetches for an index scan (Yao's formula
  /// + buffer pool re-fetch correction), exposed for tests and EXPLAIN-style
  /// output.
  double EstimatedIndexFetches(const TableProfile& t, double selectivity) const;

 private:
  /// The one place a plan's QDTT cell is chosen. `dop` workers each keep
  /// max(1, `prefetch_depth`) page reads in flight within `band_pages`; the
  /// model sees that depth divided by the concurrent streams (at least 1),
  /// or depth 1 when not queue-depth-aware. Records dop, prefetch depth and
  /// the cell on `plan` and returns the cell's per-page cost (us).
  double PricePageRead(PlanCandidate& plan, double band_pages, int dop,
                       int prefetch_depth) const;

  const QdttModel& qdtt_;
  CostConstants constants_;
  bool queue_depth_aware_;
  int concurrent_streams_;
};

}  // namespace pioqo::core

#endif  // PIOQO_CORE_COST_MODEL_H_
