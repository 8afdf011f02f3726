#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/math_utils.h"

namespace pioqo::core {

namespace {

/// Index leaves an index scan reads: the qualifying leaf chain, read
/// nearly sequentially, plus the leaf where the range starts.
double LeavesTouched(const TableProfile& t, double selectivity) {
  return std::min<double>(
      t.index_leaves, selectivity * static_cast<double>(t.index_leaves) + 1.0);
}

}  // namespace

std::string_view AccessMethodName(AccessMethod method) {
  switch (method) {
    case AccessMethod::kFts:
      return "FTS";
    case AccessMethod::kPfts:
      return "PFTS";
    case AccessMethod::kIs:
      return "IS";
    case AccessMethod::kPis:
      return "PIS";
    case AccessMethod::kSortedIs:
      return "SIS";
  }
  return "?";
}

std::string PlanCandidate::ToString() const {
  std::ostringstream out;
  out << AccessMethodName(method);
  if (dop > 1) out << dop;
  if (prefetch_depth > 0) out << "+pf" << prefetch_depth;
  out << " est " << static_cast<int64_t>(total_us) << "us (io "
      << static_cast<int64_t>(io_us) << ", cpu " << static_cast<int64_t>(cpu_us)
      << ")";
  return out.str();
}

CostModel::CostModel(const QdttModel& model, CostConstants constants,
                     bool queue_depth_aware, int concurrent_streams)
    : qdtt_(model),
      constants_(constants),
      queue_depth_aware_(queue_depth_aware),
      concurrent_streams_(concurrent_streams) {
  PIOQO_CHECK(model.complete())
      << "cost model requires a fully calibrated QDTT model";
  PIOQO_CHECK(concurrent_streams >= 1);
}

double CostModel::PricePageRead(PlanCandidate& plan, double band_pages,
                                int dop, int prefetch_depth) const {
  PIOQO_CHECK(dop >= 1);
  PIOQO_CHECK(prefetch_depth >= 0);
  plan.dop = dop;
  plan.prefetch_depth = prefetch_depth;
  plan.band_pages = band_pages;
  // Under concurrency, this plan only gets a share of the device queue.
  const double raw_depth =
      static_cast<double>(dop) * std::max(1, prefetch_depth);
  plan.queue_depth =
      queue_depth_aware_
          ? std::max(1.0, raw_depth / static_cast<double>(concurrent_streams_))
          : 1.0;
  return qdtt_.Lookup(plan.band_pages, plan.queue_depth);
}

PlanCandidate CostModel::CostFullTableScan(const TableProfile& t,
                                           int dop) const {
  const auto& c = constants_;
  const double pages = static_cast<double>(t.table_pages);
  const double cold_pages = pages * (1.0 - t.cached_fraction);

  // I/O: sequential pattern == band size 1. A parallel scan keeps roughly
  // `dop` block reads outstanding (workers + prefetcher), which is the
  // queue depth handed to the model.
  PlanCandidate plan;
  plan.method = dop == 1 ? AccessMethod::kFts : AccessMethod::kPfts;
  const double io_us =
      cold_pages * PricePageRead(plan, /*band_pages=*/1.0, dop,
                                 /*prefetch_depth=*/0);

  // CPU: every page is cracked and every row evaluated; parallel workers
  // divide the work across cores but serialize on the per-page latch.
  const double per_page_cpu = c.fetch_cpu_us + c.page_overhead_cpu_us +
                              static_cast<double>(t.rows_per_page) *
                                  c.row_eval_cpu_us;
  const double parallel_cpu =
      pages * per_page_cpu / std::min(dop, c.logical_cores);
  const double serialized_floor = pages * c.page_latch_us;
  const double cpu_us =
      std::max(parallel_cpu, serialized_floor) * c.cpu_estimate_scale;

  plan.io_us = io_us;
  plan.cpu_us = cpu_us;
  // Scan CPU work overlaps prefetched I/O; the slower resource dominates.
  plan.total_us = std::max(io_us, cpu_us) +
                  static_cast<double>(dop) * c.worker_startup_us;
  return plan;
}

double CostModel::EstimatedIndexFetches(const TableProfile& t,
                                        double selectivity) const {
  const uint64_t k = static_cast<uint64_t>(
      std::llround(selectivity * static_cast<double>(t.rows)));
  return ExpectedIndexScanFetches(t.table_pages, t.rows_per_page, k,
                                  t.pool_pages);
}

PlanCandidate CostModel::CostIndexScan(const TableProfile& t,
                                       double selectivity, int dop,
                                       int prefetch_depth) const {
  const auto& c = constants_;
  const double k =
      std::max(0.0, selectivity * static_cast<double>(t.rows));

  // Index I/O: two root-to-leaf descents plus the qualifying leaf chain.
  const double index_io =
      (2.0 * t.index_height + LeavesTouched(t, selectivity)) *
      qdtt_.Lookup(1.0, 1.0);

  // Table I/O: `fetches` random reads within the table's band.
  const double fetches =
      EstimatedIndexFetches(t, selectivity) * (1.0 - t.cached_fraction);
  PlanCandidate plan;
  plan.method = dop == 1 ? AccessMethod::kIs : AccessMethod::kPis;
  const double per_page_io = PricePageRead(
      plan, static_cast<double>(t.table_pages), dop, prefetch_depth);
  const double io_us = index_io + fetches * per_page_io;

  // CPU: per selected row, decode the index entry, run the fetch path for
  // its table page, and evaluate the row.
  const double per_row_cpu =
      c.index_entry_cpu_us + c.fetch_cpu_us + c.row_eval_cpu_us;
  const double cpu_us =
      k * per_row_cpu / std::min(dop, c.logical_cores) * c.cpu_estimate_scale;

  plan.io_us = io_us;
  plan.cpu_us = cpu_us;
  // Uniform combination across all plans: the slower resource dominates,
  // plus per-worker coordination. (A fully synchronous IS really pays
  // io + cpu, but costing it as max() keeps the *ranking* between plan
  // families consistent — the paper's old optimizer credits parallelism
  // with no I/O benefit and must still prefer non-parallel plans, which
  // only holds if overlap is priced identically everywhere.)
  plan.total_us = std::max(io_us, cpu_us) +
                  static_cast<double>(dop) * c.worker_startup_us;
  return plan;
}

PlanCandidate CostModel::CostSortedIndexScan(const TableProfile& t,
                                             double selectivity, int dop,
                                             int prefetch_depth) const {
  const auto& c = constants_;
  const double k = std::max(0.0, selectivity * static_cast<double>(t.rows));

  // The coordinator reads the whole qualifying leaf chain (as IS does).
  const double index_io =
      (static_cast<double>(t.index_height) + LeavesTouched(t, selectivity)) *
      qdtt_.Lookup(1.0, 1.0);

  // Table I/O: the sort guarantees each distinct page is fetched at most
  // once — Yao's expected distinct pages, regardless of the buffer pool.
  const uint64_t k_rows = static_cast<uint64_t>(std::llround(k));
  const double distinct_pages =
      YaoExpectedPages(t.rows, t.rows_per_page, k_rows) *
      (1.0 - t.cached_fraction);
  PlanCandidate plan;
  plan.method = AccessMethod::kSortedIs;
  const double per_page_io = PricePageRead(
      plan, static_cast<double>(t.table_pages), dop, prefetch_depth);
  const double io_us = index_io + distinct_pages * per_page_io;

  // CPU: entry decode + sort stage (serial in the coordinator) + parallel
  // page processing.
  const double sort_cpu =
      k * (c.index_entry_cpu_us +
           std::log2(std::max(k, 2.0)) * c.sort_entry_cpu_us);
  const double scan_cpu =
      (distinct_pages * (c.fetch_cpu_us + c.page_overhead_cpu_us) +
       k * c.row_eval_cpu_us) /
      std::min(dop, c.logical_cores);
  const double cpu_us = (sort_cpu + scan_cpu) * c.cpu_estimate_scale;

  plan.io_us = io_us;
  plan.cpu_us = cpu_us;
  plan.total_us = std::max(io_us, cpu_us) +
                  static_cast<double>(dop) * c.worker_startup_us;
  return plan;
}

PlanCandidate CostModel::Cost(AccessMethod method, const TableProfile& t,
                              double selectivity, int dop,
                              int prefetch_depth) const {
  switch (method) {
    case AccessMethod::kIs:
    case AccessMethod::kPis:
      return CostIndexScan(t, selectivity, dop, prefetch_depth);
    case AccessMethod::kSortedIs:
      return CostSortedIndexScan(t, selectivity, dop, prefetch_depth);
    case AccessMethod::kFts:
    case AccessMethod::kPfts:
      break;
  }
  return CostFullTableScan(t, dop);
}

}  // namespace pioqo::core
