#ifndef PIOQO_OPT_OPTIMIZER_H_
#define PIOQO_OPT_OPTIMIZER_H_

#include <string>
#include <vector>

#include "core/cost_constants.h"
#include "core/cost_model.h"
#include "core/qdtt_model.h"

namespace pioqo::opt {

/// Drift-defense fallback threshold: below this model confidence (see
/// core::DriftDetector) the enumerated parallel degrees are clamped toward
/// conservative plans. Max allowed DOP scales down with confidence, so a
/// mildly distrusted grid still parallelizes but stops betting on the
/// deepest queue depths, whose costs extrapolate worst under drift.
inline constexpr double kConservativeConfidenceThreshold = 0.75;

struct OptimizerOptions {
  /// true: cost I/O with the plan's generated queue depth (the paper's new
  /// QDTT optimizer). false: legacy DTT behaviour (queue depth ignored).
  bool queue_depth_aware = true;
  /// Parallel degrees enumerated (1 == the non-parallel IS/FTS plans).
  std::vector<int> parallel_degrees = {1, 2, 4, 8, 16, 32};
  /// PIS per-worker prefetch depths enumerated (0 == no prefetching).
  std::vector<int> prefetch_depths = {0};
  /// Ablation of Sec. 4.2's argument: restrict the search to parallel plans
  /// ("even if we force the optimizer to always choose a parallel plan ...
  /// it may still choose a suboptimal plan" when costs come from DTT).
  bool force_parallel = false;
  /// Also enumerate the sorted (RID-ordered) index scan — the access method
  /// of paper Sec. 3.1 that SQL Anywhere lacked. Off by default to stay
  /// faithful to the paper's plan space.
  bool enable_sorted_index_scan = false;
  /// Number of concurrent query streams the device queue is shared with;
  /// the plan's queue depth is divided by this before the QDTT lookup.
  int concurrent_streams = 1;
  /// Record every costed alternative in OptimizationResult::considered
  /// (EXPLAIN / tests). Off, only the winner is tracked — the chosen plan is
  /// bit-identical either way (both keep the *first* minimum in enumeration
  /// order), but arrival-time planning in Database::RunWorkload skips the
  /// per-query vector churn (and the plan cache stores slim entries).
  bool record_considered = true;

  /// Drift-defense fallback: below this confidence (at most
  /// kConservativeConfidenceThreshold) the QDTT grid is not trusted at any
  /// depth: plans are costed queue-depth-blind (legacy DTT behaviour, the
  /// paper's Sec. 2 baseline), which prices deep-queue parallel plans at
  /// their qd=1 cost and so never *over*-promises on a degraded device.
  double dtt_fallback_confidence = 0.35;
};

/// The winning plan plus every alternative that was costed.
struct OptimizationResult {
  core::PlanCandidate chosen;
  std::vector<core::PlanCandidate> considered;
  /// Confidence the plan was chosen under (1.0 = full trust).
  double model_confidence = 1.0;
  /// The enumerated DOP set was clamped by low confidence.
  bool dop_clamped = false;
  /// Costing fell back to the queue-depth-blind DTT model.
  bool dtt_fallback = false;

  /// EXPLAIN-style dump: all candidates sorted by estimated cost.
  std::string Explain() const;
};

/// Access-path selection for the paper's query Q: enumerate
/// {FTS, IS, PFTS(d), PIS(d, n)} over the configured parallel degrees and
/// prefetch depths, cost each with the calibrated model, pick the cheapest.
class Optimizer {
 public:
  Optimizer(const core::QdttModel& model, core::CostConstants constants,
            OptimizerOptions options);

  OptimizationResult ChooseAccessPath(const core::TableProfile& profile,
                                      double selectivity) const {
    return ChooseAccessPath(profile, selectivity, /*model_confidence=*/1.0);
  }

  /// Plans under a drift-detector confidence score: full trust plans as
  /// usual; below `kConservativeConfidenceThreshold` the DOP set is
  /// clamped (max allowed degree scales with confidence, degree 1 always
  /// survives); below `dtt_fallback_confidence` candidates are additionally
  /// costed with the queue-depth-blind DTT model. The result records which
  /// fallbacks fired.
  OptimizationResult ChooseAccessPath(const core::TableProfile& profile,
                                      double selectivity,
                                      double model_confidence) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  core::CostModel cost_model_;
  /// Queue-depth-blind twin used below the DTT fallback threshold.
  core::CostModel dtt_cost_model_;
  OptimizerOptions options_;
};

}  // namespace pioqo::opt

#endif  // PIOQO_OPT_OPTIMIZER_H_
