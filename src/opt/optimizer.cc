#include "opt/optimizer.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace pioqo::opt {

std::string OptimizationResult::Explain() const {
  std::vector<core::PlanCandidate> sorted = considered;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.total_us < b.total_us; });
  std::ostringstream out;
  out << "chosen: " << chosen.ToString() << "\n";
  for (const auto& plan : sorted) {
    out << "  " << plan.ToString() << "\n";
  }
  return out.str();
}

Optimizer::Optimizer(const core::QdttModel& model,
                     core::CostConstants constants, OptimizerOptions options)
    : cost_model_(model, constants, options.queue_depth_aware,
                  options.concurrent_streams),
      dtt_cost_model_(model, constants, /*queue_depth_aware=*/false,
                      options.concurrent_streams),
      options_(std::move(options)) {
  PIOQO_CHECK(!options_.parallel_degrees.empty());
  PIOQO_CHECK(!options_.prefetch_depths.empty());
  PIOQO_CHECK(options_.dtt_fallback_confidence <=
              kConservativeConfidenceThreshold);
}

OptimizationResult Optimizer::ChooseAccessPath(const core::TableProfile& profile,
                                               double selectivity,
                                               double model_confidence) const {
  OptimizationResult result;
  result.model_confidence = model_confidence;
  result.dtt_fallback = options_.queue_depth_aware &&
                        model_confidence < options_.dtt_fallback_confidence;
  const core::CostModel& model =
      result.dtt_fallback ? dtt_cost_model_ : cost_model_;

  // Conservative clamp: the largest degree the distrusted grid may justify
  // shrinks linearly with confidence. Degree 1 always survives, so the
  // search space never empties (unless force_parallel, checked below).
  int max_dop = std::numeric_limits<int>::max();
  if (model_confidence < kConservativeConfidenceThreshold) {
    const int largest = *std::max_element(options_.parallel_degrees.begin(),
                                          options_.parallel_degrees.end());
    max_dop = std::max(
        1, static_cast<int>(largest * std::max(0.0, model_confidence)));
  }

  // The smallest enumerable degree is exempt from the clamp: the
  // conservative fallback must never empty the search space.
  int min_degree = std::numeric_limits<int>::max();
  for (int dop : options_.parallel_degrees) {
    if (options_.force_parallel && dop == 1) continue;
    min_degree = std::min(min_degree, dop);
  }

  // Tracks the winner incrementally: strict `<` keeps the *first* minimum
  // in enumeration order, exactly what min_element over `considered` picks,
  // so the chosen plan is bit-identical whether or not alternatives are
  // recorded (asserted by optimizer tests).
  core::PlanCandidate best;
  bool have_candidate = false;
  auto offer = [&](const core::PlanCandidate& plan) {
    if (options_.record_considered) result.considered.push_back(plan);
    if (!have_candidate || plan.total_us < best.total_us) {
      best = plan;
      have_candidate = true;
    }
  };

  for (int dop : options_.parallel_degrees) {
    if (options_.force_parallel && dop == 1) continue;
    if (dop > max_dop && dop != min_degree) {
      result.dop_clamped = true;
      continue;
    }
    offer(model.CostFullTableScan(profile, dop));
    for (int prefetch : options_.prefetch_depths) {
      offer(model.CostIndexScan(profile, selectivity, dop, prefetch));
      if (options_.enable_sorted_index_scan) {
        offer(model.CostSortedIndexScan(profile, selectivity, dop, prefetch));
      }
    }
  }
  PIOQO_CHECK(have_candidate)
      << "no plan candidates (force_parallel with only dop 1, or every "
         "parallel degree clamped by low model confidence?)";
  result.chosen = best;
  return result;
}

}  // namespace pioqo::opt
