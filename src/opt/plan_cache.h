#ifndef PIOQO_OPT_PLAN_CACHE_H_
#define PIOQO_OPT_PLAN_CACHE_H_

#include <cstdint>
#include <vector>

#include "core/cost_model.h"
#include "opt/optimizer.h"

namespace pioqo::opt {

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Entries dropped because the model they were planned against is no
  /// longer live: its generation advanced (e.g. a DriftDefense refresh)
  /// or the caller replaced the model object (InvalidateAll).
  uint64_t invalidations = 0;
};

/// Memoizes access-path selection for repeated planning problems
/// (DESIGN.md §13).
///
/// Every optimizer call in db::Database goes through this cache, and
/// open-loop workloads overwhelmingly repeat a handful of (table,
/// predicate) shapes. The cache is direct-mapped: the bucket index hashes
/// the *coarse* plan problem — table, log-spaced selectivity bucket and
/// concurrent streams — while the entry stores an *exact* tag over every
/// input the optimizer reads (selectivity and confidence to the bit, a
/// fingerprint of the whole TableProfile including the live
/// cached_fraction, an OptimizerOptions fingerprint, and the QDTT model
/// generation). A hit therefore returns a plan that is bit-identical to
/// what a fresh ChooseAccessPath would produce; anything the tag cannot
/// prove unchanged is a miss. plan_cache_test.cc pins that invariant.
///
/// Invalidation has one rule: the tags. An entry whose model generation is
/// stale (core::QdttModel::SetPoint bumps it — DriftDefense's recalibration
/// measures refreshed points through exactly that path) is dropped on
/// lookup, and a changed confidence is a tag miss. The generation only
/// counts mutations of one model object, so a caller that replaces the
/// object calls InvalidateAll().
class PlanCache {
 public:
  /// `num_buckets` is rounded up to a power of two.
  explicit PlanCache(size_t num_buckets = 256);

  /// Everything ChooseAccessPath reads, gathered by the caller.
  struct Key {
    /// Catalog identity of the scanned table (its first page id).
    uint64_t table_id = 0;
    double selectivity = 0.0;
    double confidence = 1.0;
    core::TableProfile profile;
    OptimizerOptions options;
    /// core::QdttModel::generation() at lookup time.
    uint64_t model_generation = 0;
  };

  /// Cached result for `key`, or nullptr (counted as hit/miss; a stale
  /// generation also counts an invalidation). The pointer is valid until
  /// the next Insert/InvalidateAll.
  const OptimizationResult* Lookup(const Key& key);

  /// Stores `result` for `key`, evicting whatever shared its bucket.
  void Insert(const Key& key, const OptimizationResult& result);

  /// Drops every entry, counting the live ones as invalidations.
  void InvalidateAll();

  const PlanCacheStats& stats() const { return stats_; }
  size_t size() const;

 private:
  struct Entry {
    bool valid = false;
    uint64_t table_id = 0;
    uint64_t selectivity_bits = 0;
    uint64_t confidence_bits = 0;
    uint64_t profile_fp = 0;
    uint64_t options_fp = 0;
    uint64_t model_generation = 0;
    OptimizationResult result;
  };

  size_t BucketOf(const Key& key) const;
  static void FillTags(const Key& key, Entry& entry);
  static bool TagsMatch(const Key& key, const Entry& entry);

  std::vector<Entry> buckets_;
  size_t mask_ = 0;
  PlanCacheStats stats_;
};

}  // namespace pioqo::opt

#endif  // PIOQO_OPT_PLAN_CACHE_H_
