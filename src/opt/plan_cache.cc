#include "opt/plan_cache.h"

#include <bit>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace pioqo::opt {

namespace {

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }

uint64_t Fold(uint64_t h, uint64_t v) { return Mix64(h ^ Mix64(v)); }

/// Hash of every TableProfile field the cost model reads. cached_fraction
/// is folded bit-exact: it moves with buffer-pool residency between
/// arrivals, and a plan priced against yesterday's residency must not hit.
uint64_t ProfileFingerprint(const core::TableProfile& p) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  h = Fold(h, p.table_pages);
  h = Fold(h, p.rows);
  h = Fold(h, p.rows_per_page);
  h = Fold(h, static_cast<uint64_t>(p.index_height));
  h = Fold(h, p.index_leaves);
  h = Fold(h, p.pool_pages);
  h = Fold(h, DoubleBits(p.cached_fraction));
  return h;
}

/// Hash of every OptimizerOptions knob. record_considered is included even
/// though it cannot change the chosen plan, so a caller that wants the full
/// `considered` list never gets a slim entry back.
uint64_t OptionsFingerprint(const OptimizerOptions& o) {
  uint64_t h = 0xc2b2ae3d27d4eb4fULL;
  h = Fold(h, static_cast<uint64_t>(o.queue_depth_aware));
  h = Fold(h, static_cast<uint64_t>(o.force_parallel));
  h = Fold(h, static_cast<uint64_t>(o.enable_sorted_index_scan));
  h = Fold(h, static_cast<uint64_t>(o.record_considered));
  h = Fold(h, static_cast<uint64_t>(o.concurrent_streams));
  h = Fold(h, DoubleBits(o.dtt_fallback_confidence));
  h = Fold(h, o.parallel_degrees.size());
  for (int d : o.parallel_degrees) h = Fold(h, static_cast<uint64_t>(d));
  h = Fold(h, o.prefetch_depths.size());
  for (int d : o.prefetch_depths) h = Fold(h, static_cast<uint64_t>(d));
  return h;
}

/// Log-spaced selectivity band for the bucket index (exactness lives in the
/// tags): selectivities within a factor of two share a band.
uint32_t SelectivityBucket(double selectivity) {
  if (!(selectivity > 0.0)) return 0;
  int exp = 0;
  std::frexp(selectivity, &exp);
  const int band = exp < -62 ? 63 : (exp > 0 ? 0 : -exp);
  return static_cast<uint32_t>(band + 1);
}

size_t RoundUpPow2(size_t n) {
  size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

PlanCache::PlanCache(size_t num_buckets) {
  PIOQO_CHECK(num_buckets > 0);
  buckets_.resize(RoundUpPow2(num_buckets));
  mask_ = buckets_.size() - 1;
}

size_t PlanCache::BucketOf(const Key& key) const {
  uint64_t h = Mix64(key.table_id);
  h = Fold(h, SelectivityBucket(key.selectivity));
  h = Fold(h, static_cast<uint64_t>(key.options.concurrent_streams));
  return static_cast<size_t>(h) & mask_;
}

void PlanCache::FillTags(const Key& key, Entry& entry) {
  entry.table_id = key.table_id;
  entry.selectivity_bits = DoubleBits(key.selectivity);
  entry.confidence_bits = DoubleBits(key.confidence);
  entry.profile_fp = ProfileFingerprint(key.profile);
  entry.options_fp = OptionsFingerprint(key.options);
  entry.model_generation = key.model_generation;
}

bool PlanCache::TagsMatch(const Key& key, const Entry& entry) {
  return entry.table_id == key.table_id &&
         entry.selectivity_bits == DoubleBits(key.selectivity) &&
         entry.confidence_bits == DoubleBits(key.confidence) &&
         entry.profile_fp == ProfileFingerprint(key.profile) &&
         entry.options_fp == OptionsFingerprint(key.options);
}

const OptimizationResult* PlanCache::Lookup(const Key& key) {
  Entry& entry = buckets_[BucketOf(key)];
  if (!entry.valid) {
    ++stats_.misses;
    return nullptr;
  }
  if (entry.model_generation != key.model_generation) {
    // Planned against a grid that has since changed: drop it for good.
    entry.valid = false;
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  if (!TagsMatch(key, entry)) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &entry.result;
}

void PlanCache::Insert(const Key& key, const OptimizationResult& result) {
  Entry& entry = buckets_[BucketOf(key)];
  entry.valid = true;
  FillTags(key, entry);
  entry.result = result;
}

void PlanCache::InvalidateAll() {
  for (Entry& entry : buckets_) {
    if (!entry.valid) continue;
    entry.valid = false;
    entry.result = OptimizationResult{};
    ++stats_.invalidations;
  }
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const Entry& entry : buckets_) n += entry.valid ? 1 : 0;
  return n;
}

}  // namespace pioqo::opt
