// opt::PlanCache semantics (DESIGN.md §13):
//   1. Repeat lookups of an identical planning problem hit; any input the
//      exact tags cover (selectivity, confidence, profile, options) misses.
//   2. A QdttModel::SetPoint merge bumps the model generation and kills
//      cached plans (the DriftDefense refresh path).
//   3. Database plans every query through the cache: repeat arrivals and
//      repeated ExecuteQuery calls hit, a hit equals a fresh
//      Optimizer::ChooseAccessPath on the same inputs, and model
//      replacement flushes.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/qdtt_model.h"
#include "db/database.h"
#include "opt/plan_cache.h"
#include "sim/sim_checks.h"

namespace pioqo {
namespace {

using db::Database;
using db::DatabaseOptions;
using opt::OptimizationResult;
using opt::OptimizerOptions;
using opt::PlanCache;

core::TableProfile TestProfile() {
  core::TableProfile profile;
  profile.table_pages = 4096;
  profile.rows = 33 * 4096;
  profile.rows_per_page = 33;
  profile.index_height = 3;
  profile.index_leaves = 400;
  profile.pool_pages = 512;
  profile.cached_fraction = 0.25;
  return profile;
}

core::QdttModel TestModel() {
  core::QdttModel model({1, 512, 65536}, {1, 2, 4});
  for (size_t b = 0; b < model.num_bands(); ++b) {
    for (size_t q = 0; q < model.num_qds(); ++q) {
      model.SetPoint(b, q, 100.0 * static_cast<double>(b + 1) /
                               static_cast<double>(q + 1));
    }
  }
  return model;
}

PlanCache::Key TestKey(const core::QdttModel& model) {
  PlanCache::Key key;
  key.table_id = 17;
  key.selectivity = 0.01;
  key.confidence = 1.0;
  key.profile = TestProfile();
  key.options = OptimizerOptions{};
  key.options.record_considered = false;  // as Database's planner keys it
  key.model_generation = model.generation();
  return key;
}

OptimizationResult TestResult() {
  OptimizationResult result;
  result.chosen.method = core::AccessMethod::kPis;
  result.chosen.dop = 8;
  result.chosen.prefetch_depth = 4;
  result.chosen.total_us = 1234.5;
  return result;
}

TEST(PlanCacheTest, HitsOnRepeatMissesOnAnyTagChange) {
  core::QdttModel model = TestModel();
  PlanCache cache(64);
  const PlanCache::Key key = TestKey(model);

  EXPECT_EQ(cache.Lookup(key), nullptr);  // cold
  cache.Insert(key, TestResult());
  const OptimizationResult* hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->chosen.method, core::AccessMethod::kPis);
  EXPECT_EQ(hit->chosen.dop, 8);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Every exact tag must gate the hit, even when the bucket coincides.
  PlanCache::Key k = key;
  k.selectivity = 0.0100000001;  // same log2 bucket, different bits
  EXPECT_EQ(cache.Lookup(k), nullptr);
  k = key;
  k.confidence = 0.99;  // still full trust, different bits
  EXPECT_EQ(cache.Lookup(k), nullptr);
  k = key;
  k.confidence = 0.5;  // the optimizer now clamps its DOP set
  EXPECT_EQ(cache.Lookup(k), nullptr);
  k = key;
  k.profile.cached_fraction = 0.26;  // pool residency moved
  EXPECT_EQ(cache.Lookup(k), nullptr);
  k = key;
  k.options.parallel_degrees = {1, 2, 4};  // narrower search space
  EXPECT_EQ(cache.Lookup(k), nullptr);
  k = key;
  k.options.record_considered = true;  // wants the full candidate list
  EXPECT_EQ(cache.Lookup(k), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 7u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

TEST(PlanCacheTest, SetPointMergeInvalidatesCachedPlans) {
  core::QdttModel model = TestModel();
  PlanCache cache;
  PlanCache::Key key = TestKey(model);
  cache.Insert(key, TestResult());
  ASSERT_NE(cache.Lookup(key), nullptr);

  // A drift-defense point merge goes through exactly this call.
  const uint64_t before = model.generation();
  model.SetPoint(1, 1, 999.0);
  EXPECT_EQ(model.generation(), before + 1);

  key.model_generation = model.generation();
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 0u);  // the stale entry is gone, not just skipped
}

// --- End to end: every Database planner call goes through the cache ------

storage::DatasetConfig SmallTable() {
  storage::DatasetConfig config;
  config.name = "T";
  // 256 data pages, so table + index fit a 1024-frame pool: residency (and
  // with it TableProfile::cached_fraction) saturates after the first rounds
  // and repeat arrivals become cache hits.
  config.num_rows = 33 * 256;
  return config;
}

std::unique_ptr<Database> MakeDb() {
  DatabaseOptions options;
  options.device = io::DeviceKind::kSsdConsumer;
  options.pool_pages = 1024;
  options.calibration.max_pages_per_point = 256;
  auto db = std::make_unique<Database>(std::move(options));
  PIOQO_CHECK(db->CreateTable(SmallTable()).ok());
  db->Calibrate();
  db->EnableAdmissionControl();
  return db;
}

exec::RangePredicate PredFor(double selectivity) {
  return exec::RangePredicate{0, storage::C2UpperBoundForSelectivity(
                                     SmallTable().c2_domain, selectivity)};
}

void ExpectSameCandidate(const core::PlanCandidate& a,
                         const core::PlanCandidate& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.dop, b.dop);
  EXPECT_EQ(a.prefetch_depth, b.prefetch_depth);
  EXPECT_EQ(a.io_us, b.io_us);
  EXPECT_EQ(a.cpu_us, b.cpu_us);
  EXPECT_EQ(a.total_us, b.total_us);
}

void ExpectSamePlan(const OptimizationResult& a, const OptimizationResult& b) {
  ExpectSameCandidate(a.chosen, b.chosen);
  ASSERT_EQ(a.considered.size(), b.considered.size());
  for (size_t i = 0; i < a.considered.size(); ++i) {
    ExpectSameCandidate(a.considered[i], b.considered[i]);
  }
  EXPECT_EQ(a.model_confidence, b.model_confidence);
  EXPECT_EQ(a.dop_clamped, b.dop_clamped);
  EXPECT_EQ(a.dtt_fallback, b.dtt_fallback);
}

TEST(PlanCacheWorkloadTest, RepeatArrivalsHit) {
  std::unique_ptr<Database> db = MakeDb();
  static constexpr double kSelectivities[4] = {0.30, 0.01, 0.10, 0.02};
  std::vector<Database::QueryRequest> requests;
  const double start_us = db->simulator().Now() + 1'000.0;
  for (size_t i = 0; i < 20; ++i) {
    Database::QueryRequest req;
    req.scan.table = "T";
    req.scan.pred = PredFor(kSelectivities[i % 4]);
    req.use_optimizer = true;
    req.arrival_us = start_us + static_cast<double>(i) * 100'000.0;
    requests.push_back(req);
  }

  auto report = db->RunWorkload(requests, /*flush_pool=*/true);
  PIOQO_CHECK_OK(report.status());
  ASSERT_EQ(report->queries.size(), 20u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->completed, 20u);
  // Hits happen once pool residency stabilizes; every query planned.
  EXPECT_GE(report->plan_cache.hits, 8u);
  EXPECT_GE(report->plan_cache.misses, 4u);
  EXPECT_EQ(report->plan_cache.hits + report->plan_cache.misses, 20u);
  EXPECT_TRUE(db->pool().Clear().ok());
  sim::checks::ExpectQuiescent("plan cache workload");
}

TEST(PlanCacheWorkloadTest, HitEqualsFreshOptimization) {
  std::unique_ptr<Database> db = MakeDb();
  for (double selectivity : {0.30, 0.01, 0.10, 0.02}) {
    Database::QueryRequest req;
    req.scan.table = "T";
    req.scan.pred = PredFor(selectivity);
    req.use_optimizer = true;
    req.optimizer.prefetch_depths = {0, 4};

    auto first = db->PlanWorkloadQuery(req);
    PIOQO_CHECK_OK(first.status());
    const uint64_t hits = db->plan_cache()->stats().hits;
    auto hit = db->PlanWorkloadQuery(req);
    PIOQO_CHECK_OK(hit.status());
    EXPECT_EQ(db->plan_cache()->stats().hits, hits + 1) << selectivity;

    // The planner's own options: the request's, without the candidate list.
    OptimizerOptions options = req.optimizer;
    options.record_considered = false;
    const opt::Optimizer optimizer(db->qdtt(), db->options().constants,
                                   options);
    const OptimizationResult fresh = optimizer.ChooseAccessPath(
        hit->profile, hit->selectivity, hit->optimization.model_confidence);
    ExpectSamePlan(hit->optimization, fresh);
    ExpectSamePlan(hit->optimization, first->optimization);
    EXPECT_EQ(hit->spec.index, first->spec.index);
    EXPECT_EQ(hit->spec.dop, first->spec.dop);
    EXPECT_EQ(hit->spec.prefetch_depth, first->spec.prefetch_depth);
  }
}

TEST(PlanCacheQueryTest, RepeatedExecuteQueryHitsWithTheSamePlan) {
  std::unique_ptr<Database> db = MakeDb();
  const exec::RangePredicate pred = PredFor(0.05);
  auto first = db->ExecuteQuery("T", pred, /*queue_depth_aware=*/true,
                                /*flush_pool=*/true);
  PIOQO_CHECK_OK(first.status());
  ASSERT_FALSE(first->optimization.considered.empty());

  // ExecuteQuery plans before its flush, so empty the pool the first scan
  // filled: the second call then sees the first one's inputs exactly.
  ASSERT_TRUE(db->pool().Clear().ok());
  const opt::PlanCacheStats before = db->plan_cache()->stats();
  auto second = db->ExecuteQuery("T", pred, /*queue_depth_aware=*/true,
                                 /*flush_pool=*/true);
  PIOQO_CHECK_OK(second.status());
  EXPECT_EQ(db->plan_cache()->stats().hits, before.hits + 1);
  EXPECT_EQ(db->plan_cache()->stats().misses, before.misses);
  ExpectSamePlan(second->optimization, first->optimization);
  EXPECT_EQ(second->scan.rows_matched, first->scan.rows_matched);
  EXPECT_TRUE(db->pool().Clear().ok());
  sim::checks::ExpectQuiescent("plan cache execute query");
}

TEST(PlanCacheWorkloadTest, ModelReplacementFlushesTheCache) {
  std::unique_ptr<Database> db = MakeDb();
  Database::QueryRequest req;
  req.scan.table = "T";
  req.scan.pred = PredFor(0.1);
  req.use_optimizer = true;
  req.arrival_us = db->simulator().Now() + 1'000.0;
  auto first = db->RunWorkload({req}, /*flush_pool=*/true);
  PIOQO_CHECK_OK(first.status());
  EXPECT_GE(db->plan_cache()->size(), 1u);

  // Reinstalling a model (even an identical copy) must flush: generation
  // counters are per model object and cannot vouch across a swap.
  db->InstallModel(db->qdtt());
  EXPECT_EQ(db->plan_cache()->size(), 0u);
  EXPECT_GE(db->plan_cache()->stats().invalidations, 1u);
  sim::checks::ExpectQuiescent("plan cache install");
}

}  // namespace
}  // namespace pioqo
