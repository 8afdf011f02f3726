// Google-benchmark microbenchmarks for library hot paths the pioqo_bench
// layer harness does not time: Yao's formula and B+-tree page search. (QDTT
// lookups, index-scan costing and the simulator event loop are tracked there
// as core.qdtt_lookup_ns, core.cost_index_scan_ns and sim.event_ns.)

#include <benchmark/benchmark.h>

#include "common/math_utils.h"
#include "common/rng.h"
#include "io/ssd_device.h"
#include "sim/simulator.h"
#include "storage/btree.h"
#include "storage/disk_image.h"

namespace pioqo {
namespace {

void BM_YaoExpectedPages(benchmark::State& state) {
  Pcg32 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        YaoExpectedPages(80'000'000, 33, rng.UniformBelow(80'000'000)));
  }
}
BENCHMARK(BM_YaoExpectedPages);

void BM_BTreeLeafSearch(benchmark::State& state) {
  sim::Simulator sim;
  io::SsdDevice ssd(sim, io::SsdGeometry::ConsumerPcie());
  storage::DiskImage disk(ssd);
  std::vector<storage::BPlusTree::Entry> entries;
  for (int i = 0; i < 100000; ++i) {
    entries.push_back({i * 2, {static_cast<storage::PageId>(i / 33),
                               static_cast<uint16_t>(i % 33)}});
  }
  auto tree = storage::BPlusTree::BulkBuild(disk, entries);
  Pcg32 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->SeekCeil(disk, static_cast<int32_t>(rng.UniformBelow(200000))));
  }
}
BENCHMARK(BM_BTreeLeafSearch);

}  // namespace
}  // namespace pioqo

BENCHMARK_MAIN();
