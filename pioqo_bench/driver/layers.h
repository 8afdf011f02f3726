#ifndef PIOQO_BENCH_DRIVER_LAYERS_H_
#define PIOQO_BENCH_DRIVER_LAYERS_H_

#include <vector>

#include "metrics.h"
#include "trace.h"

namespace pioqo::bench {

/// The layer harness: host nanoseconds per call into one public entry point
/// of each module (sim, io, storage, exec, core, opt, db), on fixtures of
/// its own that share no state with the workload. Each measurement repeats
/// a fixed batch a fixed number of times and reports the median batch.
/// Takes about a second; every result also gets a host-clock span.
std::vector<Metric> RunLayerHarness(TraceLog& trace);

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_DRIVER_LAYERS_H_
