#ifndef PIOQO_BENCH_DRIVER_REPLAY_H_
#define PIOQO_BENCH_DRIVER_REPLAY_H_

#include <string>
#include <vector>

#include "db/database.h"
#include "io/device.h"
#include "io/device_factory.h"

namespace pioqo::bench {

// Outside-in replays for the traced run: each re-does one layer's share of
// a window's work on its own, so its host time can be set against the
// window's without instrumenting the layer.

/// Re-submits a captured device request stream, at its recorded times, to
/// a bare device of `kind` on a fresh simulator. Returns host seconds.
double ReplayDeviceStream(io::DeviceKind kind,
                          const std::vector<io::TraceEntry>& entries);

/// Re-plans every optimizer-planned request of a window the way arrival
/// planning does, without the plan cache: `ProfileFor`,
/// `EstimatedSelectivityOf`, then `Optimizer::ChooseAccessPath` under the
/// current drift confidence. Returns host seconds.
double ReplayPlanning(db::Database& db, const std::string& table,
                      const std::vector<db::Database::QueryRequest>& requests);

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_DRIVER_REPLAY_H_
