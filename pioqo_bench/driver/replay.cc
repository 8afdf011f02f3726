#include "replay.h"

#include <memory>

#include "common/logging.h"
#include "metrics.h"
#include "opt/optimizer.h"
#include "sim/simulator.h"

namespace pioqo::bench {

double ReplayDeviceStream(io::DeviceKind kind,
                          const std::vector<io::TraceEntry>& entries) {
  if (entries.empty()) return 0.0;
  sim::Simulator sim;
  std::unique_ptr<io::Device> device = io::MakeDevice(sim, kind);
  const double origin_us = entries.front().submit_time;
  const Clock::time_point start = Clock::now();
  for (const io::TraceEntry& e : entries) {
    sim.ScheduleAt(e.submit_time - origin_us, [&device, e] {
      device->Submit(io::IoRequest{e.kind, e.offset, e.length},
                     [](const io::IoResult&) {});
    });
  }
  sim.Run();
  return SecondsSince(start);
}

double ReplayPlanning(db::Database& db, const std::string& table,
                      const std::vector<db::Database::QueryRequest>& requests) {
  const storage::Dataset* dataset = *db.GetTable(table);
  const double confidence = db.drift_defense() != nullptr
                                ? db.drift_defense()->confidence()
                                : 1.0;
  double checksum = 0.0;
  const Clock::time_point start = Clock::now();
  for (const db::Database::QueryRequest& req : requests) {
    if (!req.use_optimizer) continue;
    const core::TableProfile profile = db.ProfileFor(*dataset);
    auto selectivity = db.EstimatedSelectivityOf(table, req.scan.pred);
    PIOQO_CHECK_OK(selectivity.status());
    opt::OptimizerOptions options = req.optimizer;
    options.record_considered = false;
    const opt::Optimizer optimizer(db.qdtt(), db.options().constants, options);
    checksum += optimizer.ChooseAccessPath(profile, *selectivity, confidence)
                    .chosen.total_us;
  }
  const double seconds = SecondsSince(start);
  PIOQO_CHECK(checksum >= 0.0);
  return seconds;
}

}  // namespace pioqo::bench
