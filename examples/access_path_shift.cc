// Access-path shift demo: the paper's motivating scenario. The same table,
// the same query, two storage devices — watch the optimizer's chosen access
// path flip as selectivity grows, and see how far the parallel break-even
// moves on the SSD once the optimizer becomes queue-depth aware.
//
//   ./build/examples/access_path_shift

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "db/database.h"

namespace {

std::string PlanName(const pioqo::core::PlanCandidate& plan) {
  std::string s(pioqo::core::AccessMethodName(plan.method));
  if (plan.dop > 1) s += std::to_string(plan.dop);
  return s;
}

}  // namespace

int main() {
  using namespace pioqo;
  const std::vector<double> selectivities = {0.0005, 0.001, 0.002, 0.005,
                                             0.01,   0.02,  0.05,  0.1};

  for (auto kind : {io::DeviceKind::kHdd7200, io::DeviceKind::kSsdConsumer}) {
    db::DatabaseOptions options;
    options.device = kind;
    options.calibration.max_pages_per_point = 800;
    db::Database database(options);

    storage::DatasetConfig table;
    table.name = "t";
    table.num_rows = 500'000;
    table.rows_per_page = 33;
    table.c2_domain = 1 << 30;
    table.index_leaf_fill = 64;
    PIOQO_CHECK_OK(database.CreateTable(table));
    database.Calibrate();

    std::printf("\n=== %s ===\n%12s %16s %16s %12s\n",
                std::string(io::DeviceKindName(kind)).c_str(), "selectivity",
                "DTT choice", "QDTT choice", "QDTT ms");
    for (double sel : selectivities) {
      exec::RangePredicate pred{
          0, storage::C2UpperBoundForSelectivity(table.c2_domain, sel)};
      auto old_outcome = database.ExecuteQuery("t", pred, false, true);
      auto new_outcome = database.ExecuteQuery("t", pred, true, true);
      PIOQO_CHECK(old_outcome.ok() && new_outcome.ok());
      std::printf("%11.2f%% %16s %16s %12.1f\n", sel * 100.0,
                  PlanName(old_outcome->optimization.chosen).c_str(),
                  PlanName(new_outcome->optimization.chosen).c_str(),
                  new_outcome->scan.runtime_us / 1000.0);
    }
  }
  std::printf(
      "\nOn the HDD the QDTT optimizer sees the drive's gains at deep queues\n"
      "(NCQ) and picks PIS32 for the narrowest ranges, which runs slower\n"
      "than the legacy optimizer's FTS: the cost model prices PIS32 at\n"
      "queue depth 32, but PIS hands out work a leaf at a time, so a range\n"
      "of a few leaves keeps only a few reads in flight.\n"
      "On the SSD the QDTT optimizer keeps choosing parallel index scans\n"
      "deep into selectivities where the legacy optimizer had already\n"
      "fallen back to a full table scan.\n");
  return 0;
}
