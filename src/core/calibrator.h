#ifndef PIOQO_CORE_CALIBRATOR_H_
#define PIOQO_CORE_CALIBRATOR_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "core/qdtt_model.h"
#include "io/device.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace pioqo::core {

/// The three queue-depth-generation methods of paper Sec. 4.4.
enum class CalibrationMethod {
  /// n "threads", each issuing synchronous page reads back to back; queue
  /// depth stays constantly n.
  kMultiThread,
  /// Group waiting: one thread issues n asynchronous reads, waits for *all*
  /// of them, then issues the next group.
  kGroupWaiting,
  /// Active waiting: one thread keeps n slots in flight, re-issuing into a
  /// slot as soon as that slot's read completes (circular). The paper's
  /// recommended general method ("the AW method must be the method of
  /// choice").
  kActiveWaiting,
};

std::string_view CalibrationMethodName(CalibrationMethod method);

/// Early-stop control mechanism of Sec. 4.6. T: continue to the next queue
/// depth only if the largest band improved by at least this fraction ("we
/// found experimentally that 20 is a reasonable value for T").
inline constexpr double kEarlyStopThreshold = 0.20;
/// After a final stop, unmeasured points get the band's queue-depth-1 cost
/// times this ("a default value slightly larger than the measured costs for
/// queue depth one").
inline constexpr double kEarlyStopDefaultFactor = 1.05;

/// The order and stop rule of one grid calibration: measure Next(), hand its
/// cost to Record(), repeat until Next() is empty.
///
/// FullGrid walks Sec. 4.6's order: queue depths ascending, bands largest to
/// smallest within each depth. With early stop, the T test runs after the
/// largest band at every depth past the first. When it fires at depth k, the
/// paper stops; this schedule first measures a far anchor, the largest band
/// at the grid's deepest depth, because a device can gain nothing from one
/// doubling and much past a knee (the HDD reorders commands only with three
/// or more queued). If the anchor costs less than (1 - T) x the band's
/// depth-k cost, every other band is measured at the deepest depth too, and
/// each band's skipped depths are filled by power-law interpolation (log cost
/// linear in log qd) between its last measured depth and its anchor.
/// Otherwise, or when the test fires at the deepest depth, the stop is final
/// and every skipped point gets the paper's default.
class CalibrationSchedule {
 public:
  struct Point {
    size_t band_idx;
    size_t qd_idx;
  };

  static CalibrationSchedule FullGrid(size_t num_bands, size_t num_qds,
                                      bool early_stop);

  /// The point to measure next; empty once the schedule is done.
  std::optional<Point> Next() const;

  /// Stores the cost measured at Next() in `model` and advances, applying
  /// the stop rule. When the rule ends the schedule, fills every point of
  /// `model` still unset.
  void Record(QdttModel& model, double cost_us);

  /// Points the fill set without measuring them.
  int points_filled() const { return points_filled_; }

 private:
  /// Sets every unset point of `model`: by power law towards the band's
  /// anchor when the anchor hit, else to the paper's default. Returns the
  /// number set.
  int Fill(QdttModel& model) const;

  std::vector<Point> order_;
  size_t next_ = 0;
  bool early_stop_ = false;
  /// The depth at which the T test fired.
  std::optional<size_t> stop_qd_;
  bool anchored_ = false;
  int points_filled_ = 0;
};

struct CalibratorOptions {
  /// Band sizes (pages) to calibrate; empty -> QdttModel::DefaultBandGrid
  /// for the device.
  std::vector<uint64_t> band_grid;
  /// Queue depths to calibrate; the paper's exponential grid.
  std::vector<int> qd_grid = QdttModel::DefaultQdGrid();
  /// M: hard cap on pages read per calibration point (Sec. 4.4; the paper
  /// uses M = 3200).
  uint32_t max_pages_per_point = 3200;
  /// Independent repetitions averaged per point (the paper's figures use
  /// 50; 1 is enough for the optimizer).
  int repetitions = 1;
  CalibrationMethod method = CalibrationMethod::kActiveWaiting;
  /// Early-stop control mechanism of Sec. 4.6 with its far anchor
  /// (CalibrationSchedule); false measures the full grid.
  bool early_stop = true;
  uint64_t seed = 2014;
};

/// Result of a full calibration run.
struct CalibrationResult {
  QdttModel model;
  double calibration_time_us = 0.0;  // simulated time spent reading
  int points_measured = 0;
  /// Points set without being measured (filled after an early stop).
  int points_defaulted = 0;
  /// Pages the measured points read, every repetition counted.
  uint64_t pages_read = 0;
  /// Probe reads that completed with an error (e.g. under fault injection).
  /// Failed probes still consumed device time, so the model remains a
  /// conservative estimate — but a nonzero count means the measured costs
  /// include failure paths and the run deserves scrutiny.
  uint64_t io_errors = 0;
};

/// Calibrates a QDTT model against a device by measuring the amortized cost
/// of random page reads for every (band size, queue depth) grid point
/// (Secs. 4.4-4.6). All reads go straight to the device (the calibration
/// bypasses the buffer pool, as a real calibrator uses unbuffered I/O).
class Calibrator {
 public:
  Calibrator(sim::Simulator& sim, io::Device& device, CalibratorOptions options);

  /// Runs the (optionally early-stopping) grid calibration.
  CalibrationResult Calibrate();

  /// Measures a single grid point once: amortized us per page read when
  /// randomly reading within a `band_pages` band at queue depth `qd` using
  /// `method`. Exposed for the paper's method-comparison figures (9-11).
  double MeasurePoint(uint64_t band_pages, int qd, CalibrationMethod method,
                      uint64_t seed);

  /// Repeats MeasurePoint `repetitions` times with distinct seeds and
  /// returns the distribution (Fig. 9's "average of 50 repetitions" and
  /// Fig. 10's standard deviations).
  RunningStat MeasurePointStats(uint64_t band_pages, int qd,
                                CalibrationMethod method, int repetitions,
                                uint64_t seed);

  /// Coroutine-friendly variant for callers that are themselves simulated
  /// activities (drift defense's background refresh): measures the point
  /// while the rest of the simulation keeps running, writes the amortized
  /// cost to `*out_us_per_page`, and counts `done` down once.
  sim::Task MeasurePointAsync(uint64_t band_pages, int qd,
                              CalibrationMethod method, uint64_t seed,
                              double* out_us_per_page, sim::Latch& done);

  const CalibratorOptions& options() const { return options_; }

 private:
  /// Builds the page-read sequence for one point per the paper's block
  /// rules: for band <= M the file is divided into consecutive band-sized
  /// blocks (as many as fit under the M-page budget) and each block is read
  /// completely in random non-repeating order, one block at a time; for
  /// band > M a single randomly-placed band-sized block is sampled with M
  /// distinct random pages.
  std::vector<uint64_t> BuildSequence(uint64_t band_pages, uint64_t seed) const;

  /// Length of BuildSequence(band_pages, any seed).
  uint64_t PagesPerPoint(uint64_t band_pages) const;

  /// Starts the `method` driver coroutines reading `pages` at queue depth
  /// `qd`: `qd` multi-thread workers sharing the cursor `next`, or one
  /// group- or active-waiting driver. `done` must be counted for that many
  /// drivers; each counts it down once. All three must outlive the drivers.
  void SpawnDrivers(const std::vector<uint64_t>& pages, int qd,
                    CalibrationMethod method, size_t& next, sim::Latch& done);

  sim::Simulator& sim_;
  io::Device& device_;
  CalibratorOptions options_;
  uint64_t probe_io_errors_ = 0;
};

}  // namespace pioqo::core

#endif  // PIOQO_CORE_CALIBRATOR_H_
