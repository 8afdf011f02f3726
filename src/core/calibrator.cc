#include "core/calibrator.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/page.h"

namespace pioqo::core {
namespace {

using storage::kPageSize;

io::IoRequest PageRead(uint64_t page) {
  return io::IoRequest{io::IoRequest::Kind::kRead, page * kPageSize, kPageSize};
}

/// n simulated threads, each performing synchronous reads of the next
/// unclaimed page in the sequence.
sim::Task MultiThreadWorker(io::Device& device,
                            const std::vector<uint64_t>& pages, size_t& next,
                            sim::Latch& done, uint64_t& io_errors) {
  while (next < pages.size()) {
    const uint64_t page = pages[next++];
    // A failed probe still took device time, so the point stays usable as a
    // conservative estimate; the error count tells callers how much of the
    // sequence actually completed.
    Status status = co_await device.Read(page * kPageSize, kPageSize);
    if (!status.ok()) ++io_errors;
  }
  done.CountDown();
}

/// Group waiting (Sec. 4.4): issue n asynchronous reads, wait for all of
/// them, repeat.
sim::Task GroupWaitingDriver(sim::Simulator& sim, io::Device& device,
                             const std::vector<uint64_t>& pages, int qd,
                             sim::Latch& done, uint64_t& io_errors) {
  for (size_t i = 0; i < pages.size();) {
    const size_t group = std::min<size_t>(static_cast<size_t>(qd),
                                          pages.size() - i);
    sim::Latch group_done(sim, static_cast<int64_t>(group));
    for (size_t j = 0; j < group; ++j) {
      device.Submit(PageRead(pages[i + j]),
                    [&group_done, &io_errors](const io::IoResult& r) {
                      if (!r.ok()) ++io_errors;
                      group_done.CountDown();
                    });
    }
    i += group;
    co_await group_done.Wait();
  }
  done.CountDown();
}

/// Active waiting (Sec. 4.4): keep n slots in flight; as soon as slot k's
/// read finishes, issue the next read into slot k and move to slot k+1.
sim::Task ActiveWaitingDriver(sim::Simulator& sim, io::Device& device,
                              const std::vector<uint64_t>& pages, int qd,
                              sim::Latch& done, uint64_t& io_errors) {
  const size_t n = std::min<size_t>(static_cast<size_t>(qd), pages.size());
  // One 0-permit semaphore per slot: a completion releases its permit, and
  // one that lands before the driver waits on the slot stays banked.
  std::vector<std::unique_ptr<sim::Semaphore>> slots;
  slots.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slots.push_back(std::make_unique<sim::Semaphore>(sim, 0));
  }
  size_t issued = 0;
  for (; issued < n; ++issued) {
    device.Submit(PageRead(pages[issued]),
                  [&slot = *slots[issued], &io_errors](const io::IoResult& r) {
                    if (!r.ok()) ++io_errors;
                    slot.Release();
                  });
  }
  for (size_t waited = 0; waited < pages.size(); ++waited) {
    sim::Semaphore& slot = *slots[waited % n];
    co_await slot.WaitAcquire();
    if (issued < pages.size()) {
      device.Submit(PageRead(pages[issued]),
                    [&slot, &io_errors](const io::IoResult& r) {
                      if (!r.ok()) ++io_errors;
                      slot.Release();
                    });
      ++issued;
    }
  }
  done.CountDown();
}

/// Driver coroutines Calibrator::SpawnDrivers starts for one measurement.
int DriverCount(CalibrationMethod method, int qd) {
  return method == CalibrationMethod::kMultiThread ? qd : 1;
}

}  // namespace

CalibrationSchedule CalibrationSchedule::FullGrid(size_t num_bands,
                                                  size_t num_qds,
                                                  bool early_stop) {
  CalibrationSchedule schedule;
  schedule.early_stop_ = early_stop;
  for (size_t qi = 0; qi < num_qds; ++qi) {
    for (size_t bi = num_bands; bi-- > 0;) {
      schedule.order_.push_back(Point{bi, qi});
    }
  }
  return schedule;
}

CalibrationSchedule CalibrationSchedule::Rows(
    const std::vector<size_t>& band_idxs, size_t num_qds) {
  CalibrationSchedule schedule;
  for (size_t bi : band_idxs) {
    for (size_t qi = 0; qi < num_qds; ++qi) {
      schedule.order_.push_back(Point{bi, qi});
    }
  }
  return schedule;
}

std::optional<CalibrationSchedule::Point> CalibrationSchedule::Next() const {
  if (next_ == order_.size()) return std::nullopt;
  return order_[next_];
}

void CalibrationSchedule::Record(QdttModel& model, double cost_us) {
  PIOQO_CHECK(next_ < order_.size()) << "schedule already done";
  const Point point = order_[next_++];
  model.SetPoint(point.band_idx, point.qd_idx, cost_us);
  if (!early_stop_) return;
  const size_t largest = model.num_bands() - 1;
  const size_t deepest = model.num_qds() - 1;
  if (!stop_qd_.has_value()) {
    if (point.band_idx != largest || point.qd_idx == 0 ||
        cost_us <= model.PointAt(largest, point.qd_idx - 1) *
                       (1.0 - kEarlyStopThreshold)) {
      return;
    }
    stop_qd_ = point.qd_idx;
    order_.resize(next_);
    if (point.qd_idx < deepest) order_.push_back(Point{largest, deepest});
  } else if (point.band_idx == largest && point.qd_idx == deepest &&
             cost_us < model.PointAt(largest, *stop_qd_) *
                           (1.0 - kEarlyStopThreshold)) {
    // The anchor hit: the other bands' anchors, largest to smallest.
    anchored_ = true;
    for (size_t bi = largest; bi-- > 0;) {
      order_.push_back(Point{bi, deepest});
    }
  }
  if (next_ == order_.size()) points_filled_ = Fill(model);
}

int CalibrationSchedule::Fill(QdttModel& model) const {
  const std::vector<int>& qds = model.qd_grid();
  const size_t deepest = qds.size() - 1;
  int filled = 0;
  for (size_t bi = 0; bi < model.num_bands(); ++bi) {
    PIOQO_CHECK(model.IsSet(bi, 0));
    size_t last = 0;  // the band's last measured depth below the anchor
    for (size_t qi = 1; qi < qds.size(); ++qi) {
      if (model.IsSet(bi, qi)) {
        last = qi;
        continue;
      }
      double cost = model.PointAt(bi, 0) * kEarlyStopDefaultFactor;
      if (anchored_) {
        const double t = std::log(static_cast<double>(qds[qi]) / qds[last]) /
                         std::log(static_cast<double>(qds[deepest]) /
                                  qds[last]);
        cost = std::exp((1.0 - t) * std::log(model.PointAt(bi, last)) +
                        t * std::log(model.PointAt(bi, deepest)));
      }
      model.SetPoint(bi, qi, cost);
      ++filled;
    }
  }
  return filled;
}

std::string_view CalibrationMethodName(CalibrationMethod method) {
  switch (method) {
    case CalibrationMethod::kMultiThread:
      return "MT";
    case CalibrationMethod::kGroupWaiting:
      return "GW";
    case CalibrationMethod::kActiveWaiting:
      return "AW";
  }
  return "?";
}

Calibrator::Calibrator(sim::Simulator& sim, io::Device& device,
                       CalibratorOptions options)
    : sim_(sim), device_(device), options_(std::move(options)) {
  PIOQO_CHECK(options_.max_pages_per_point >= 1);
  PIOQO_CHECK(options_.repetitions >= 1);
  if (options_.band_grid.empty()) {
    options_.band_grid =
        QdttModel::DefaultBandGrid(device_.capacity_bytes() / kPageSize);
  }
}

uint64_t Calibrator::PagesPerPoint(uint64_t band_pages) const {
  const uint64_t file_pages = device_.capacity_bytes() / kPageSize;
  const uint64_t band = std::min(std::max<uint64_t>(band_pages, 1), file_pages);
  const uint64_t m = options_.max_pages_per_point;
  if (band > m) return m;
  // Whole band-sized blocks, as many as fit under M (the paper's intent:
  // "the total number of page reads for any calibration point would be at
  // most equal to M").
  return band * std::max<uint64_t>(1, std::min(m / band, file_pages / band));
}

std::vector<uint64_t> Calibrator::BuildSequence(uint64_t band_pages,
                                                uint64_t seed) const {
  Pcg32 rng(seed);
  const uint64_t file_pages = device_.capacity_bytes() / kPageSize;
  const uint64_t band = std::min(std::max<uint64_t>(band_pages, 1), file_pages);
  const uint64_t m = options_.max_pages_per_point;

  std::vector<uint64_t> sequence;
  if (band <= m) {
    // Consecutive band-sized blocks, each fully read in random order, one
    // block at a time.
    const uint64_t blocks = PagesPerPoint(band_pages) / band;
    const uint64_t max_start_block = file_pages / band - blocks;
    const uint64_t start_block =
        max_start_block > 0 ? rng.UniformBelow(max_start_block + 1) : 0;
    sequence.reserve(blocks * band);
    for (uint64_t blk = 0; blk < blocks; ++blk) {
      const uint64_t base = (start_block + blk) * band;
      for (uint64_t p : SampleWithoutReplacement(band, band, rng)) {
        sequence.push_back(base + p);
      }
    }
  } else {
    // One randomly placed band-sized block; M distinct random pages in it.
    const uint64_t max_start = file_pages - band;
    const uint64_t start = max_start > 0 ? rng.UniformBelow(max_start + 1) : 0;
    sequence.reserve(m);
    for (uint64_t p : SampleWithoutReplacement(band, m, rng)) {
      sequence.push_back(start + p);
    }
  }
  return sequence;
}

void Calibrator::SpawnDrivers(const std::vector<uint64_t>& pages, int qd,
                              CalibrationMethod method, size_t& next,
                              sim::Latch& done) {
  switch (method) {
    case CalibrationMethod::kMultiThread:
      for (int t = 0; t < qd; ++t) {
        MultiThreadWorker(device_, pages, next, done, probe_io_errors_)
            .Detach();
      }
      break;
    case CalibrationMethod::kGroupWaiting:
      GroupWaitingDriver(sim_, device_, pages, qd, done, probe_io_errors_)
          .Detach();
      break;
    case CalibrationMethod::kActiveWaiting:
      ActiveWaitingDriver(sim_, device_, pages, qd, done, probe_io_errors_)
          .Detach();
      break;
  }
}

sim::Task Calibrator::MeasurePointAsync(uint64_t band_pages, int qd,
                                        CalibrationMethod method,
                                        uint64_t seed,
                                        double* out_us_per_page,
                                        sim::Latch& done) {
  PIOQO_CHECK(qd >= 1);
  const std::vector<uint64_t> pages = BuildSequence(band_pages, seed);
  PIOQO_CHECK(!pages.empty());
  const sim::SimTime start = sim_.Now();
  sim::Latch inner(sim_, DriverCount(method, qd));
  size_t next = 0;
  SpawnDrivers(pages, qd, method, next, inner);
  co_await inner.Wait();
  *out_us_per_page = (sim_.Now() - start) / static_cast<double>(pages.size());
  done.CountDown();
}

double Calibrator::MeasurePoint(uint64_t band_pages, int qd,
                                CalibrationMethod method, uint64_t seed) {
  PIOQO_CHECK(qd >= 1);
  const std::vector<uint64_t> pages = BuildSequence(band_pages, seed);
  PIOQO_CHECK(!pages.empty());
  const sim::SimTime start = sim_.Now();
  sim::Latch done(sim_, DriverCount(method, qd));
  size_t next = 0;
  SpawnDrivers(pages, qd, method, next, done);
  sim_.Run();
  PIOQO_CHECK(done.done());
  return (sim_.Now() - start) / static_cast<double>(pages.size());
}

RunningStat Calibrator::MeasurePointStats(uint64_t band_pages, int qd,
                                          CalibrationMethod method,
                                          int repetitions, uint64_t seed) {
  PIOQO_CHECK(repetitions >= 1);
  RunningStat stat;
  for (int r = 0; r < repetitions; ++r) {
    stat.Add(MeasurePoint(band_pages, qd, method,
                          seed + static_cast<uint64_t>(r) * 7919));
  }
  return stat;
}

CalibrationResult Calibrator::Calibrate() {
  QdttModel model(options_.band_grid, options_.qd_grid);
  CalibrationResult result{model, 0.0, 0, 0, 0, 0};
  const uint64_t errors_before = probe_io_errors_;
  const sim::SimTime start = sim_.Now();
  uint64_t seed = options_.seed;
  CalibrationSchedule schedule = CalibrationSchedule::FullGrid(
      model.num_bands(), model.num_qds(), options_.early_stop);
  while (const std::optional<CalibrationSchedule::Point> point =
             schedule.Next()) {
    const uint64_t band = options_.band_grid[point->band_idx];
    RunningStat stat =
        MeasurePointStats(band, options_.qd_grid[point->qd_idx],
                          options_.method, options_.repetitions, seed);
    seed += 104729;
    schedule.Record(result.model, stat.mean());
    ++result.points_measured;
    result.pages_read +=
        static_cast<uint64_t>(options_.repetitions) * PagesPerPoint(band);
  }
  result.points_defaulted = schedule.points_filled();

  result.calibration_time_us = sim_.Now() - start;
  result.io_errors = probe_io_errors_ - errors_before;
  if (result.io_errors > 0) {
    PIOQO_LOG_WARNING << "calibration saw " << result.io_errors
                   << " failed probe read(s); model is a conservative "
                      "estimate";
  }
  return result;
}

}  // namespace pioqo::core
