#include "core/qdtt_model.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/logging.h"
#include "common/stats.h"

namespace pioqo::core {

QdttModel::QdttModel(std::vector<uint64_t> band_grid, std::vector<int> qd_grid)
    : bands_(std::move(band_grid)), qds_(std::move(qd_grid)) {
  PIOQO_CHECK(!bands_.empty() && !qds_.empty());
  PIOQO_CHECK(std::is_sorted(bands_.begin(), bands_.end()));
  PIOQO_CHECK(std::is_sorted(qds_.begin(), qds_.end()));
  PIOQO_CHECK(bands_.front() >= 1);
  PIOQO_CHECK(qds_.front() >= 1);
  costs_.assign(bands_.size() * qds_.size(), -1.0);
}

std::vector<uint64_t> QdttModel::DefaultBandGrid(uint64_t device_pages) {
  PIOQO_CHECK(device_pages >= 1);
  std::vector<uint64_t> grid;
  for (uint64_t b = 1; b < device_pages; b *= 8) grid.push_back(b);
  grid.push_back(device_pages);
  // Degenerate devices: ensure at least two points for interpolation.
  if (grid.size() == 1) grid.insert(grid.begin(), 1);
  return grid;
}

void QdttModel::SetPoint(size_t band_idx, size_t qd_idx, double cost_us) {
  PIOQO_CHECK(band_idx < bands_.size() && qd_idx < qds_.size());
  PIOQO_CHECK(cost_us >= 0.0);
  costs_[Index(band_idx, qd_idx)] = cost_us;
  ++generation_;
}

double QdttModel::PointAt(size_t band_idx, size_t qd_idx) const {
  PIOQO_CHECK(band_idx < bands_.size() && qd_idx < qds_.size());
  return costs_[Index(band_idx, qd_idx)];
}

bool QdttModel::IsSet(size_t band_idx, size_t qd_idx) const {
  return PointAt(band_idx, qd_idx) >= 0.0;
}

bool QdttModel::complete() const {
  return std::all_of(costs_.begin(), costs_.end(),
                     [](double c) { return c >= 0.0; });
}

double QdttModel::LookupBand(double band_pages, size_t qd_idx) const {
  if (band_pages <= static_cast<double>(bands_.front())) {
    return costs_[Index(0, qd_idx)];
  }
  if (band_pages >= static_cast<double>(bands_.back())) {
    return costs_[Index(bands_.size() - 1, qd_idx)];
  }
  // Find the grid segment containing band_pages.
  size_t hi = 1;
  while (static_cast<double>(bands_[hi]) < band_pages) ++hi;
  return LerpClamped(band_pages, static_cast<double>(bands_[hi - 1]),
                     costs_[Index(hi - 1, qd_idx)],
                     static_cast<double>(bands_[hi]),
                     costs_[Index(hi, qd_idx)]);
}

double QdttModel::Lookup(double band_pages, double queue_depth) const {
  PIOQO_CHECK(complete()) << "QDTT model queried before full calibration";
  if (queue_depth <= static_cast<double>(qds_.front())) {
    return LookupBand(band_pages, 0);
  }
  if (queue_depth >= static_cast<double>(qds_.back())) {
    return LookupBand(band_pages, qds_.size() - 1);
  }
  size_t hi = 1;
  while (static_cast<double>(qds_[hi]) < queue_depth) ++hi;
  const double y0 = LookupBand(band_pages, hi - 1);
  const double y1 = LookupBand(band_pages, hi);
  return LerpClamped(queue_depth, static_cast<double>(qds_[hi - 1]), y0,
                     static_cast<double>(qds_[hi]), y1);
}

std::string QdttModel::ToString() const {
  std::ostringstream out;
  out << "QDTT (us/page)\nband\\qd";
  for (int q : qds_) out << "\t" << q;
  out << "\n";
  for (size_t b = 0; b < bands_.size(); ++b) {
    out << bands_[b];
    for (size_t q = 0; q < qds_.size(); ++q) {
      char buf[32];
      double v = costs_[Index(b, q)];
      if (v < 0) {
        std::snprintf(buf, sizeof(buf), "\t-");
      } else {
        std::snprintf(buf, sizeof(buf), "\t%.1f", v);
      }
      out << buf;
    }
    out << "\n";
  }
  return out.str();
}

std::string QdttModel::Serialize() const {
  std::ostringstream out;
  // Round-trip exactly: shortest representation that restores the double.
  out << std::setprecision(17);
  out << "qdtt v1\n";
  for (size_t b = 0; b < bands_.size(); ++b) {
    for (size_t q = 0; q < qds_.size(); ++q) {
      out << bands_[b] << " " << qds_[q] << " " << costs_[Index(b, q)] << "\n";
    }
  }
  return out.str();
}

StatusOr<QdttModel> QdttModel::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  std::getline(in, header);
  if (header != "qdtt v1") {
    return Status::InvalidArgument("bad QDTT header: " + header);
  }
  std::vector<uint64_t> bands;
  std::vector<int> qds;
  struct Triple {
    uint64_t band;
    int qd;
    double cost;
  };
  std::vector<Triple> triples;
  const Status not_a_triple = Status::InvalidArgument(
      "QDTT payload holds a token outside a whole band qd cost triple");
  int64_t band;
  while (in >> band) {
    int qd;
    double cost;
    if (!(in >> qd >> cost)) return not_a_triple;
    if (band < 1 || qd < 1) {
      return Status::InvalidArgument(
          "QDTT point with a band or queue depth below 1");
    }
    const Triple t{static_cast<uint64_t>(band), qd, cost};
    if (std::any_of(triples.begin(), triples.end(), [&](const Triple& u) {
          return u.band == t.band && u.qd == t.qd;
        })) {
      return Status::InvalidArgument("repeated QDTT point");
    }
    triples.push_back(t);
    if (std::find(bands.begin(), bands.end(), t.band) == bands.end()) {
      bands.push_back(t.band);
    }
    if (std::find(qds.begin(), qds.end(), qd) == qds.end()) qds.push_back(qd);
  }
  if (!in.eof()) return not_a_triple;
  if (triples.empty()) return Status::InvalidArgument("empty QDTT payload");
  std::sort(bands.begin(), bands.end());
  std::sort(qds.begin(), qds.end());
  QdttModel model(bands, qds);
  for (const Triple& t : triples) {
    const size_t bi = static_cast<size_t>(
        std::find(bands.begin(), bands.end(), t.band) - bands.begin());
    const size_t qi = static_cast<size_t>(
        std::find(qds.begin(), qds.end(), t.qd) - qds.begin());
    // Serialize writes an unset point as -1.
    if (t.cost >= 0) model.SetPoint(bi, qi, t.cost);
  }
  return model;
}

}  // namespace pioqo::core
