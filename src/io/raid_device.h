#ifndef PIOQO_IO_RAID_DEVICE_H_
#define PIOQO_IO_RAID_DEVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "io/device.h"
#include "io/hdd_device.h"

namespace pioqo::io {

/// RAID-0 striping across member devices.
///
/// A request is split at chunk boundaries; each piece goes to member
/// (offset / chunk_bytes) % num_members and the request completes when all
/// pieces do. With independent random 4 KiB reads, queue depth spreads
/// pieces over the spindles, so throughput scales up to ~num_members — the
/// multi-spindle behaviour the paper calibrates QDTT against (Figs. 11-12).
class RaidDevice : public Device {
 public:
  /// Builds a RAID-0 array of `num_members` drives with geometry `member`.
  /// The paper's array is eight 15000 RPM spindles.
  RaidDevice(sim::Simulator& sim, int num_members, HddGeometry member,
             uint64_t chunk_bytes = 64 * 1024, std::string name = "raid");

  uint64_t capacity_bytes() const override { return capacity_bytes_; }
  std::string name() const override { return name_; }
  uint64_t chunk_bytes() const { return chunk_bytes_; }

  const HddDevice& member(int i) const { return *members_[static_cast<size_t>(i)]; }

 private:
  /// Pieces fan out to the member devices immediately, so a RAID request is
  /// beyond recall the moment it is submitted: CancelImpl keeps the base
  /// class's always-false default.
  void SubmitImpl(uint64_t id, const IoRequest& req,
                  CompletionFn done) override;

  uint64_t chunk_bytes_;
  uint64_t capacity_bytes_;
  std::string name_;
  std::vector<std::unique_ptr<HddDevice>> members_;
};

}  // namespace pioqo::io

#endif  // PIOQO_IO_RAID_DEVICE_H_
