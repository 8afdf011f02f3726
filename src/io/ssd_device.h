#ifndef PIOQO_IO_SSD_DEVICE_H_
#define PIOQO_IO_SSD_DEVICE_H_

#include <deque>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "io/degradation.h"
#include "io/device.h"

namespace pioqo::io {

/// Parameters of a simulated flash SSD.
struct SsdGeometry {
  /// Independent flash units (channels x dies); a 4 KiB stripe maps to unit
  /// (offset / stripe_bytes) % num_units.
  int num_units = 128;
  /// Command slots the controller services concurrently (NCQ depth). This
  /// caps the *beneficial* host queue depth: beyond it, commands wait in an
  /// admission queue (the paper's SSD stops improving at QD 32).
  int ncq_slots = 32;
  /// Flash array read + on-die transfer for one stripe.
  double unit_read_us = 140.0;
  /// Program time for one stripe (writes are slower on flash).
  double unit_write_us = 400.0;
  /// Host interface (PCIe) bandwidth; a shared serial resource.
  /// 1 byte/us == 1 MB/s.
  double bus_mb_per_s = 1500.0;
  /// Fixed per-command controller overhead.
  double controller_overhead_us = 6.0;
  uint64_t stripe_bytes = 4096;
  uint64_t capacity_bytes = 64ULL * 1024 * 1024 * 1024;  // 64 GiB

  /// FTL logical-to-physical map cache: the LBA space is divided into
  /// segments of `ftl_segment_bytes`; the controller caches the map for
  /// `ftl_cache_segments` segments (LRU). A miss adds `ftl_miss_us` to the
  /// command. This is the physical mechanism behind the *band size* effect
  /// the paper observes on SSDs (Sec. 4.2: "in many modern solid state
  /// drives the band size is still an important parameter").
  uint64_t ftl_segment_bytes = 4ULL * 1024 * 1024;
  int ftl_cache_segments = 256;  // covers 1 GiB of LBA space
  double ftl_miss_us = 30.0;

  /// Controller readahead: a read starting exactly where the previous read
  /// ended is served from the readahead buffer — it skips the flash units
  /// and only pays this overhead plus host-bus transfer time. This is why
  /// real SSDs stream small sequential reads at hundreds of MB/s even at
  /// queue depth 1 (and why a DTT band size of 1 is "sequential" and cheap).
  double readahead_hit_us = 6.0;

  /// A consumer PCIe SSD like the paper's (~1.5 GB/s sequential, ~200K IOPS
  /// random read at QD 32, max beneficial queue depth 32).
  static SsdGeometry ConsumerPcie();
};

/// Flash SSD with internal parallelism.
///
/// A command is admitted into one of `ncq_slots` controller slots (FIFO
/// admission beyond that), split into stripe-sized chunks that are serviced
/// in parallel by the flash units (each unit is a serial FIFO server), and
/// each chunk then crosses the shared host bus (serial). The command
/// completes when its last chunk has crossed the bus.
///
/// Consequences, matching the paper's measurements:
///  * random 4 KiB reads scale nearly linearly with queue depth up to
///    ncq_slots, then flatten (Fig. 1);
///  * large sequential block reads engage many units at once and approach
///    the bus bandwidth even at low queue depth;
///  * a larger band size spans more FTL segments than the map cache holds,
///    adding a per-command penalty whose *relative* weight shrinks as queue
///    depth grows (Fig. 7).
class SsdDevice : public Device {
 public:
  SsdDevice(sim::Simulator& sim, SsdGeometry geometry, std::string name = "ssd");

  uint64_t capacity_bytes() const override { return geometry_.capacity_bytes; }
  std::string name() const override { return name_; }
  const SsdGeometry& geometry() const { return geometry_; }

  /// FTL map-cache hit ratio since construction (for tests/diagnostics).
  double FtlHitRatio() const;

  /// Installs scripted wear/thermal-throttle windows (sorted or not; looked
  /// up by simulated time per admitted command). While a phase is active,
  /// flash service time is scaled by its latency multiplier and chunk
  /// striping collapses onto num_units / unit_divisor channels. An empty
  /// schedule (the default) changes nothing — service times, event counts
  /// and trace hashes stay bit-identical.
  void SetThrottleSchedule(SsdThrottleSchedule schedule) {
    throttle_schedule_ = std::move(schedule);
  }

  /// The throttle phase covering the current simulated instant, if any.
  const SsdThrottlePhase* ActiveThrottlePhase() const;
  bool throttled() const { return ActiveThrottlePhase() != nullptr; }

 private:
  struct Command {
    uint64_t id;
    IoRequest req;
    CompletionFn done;
    int chunks_remaining = 0;
  };
  using CommandIt = std::list<Command>::iterator;
  struct Chunk {
    CommandIt command;
    uint32_t bytes;
    double extra_us;  // per-command overheads charged on the first chunk
  };

  void SubmitImpl(uint64_t id, const IoRequest& req,
                  CompletionFn done) override;
  /// A command still waiting for an NCQ slot in the admission queue can be
  /// dropped; one the controller already admitted cannot.
  bool CancelImpl(uint64_t id) override;
  void Admit(CommandIt cmd);
  void UnitMaybeStart(int unit);
  void BusMaybeStart();
  void FinishChunk(CommandIt cmd);
  /// Returns the FTL penalty for a command touching `offset` and updates
  /// the map cache LRU.
  double FtlAccess(uint64_t offset);

  SsdGeometry geometry_;
  std::string name_;

  /// Every command accepted and not yet completed or cancelled. List nodes
  /// never move, so the admission queue and chunks refer to commands by
  /// iterator; tearing the device down mid-flight destroys the unfired
  /// completions with the list.
  std::list<Command> commands_;
  int active_commands_ = 0;
  std::deque<CommandIt> admission_queue_;

  std::vector<std::deque<Chunk>> unit_queues_;
  std::vector<bool> unit_busy_;

  SsdThrottleSchedule throttle_schedule_;

  std::deque<Chunk> bus_queue_;
  bool bus_busy_ = false;
  uint64_t last_read_end_ = UINT64_MAX;  // readahead detection

  // FTL map cache: segment id -> position in LRU list (front = most recent).
  // Mix-hashed (segment ids are sequential under streaming reads) and
  // pre-sized to the cache capacity, so lookups never rehash.
  std::list<uint64_t> ftl_lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator, IntHash>
      ftl_index_;
  uint64_t ftl_hits_ = 0;
  uint64_t ftl_misses_ = 0;
};

}  // namespace pioqo::io

#endif  // PIOQO_IO_SSD_DEVICE_H_
