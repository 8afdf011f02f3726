#include "io/ssd_device.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace pioqo::io {

SsdGeometry SsdGeometry::ConsumerPcie() { return SsdGeometry{}; }

SsdDevice::SsdDevice(sim::Simulator& sim, SsdGeometry geometry, std::string name)
    : Device(sim),
      geometry_(geometry),
      name_(std::move(name)),
      unit_queues_(static_cast<size_t>(geometry.num_units)),
      unit_busy_(static_cast<size_t>(geometry.num_units), false) {
  PIOQO_CHECK(geometry_.num_units >= 1);
  PIOQO_CHECK(geometry_.ncq_slots >= 1);
  PIOQO_CHECK(geometry_.stripe_bytes >= 512);
  ftl_index_.reserve(static_cast<size_t>(geometry_.ftl_cache_segments) + 1);
}

SsdDevice::~SsdDevice() {
  // Commands still awaiting admission at teardown (scenario abandoned
  // mid-flight) are reclaimed; their completions never fire.
  for (Command* cmd : admission_queue_) delete cmd;
}

double SsdDevice::FtlHitRatio() const {
  uint64_t total = ftl_hits_ + ftl_misses_;
  return total == 0 ? 1.0 : static_cast<double>(ftl_hits_) / static_cast<double>(total);
}

double SsdDevice::FtlAccess(uint64_t offset) {
  const uint64_t segment = offset / geometry_.ftl_segment_bytes;
  auto it = ftl_index_.find(segment);
  if (it != ftl_index_.end()) {
    ++ftl_hits_;
    ftl_lru_.splice(ftl_lru_.begin(), ftl_lru_, it->second);
    return 0.0;
  }
  ++ftl_misses_;
  ftl_lru_.push_front(segment);
  ftl_index_[segment] = ftl_lru_.begin();
  if (ftl_index_.size() > static_cast<size_t>(geometry_.ftl_cache_segments)) {
    ftl_index_.erase(ftl_lru_.back());
    ftl_lru_.pop_back();
  }
  return geometry_.ftl_miss_us;
}

const SsdThrottlePhase* SsdDevice::ActiveThrottlePhase() const {
  const double now = sim_.Now();
  for (const SsdThrottlePhase& phase : throttle_schedule_) {
    if (phase.active_at(now)) return &phase;
  }
  return nullptr;
}

void SsdDevice::SubmitImpl(uint64_t id, const IoRequest& req,
                           CompletionFn done) {
  auto* cmd = new Command{id, req, std::move(done), 0};
  if (active_commands_ < geometry_.ncq_slots) {
    Admit(cmd);
  } else {
    admission_queue_.push_back(cmd);
  }
}

bool SsdDevice::CancelImpl(uint64_t id) {
  for (auto it = admission_queue_.begin(); it != admission_queue_.end(); ++it) {
    if ((*it)->id == id) {
      delete *it;  // destroys the unfired completion with it
      admission_queue_.erase(it);
      return true;
    }
  }
  return false;
}

void SsdDevice::Admit(Command* cmd) {
  ++active_commands_;
  // Wear/thermal throttling: while a phase is active the admitted command
  // stripes over fewer effective channels (refresh traffic takes dies out
  // of rotation); flash-time scaling is applied at unit-service start.
  const SsdThrottlePhase* phase = ActiveThrottlePhase();
  if (phase != nullptr) stats().RecordThrottledCommand();
  const int n_eff =
      phase == nullptr ? geometry_.num_units
                       : std::max(1, geometry_.num_units /
                                         std::max(1, phase->unit_divisor));
  const bool is_read = cmd->req.kind == IoRequest::Kind::kRead;
  const bool readahead_hit = is_read && cmd->req.offset == last_read_end_;
  if (is_read) last_read_end_ = cmd->req.offset + cmd->req.length;
  if (readahead_hit) {
    // Sequential continuation: data is already in the controller's
    // readahead buffer; only the host bus transfer remains.
    cmd->chunks_remaining = 1;
    bus_queue_.push_back(Chunk{cmd, cmd->req.length, geometry_.readahead_hit_us});
    BusMaybeStart();
    return;
  }
  // Per-command overheads (controller + FTL map lookup) are charged on the
  // command's first chunk.
  double extra = geometry_.controller_overhead_us + FtlAccess(cmd->req.offset);

  // Split into stripe-aligned chunks, each handled by its flash unit.
  uint64_t offset = cmd->req.offset;
  uint64_t remaining = cmd->req.length;
  bool first = true;
  while (remaining > 0) {
    const uint64_t stripe_end =
        (offset / geometry_.stripe_bytes + 1) * geometry_.stripe_bytes;
    const uint32_t bytes =
        static_cast<uint32_t>(std::min<uint64_t>(remaining, stripe_end - offset));
    const int unit = static_cast<int>((offset / geometry_.stripe_bytes) %
                                      static_cast<uint64_t>(n_eff));
    ++cmd->chunks_remaining;
    unit_queues_[static_cast<size_t>(unit)].push_back(
        Chunk{cmd, bytes, first ? extra : 0.0});
    first = false;
    offset += bytes;
    remaining -= bytes;
  }
  // Kick only the units this command actually queued chunks on. Any other
  // unit with a non-empty queue is necessarily busy (units re-kick
  // themselves on chunk completion), so kicking it would be a no-op — and
  // the command's chunks land on consecutive units mod N starting at
  // `start`. Visiting the touched range in ascending *numeric* order
  // (wrapped low segment first) reproduces the former kick-everything
  // 0..N-1 loop's ScheduleAfter call order exactly, which keeps event
  // sequence numbers — and therefore the golden trace hashes — unchanged.
  const int n = n_eff;
  const int chunks = cmd->chunks_remaining;
  const int start = static_cast<int>((cmd->req.offset / geometry_.stripe_bytes) %
                                     static_cast<uint64_t>(n));
  if (chunks >= n) {
    for (int u = 0; u < n; ++u) UnitMaybeStart(u);
  } else if (start + chunks <= n) {
    for (int u = start; u < start + chunks; ++u) UnitMaybeStart(u);
  } else {
    for (int u = 0; u < start + chunks - n; ++u) UnitMaybeStart(u);
    for (int u = start; u < n; ++u) UnitMaybeStart(u);
  }
}

void SsdDevice::UnitMaybeStart(int unit) {
  const auto u = static_cast<size_t>(unit);
  if (unit_busy_[u] || unit_queues_[u].empty()) return;
  unit_busy_[u] = true;
  Chunk chunk = unit_queues_[u].front();
  unit_queues_[u].pop_front();
  const bool is_read = chunk.command->req.kind == IoRequest::Kind::kRead;
  double flash_us =
      (is_read ? geometry_.unit_read_us : geometry_.unit_write_us) *
      (static_cast<double>(chunk.bytes) /
       static_cast<double>(geometry_.stripe_bytes));
  // Thermal throttling lowers the NAND interface clock: scale the flash
  // service time of chunks that *start* inside an active phase.
  if (const SsdThrottlePhase* phase = ActiveThrottlePhase()) {
    flash_us *= phase->latency_multiplier;
  }
  sim_.ScheduleAfter(flash_us + chunk.extra_us, [this, unit, chunk] {
    unit_busy_[static_cast<size_t>(unit)] = false;
    // extra_us was paid at the unit; don't charge it again on the bus.
    bus_queue_.push_back(Chunk{chunk.command, chunk.bytes, 0.0});
    BusMaybeStart();
    UnitMaybeStart(unit);
  });
}

void SsdDevice::BusMaybeStart() {
  if (bus_busy_ || bus_queue_.empty()) return;
  bus_busy_ = true;
  Chunk chunk = bus_queue_.front();
  bus_queue_.pop_front();
  const double bus_us = chunk.extra_us + static_cast<double>(chunk.bytes) /
                                             geometry_.bus_mb_per_s;
  sim_.ScheduleAfter(bus_us, [this, chunk] {
    bus_busy_ = false;
    FinishChunk(chunk.command);
    BusMaybeStart();
  });
}

void SsdDevice::FinishChunk(Command* cmd) {
  if (--cmd->chunks_remaining > 0) return;
  --active_commands_;
  // Admit the next waiting command before completing this one, so a caller
  // that immediately resubmits queues fairly behind earlier arrivals.
  if (!admission_queue_.empty() && active_commands_ < geometry_.ncq_slots) {
    Command* next = admission_queue_.front();
    admission_queue_.pop_front();
    Admit(next);
  }
  CompletionFn done = std::move(cmd->done);
  delete cmd;
  done(IoResult{});
}

}  // namespace pioqo::io
