#include "io/raid_device.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace pioqo::io {

RaidDevice::RaidDevice(sim::Simulator& sim, int num_members, HddGeometry member,
                       uint64_t chunk_bytes, std::string name)
    : Device(sim),
      chunk_bytes_(chunk_bytes),
      capacity_bytes_(member.capacity_bytes * static_cast<uint64_t>(num_members)),
      name_(std::move(name)) {
  PIOQO_CHECK(num_members >= 1);
  PIOQO_CHECK(chunk_bytes_ >= 512);
  members_.reserve(static_cast<size_t>(num_members));
  for (int i = 0; i < num_members; ++i) {
    members_.push_back(std::make_unique<HddDevice>(
        sim, member, name_ + "-member" + std::to_string(i)));
  }
}

void RaidDevice::ScheduleDegradation(const RaidDegradationSchedule& schedule) {
  // A disabled schedule (fail_at_us < 0) is a no-op: no event is armed and
  // the trace stays bit-identical to never calling this at all.
  if (!schedule.enabled()) return;
  PIOQO_CHECK(!degradation_armed_) << "degradation scheduled twice";
  PIOQO_CHECK(members_.size() >= 2)
      << "reconstruction needs at least one surviving member";
  PIOQO_CHECK(schedule.failed_member < num_members());
  degradation_armed_ = true;
  schedule_ = schedule;
  sim_.ScheduleAfter(std::max(0.0, schedule_.fail_at_us - sim_.Now()),
                     [this] { OnSpindleLoss(); });
}

double RaidDevice::rebuild_progress() const {
  if (rebuild_chunks_total_ == 0) return 0.0;
  return static_cast<double>(rebuild_chunks_done_) /
         static_cast<double>(rebuild_chunks_total_);
}

void RaidDevice::OnSpindleLoss() {
  degraded_ = true;
  if (schedule_.failed_member >= 0) {
    failed_member_ = schedule_.failed_member;
  } else {
    Pcg32 rng(schedule_.seed);
    failed_member_ =
        static_cast<int>(rng.UniformBelow(static_cast<uint64_t>(num_members())));
  }
  stats().RecordRegimeTransition();
  if (!schedule_.rebuild) return;
  const uint64_t member_capacity = members_[0]->capacity_bytes();
  const uint64_t extent = std::min(schedule_.rebuild_bytes, member_capacity);
  rebuild_chunks_total_ =
      std::max<uint64_t>(1, (extent + chunk_bytes_ - 1) / chunk_bytes_);
  rebuild_chunks_done_ = 0;
  RebuildStep();
}

void RaidDevice::RebuildStep() {
  PIOQO_CHECK(degraded_ && failed_member_ >= 0);
  const uint64_t offset = rebuild_chunks_done_ * chunk_bytes_;
  const uint32_t bytes = static_cast<uint32_t>(
      std::min<uint64_t>(chunk_bytes_, members_[0]->capacity_bytes() - offset));
  stats().RecordRebuildChunk();

  // Stage 1: read the reconstruction set from every survivor. Stage 2: once
  // the last survivor read lands, rewrite the replacement spindle. The
  // member queues are shared with foreground traffic, which is exactly the
  // contention a real rebuild causes.
  struct Stage {
    RaidDevice* raid;
    int remaining;
    uint64_t offset;
    uint32_t bytes;
  };
  auto stage = std::make_shared<Stage>(
      Stage{this, num_members() - 1, offset, bytes});
  for (int m = 0; m < num_members(); ++m) {
    if (m == failed_member_) continue;
    members_[static_cast<size_t>(m)]->Submit(
        IoRequest{IoRequest::Kind::kRead, offset, bytes},
        [stage](const IoResult&) {
          if (--stage->remaining > 0) return;
          RaidDevice* raid = stage->raid;
          raid->members_[static_cast<size_t>(raid->failed_member_)]->Submit(
              IoRequest{IoRequest::Kind::kWrite, stage->offset, stage->bytes},
              [raid](const IoResult&) {
                ++raid->rebuild_chunks_done_;
                if (raid->rebuild_chunks_done_ >= raid->rebuild_chunks_total_) {
                  raid->OnRebuildComplete();
                } else {
                  raid->sim_.ScheduleAfter(
                      raid->schedule_.rebuild_interval_us,
                      [raid] { raid->RebuildStep(); });
                }
              });
        });
  }
}

void RaidDevice::OnRebuildComplete() {
  degraded_ = false;
  failed_member_ = -1;
  stats().RecordRegimeTransition();
}

void RaidDevice::SubmitImpl(uint64_t id, const IoRequest& req,
                            CompletionFn done) {
  (void)id;
  // Split at chunk boundaries and fan out to members. The shared counter
  // fires the completion when the last piece lands; if any member piece
  // fails, the request as a whole fails with the first member error.
  struct Join {
    int remaining = 0;
    Status first_error;
    CompletionFn done;
  };
  auto join = std::make_shared<Join>();
  join->done = std::move(done);

  uint64_t offset = req.offset;
  uint64_t left = req.length;
  struct Piece {
    int member;
    uint64_t member_offset;
    uint32_t bytes;
  };
  std::vector<Piece> pieces;
  while (left > 0) {
    const uint64_t chunk_index = offset / chunk_bytes_;
    const uint64_t chunk_end = (chunk_index + 1) * chunk_bytes_;
    const uint32_t bytes =
        static_cast<uint32_t>(std::min<uint64_t>(left, chunk_end - offset));
    const int member = static_cast<int>(chunk_index % members_.size());
    // Member LBA: consecutive chunks of this member pack contiguously.
    const uint64_t member_chunk = chunk_index / members_.size();
    const uint64_t member_offset =
        member_chunk * chunk_bytes_ + (offset % chunk_bytes_);
    pieces.push_back(Piece{member, member_offset, bytes});
    offset += bytes;
    left -= bytes;
  }
  // Degraded pieces are served by reconstruction from every survivor, so
  // they contribute one completion per survivor to the join.
  int total = 0;
  for (const Piece& p : pieces) {
    total += (degraded_ && p.member == failed_member_) ? num_members() - 1 : 1;
  }
  join->remaining = total;
  auto on_piece = [join](const IoResult& piece_result) {
    if (!piece_result.ok() && join->first_error.ok()) {
      join->first_error = piece_result.status;
    }
    if (--join->remaining == 0) {
      join->done(IoResult{join->first_error, 0.0});
    }
  };
  for (const Piece& p : pieces) {
    if (degraded_ && p.member == failed_member_) {
      // The lost spindle's stripe chunk is reconstructed from the parity
      // row: the same-size range is read from every surviving member
      // (writes update the survivors' parity the same way).
      if (req.kind == IoRequest::Kind::kRead) stats().RecordReconstructedRead();
      for (int m = 0; m < num_members(); ++m) {
        if (m == failed_member_) continue;
        members_[static_cast<size_t>(m)]->Submit(
            IoRequest{req.kind, p.member_offset, p.bytes}, on_piece);
      }
      continue;
    }
    members_[static_cast<size_t>(p.member)]->Submit(
        IoRequest{req.kind, p.member_offset, p.bytes}, on_piece);
  }
}

}  // namespace pioqo::io
