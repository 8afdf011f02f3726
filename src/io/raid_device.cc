#include "io/raid_device.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"

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

void RaidDevice::SubmitImpl(uint64_t id, const IoRequest& req,
                            CompletionFn done) {
  (void)id;
  // Split at chunk boundaries and fan out to members. The shared counter
  // fires the completion when the last piece lands; if any member piece
  // fails, the request as a whole fails with the first member error.
  struct Join {
    uint64_t remaining = 0;
    Status first_error;
    CompletionFn done;
  };
  auto join = std::make_shared<Join>();
  join->done = std::move(done);
  // One piece per chunk the request spans (Device::Submit rejected
  // zero-length requests before they got here).
  join->remaining = (req.offset + req.length - 1) / chunk_bytes_ -
                    req.offset / chunk_bytes_ + 1;
  auto on_piece = [join](const IoResult& piece_result) {
    if (!piece_result.ok() && join->first_error.ok()) {
      join->first_error = piece_result.status;
    }
    if (--join->remaining == 0) {
      join->done(IoResult{join->first_error, 0.0});
    }
  };
  uint64_t offset = req.offset;
  uint64_t left = req.length;
  while (left > 0) {
    const uint64_t chunk_index = offset / chunk_bytes_;
    const uint64_t chunk_end = (chunk_index + 1) * chunk_bytes_;
    const uint32_t bytes =
        static_cast<uint32_t>(std::min<uint64_t>(left, chunk_end - offset));
    // Member LBA: consecutive chunks of this member pack contiguously.
    const uint64_t member_chunk = chunk_index / members_.size();
    const uint64_t member_offset =
        member_chunk * chunk_bytes_ + (offset % chunk_bytes_);
    members_[chunk_index % members_.size()]->Submit(
        IoRequest{req.kind, member_offset, bytes}, on_piece);
    offset += bytes;
    left -= bytes;
  }
}

}  // namespace pioqo::io
