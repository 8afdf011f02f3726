#include "io/device.h"

#include <string>
#include <utility>

#include "common/logging.h"

namespace pioqo::io {

uint64_t Device::Submit(const IoRequest& req, CompletionFn done) {
  const uint64_t id = next_request_id_++;
  const bool is_read = req.kind == IoRequest::Kind::kRead;
  const sim::SimTime submit_time = sim_.Now();
  if (trace_sink_ != nullptr) {
    trace_sink_->push_back(TraceEntry{submit_time, req.kind, req.offset, req.length});
  }
  stats_.RecordSubmit(submit_time, is_read, req.length);

  // Request validation: malformed commands complete asynchronously with
  // kOutOfRange rather than aborting, so callers exercise the same error
  // path a failing device would take.
  Status rejected;
  if (req.length == 0) {
    rejected = Status::OutOfRange("zero-length I/O on " + name());
  } else if (req.offset + req.length > capacity_bytes()) {
    rejected = Status::OutOfRange(
        "I/O beyond device capacity on " + name() +
        ": offset=" + std::to_string(req.offset) +
        " length=" + std::to_string(req.length) +
        " capacity=" + std::to_string(capacity_bytes()));
  }
  auto wrapped = [this, done = std::move(done), req,
                  submit_time](const IoResult& result) {
    IoResult out = result;
    out.latency_us = sim_.Now() - submit_time;
    stats_.RecordComplete(sim_.Now(), req.length, out.latency_us, out.ok());
    if (observer_) observer_(req, out);
    done(out);
  };
  if (!rejected.ok()) {
    sim_.ScheduleAfter(0.0, [wrapped = std::move(wrapped),
                             rejected = std::move(rejected)] {
      wrapped(IoResult{rejected, 0.0});
    });
    return id;
  }
  SubmitImpl(id, req, std::move(wrapped));
  return id;
}

bool Device::Cancel(uint64_t id) {
  if (!CancelImpl(id)) return false;
  // The subclass dropped the request (its wrapped completion — and so the
  // caller's callback — was destroyed unfired); balance the queue-slot
  // accounting that RecordSubmit opened.
  stats_.RecordCancelled(sim_.Now());
  return true;
}

}  // namespace pioqo::io
