#ifndef PIOQO_IO_DEVICE_H_
#define PIOQO_IO_DEVICE_H_

#include <coroutine>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/device_stats.h"
#include "io/io_request.h"
#include "sim/inline_function.h"
#include "sim/sim_checks.h"
#include "sim/simulator.h"

namespace pioqo::io {

/// One submitted request, for offline access-pattern analysis.
struct TraceEntry {
  sim::SimTime submit_time;
  IoRequest::Kind kind;
  uint64_t offset;
  uint32_t length;
};

/// Abstract simulated block device.
///
/// Subclasses (HddDevice, SsdDevice, RaidDevice, FaultInjectingDevice)
/// implement `SubmitImpl` to model service timing; the base class validates
/// requests and tracks statistics. Devices are purely *timing* models: data
/// bytes live in `storage::DiskImage`, which pairs a device with an
/// in-memory page store.
///
/// All submissions are asynchronous: the completion callback fires at the
/// simulated instant the request finishes, which is how callers (buffer
/// pool, calibrator) generate queue depth — the central quantity of the
/// paper. Completions carry an `IoResult`; a malformed request (zero length,
/// beyond capacity) completes asynchronously with `kOutOfRange` instead of
/// aborting the process.
class Device {
 public:
  /// Observes every completion delivered by this device (after stats are
  /// recorded, before the submitter's callback). Used by
  /// DeviceHealthMonitor to compare observed latencies against model
  /// predictions.
  using CompletionObserver =
      sim::InlineFunction<void(const IoRequest&, const IoResult&), 16>;

  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Submits `req`; `done` fires once at completion time with the result.
  /// Returns the request id usable with `Cancel`.
  uint64_t Submit(const IoRequest& req, CompletionFn done);

  /// Attempts to reclaim request `id` before it is serviced. Returns true
  /// if the request was dropped: its completion is guaranteed never to fire,
  /// its queue slot is released, and it is counted in
  /// `stats().cancelled_requests()`. Returns false when the request already
  /// completed or is beyond recall (actively being serviced, fanned out to
  /// RAID members); its completion — if it has one — arrives normally.
  ///
  /// Contract: only cancel a request whose completion you no longer await
  /// directly (e.g. after failing its waiters through a timeout path) —
  /// coroutines suspended in `IoAwaiter` must never have their request
  /// cancelled, as their resume would be lost with the dropped callback.
  bool Cancel(uint64_t id);

  virtual uint64_t capacity_bytes() const = 0;
  virtual std::string name() const = 0;

  DeviceStats& stats() { return stats_; }
  const DeviceStats& stats() const { return stats_; }
  sim::Simulator& simulator() { return sim_; }

  /// Directs a copy of every submitted request into `sink` (nullptr stops
  /// tracing). The sink must outlive the tracing window.
  void set_trace_sink(std::vector<TraceEntry>* sink) { trace_sink_ = sink; }

  /// Installs `observer` (nullptr uninstalls). The observer must outlive
  /// the device's in-flight requests.
  void set_completion_observer(CompletionObserver observer) {
    observer_ = std::move(observer);
  }

  /// Awaitable convenience wrapper: `Status st = co_await device.Read(...)`.
  class IoAwaiter {
   public:
    IoAwaiter(Device& device, IoRequest req) : device_(device), req_(req) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      // The resume is "scheduled" for the simulated completion instant; the
      // invariant checker flags the coroutine if it is destroyed while the
      // I/O is still in flight.
      sim::checks::OnResumeScheduled(h.address());
      device_.Submit(req_, [this, h](const IoResult& result) {
        result_ = result;
        sim::checks::OnBeforeResume(h.address());
        h.resume();
      });
    }
    Status await_resume() const noexcept { return result_.status; }

   private:
    Device& device_;
    IoRequest req_;
    IoResult result_;
  };

  IoAwaiter Read(uint64_t offset, uint32_t length) {
    return IoAwaiter(*this, IoRequest{IoRequest::Kind::kRead, offset, length});
  }

 protected:
  explicit Device(sim::Simulator& sim) : sim_(sim) {}

  /// Models the device-specific service of `req`; must eventually invoke
  /// `done` (exactly once) via the simulator with the service outcome —
  /// unless the request is reclaimed via `CancelImpl(id)` first, in which
  /// case `done` must be destroyed without being called.
  virtual void SubmitImpl(uint64_t id, const IoRequest& req,
                          CompletionFn done) = 0;

  /// Drops request `id` if this device can still guarantee its completion
  /// will never fire (e.g. it is waiting in an admission/NCQ queue). The
  /// default declines every cancellation.
  virtual bool CancelImpl(uint64_t /*id*/) { return false; }

  sim::Simulator& sim_;

 private:
  DeviceStats stats_;
  std::vector<TraceEntry>* trace_sink_ = nullptr;
  CompletionObserver observer_;
  uint64_t next_request_id_ = 1;
};

}  // namespace pioqo::io

#endif  // PIOQO_IO_DEVICE_H_
