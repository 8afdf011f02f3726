#include "sim/sim_checks.h"

#if PIOQO_SIM_CHECKS

#include <cstdint>
#include <unordered_map>

#include "common/logging.h"

namespace pioqo::sim::checks {
namespace {

struct FrameInfo {
  bool live = false;     // created and not yet destroyed
  bool counted = false;  // registered via OnFrameCreated (vs. seen ad hoc)
  int32_t pending = 0;   // scheduled resumes not yet delivered
  int32_t waiting = 0;   // wait queues holding this frame
};

struct Registry {
  // Keyed by frame address. Entries for destroyed frames are kept (live ==
  // false) so a late resume of a dead frame is still recognized; address
  // reuse resets the entry in OnFrameCreated. Iteration order never feeds
  // event ordering — the map is only probed point-wise, and the counters
  // below are maintained incrementally.
  std::unordered_map<void*, FrameInfo> frames;
  size_t live_frames = 0;
  size_t pending_resumes = 0;
  bool enabled = true;
};

Registry& Reg() {
  thread_local Registry registry;
  return registry;
}

}  // namespace

bool Enabled() { return Reg().enabled; }
void SetEnabled(bool enabled) { Reg().enabled = enabled; }

void OnFrameCreated(void* frame) {
  Registry& reg = Reg();
  if (!reg.enabled) return;
  FrameInfo& info = reg.frames[frame];
  PIOQO_CHECK(!info.live) << "sim_checks: coroutine frame " << frame
                          << " created twice without destruction";
  // A dead entry at the same address means the allocator reused the frame
  // memory; start fresh.
  info = FrameInfo{};
  info.live = true;
  info.counted = true;
  ++reg.live_frames;
}

void OnFrameDestroyed(void* frame) {
  Registry& reg = Reg();
  if (!reg.enabled) return;
  auto it = reg.frames.find(frame);
  if (it == reg.frames.end()) return;  // created while checks were disabled
  FrameInfo& info = it->second;
  if (!info.live) return;
  PIOQO_CHECK(info.pending == 0)
      << "sim_checks: coroutine frame " << frame
      << " destroyed while a resume is still scheduled — the event queue "
         "holds a handle that would dangle";
  PIOQO_CHECK(info.waiting == 0)
      << "sim_checks: coroutine frame " << frame
      << " destroyed while registered in a sync-primitive waiter list — "
         "the primitive holds a handle that would dangle";
  info.live = false;
  if (info.counted) --reg.live_frames;
}

void OnResumeScheduled(void* frame) {
  Registry& reg = Reg();
  if (!reg.enabled) return;
  auto it = reg.frames.find(frame);
  if (it == reg.frames.end()) {
    // Frame never registered (e.g. checks were enabled mid-run, or a
    // non-Task coroutine). Track it from here on so double resumes are
    // still caught, but don't count it toward live frames.
    it = reg.frames.emplace(frame, FrameInfo{}).first;
    it->second.live = true;
  }
  FrameInfo& info = it->second;
  PIOQO_CHECK(info.live)
      << "sim_checks: scheduling resume of destroyed coroutine frame "
      << frame << " (use-after-free)";
  PIOQO_CHECK(info.pending == 0)
      << "sim_checks: double resume — frame " << frame
      << " already has a scheduled resume";
  ++info.pending;
  ++reg.pending_resumes;
}

void OnBeforeResume(void* frame) {
  Registry& reg = Reg();
  if (!reg.enabled) return;
  auto it = reg.frames.find(frame);
  if (it == reg.frames.end()) return;
  FrameInfo& info = it->second;
  PIOQO_CHECK(info.live) << "sim_checks: resuming destroyed coroutine frame "
                         << frame << " (use-after-free)";
  if (info.pending > 0) {
    --info.pending;
    --reg.pending_resumes;
  }
}

void OnWaiterRegistered(void* frame) {
  Registry& reg = Reg();
  if (!reg.enabled) return;
  FrameInfo& info = reg.frames[frame];
  if (!info.live) info.live = true;  // ad hoc tracking, as above
  ++info.waiting;
}

void OnWaiterUnregistered(void* frame) {
  Registry& reg = Reg();
  if (!reg.enabled) return;
  auto it = reg.frames.find(frame);
  if (it == reg.frames.end()) return;
  if (it->second.waiting > 0) --it->second.waiting;
}

size_t NumLiveFrames() { return Reg().live_frames; }
size_t NumPendingResumes() { return Reg().pending_resumes; }

void ExpectQuiescent(const char* context) {
  Registry& reg = Reg();
  if (!reg.enabled) return;
  PIOQO_CHECK(reg.live_frames == 0)
      << "sim_checks: " << context << ": " << reg.live_frames
      << " coroutine frame(s) still alive — leaked worker(s) suspended with "
         "nobody left to wake them";
}

void ResetForTest() {
  Registry& reg = Reg();
  reg.frames.clear();
  reg.live_frames = 0;
  reg.pending_resumes = 0;
}

}  // namespace pioqo::sim::checks

#endif  // PIOQO_SIM_CHECKS
