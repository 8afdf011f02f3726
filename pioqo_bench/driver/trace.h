#ifndef PIOQO_BENCH_DRIVER_TRACE_H_
#define PIOQO_BENCH_DRIVER_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics.h"

namespace pioqo::bench {

/// Spans the benchmark records around its own calls into each layer,
/// written as Chrome-trace JSON (load in chrome://tracing or Perfetto).
///
/// Two clocks, two processes in the trace: pid 1 holds host-clock spans
/// (how long the engine took to replay), pid 2 holds simulated-clock spans
/// per query (where the query's modelled time went), one thread per query
/// id. Spans are kept in memory and written once at exit. A disabled log
/// records nothing, so untraced runs pay only a branch per span.
class TraceLog {
 public:
  explicit TraceLog(bool enabled);

  bool enabled() const { return enabled_; }

  /// Host-clock span; `layer` is the module the call went into.
  void HostSpan(const std::string& name, const char* layer,
                Clock::time_point start, Clock::time_point end);

  /// Simulated-clock span of query `query_id`, times in microseconds.
  void SimSpan(const char* name, const char* layer, uint64_t query_id,
               double start_us, double duration_us);

  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* layer;
    int pid;
    uint64_t tid;
    double ts_us;
    double dur_us;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Records a host-clock span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(TraceLog& log, std::string name, const char* layer)
      : log_(log), name_(std::move(name)), layer_(layer),
        start_(Clock::now()) {}
  ~ScopedSpan() { log_.HostSpan(name_, layer_, start_, Clock::now()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceLog& log_;
  std::string name_;
  const char* layer_;
  Clock::time_point start_;
};

}  // namespace pioqo::bench

#endif  // PIOQO_BENCH_DRIVER_TRACE_H_
