#include "trace.h"

#include <cstdio>

namespace pioqo::bench {

namespace {

constexpr int kHostPid = 1;
constexpr int kSimPid = 2;

}  // namespace

TraceLog::TraceLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

void TraceLog::HostSpan(const std::string& name, const char* layer,
                        Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back({name, layer, kHostPid, 0,
                    SecondsBetween(origin_, start) * 1e6,
                    SecondsBetween(start, end) * 1e6});
}

void TraceLog::SimSpan(const char* name, const char* layer, uint64_t query_id,
                       double start_us, double duration_us) {
  if (!enabled_) return;
  spans_.push_back({name, layer, kSimPid, query_id, start_us, duration_us});
}

bool TraceLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, "
               "\"args\": {\"name\": \"host clock\"}},\n"
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, "
               "\"args\": {\"name\": \"simulated clock (per query)\"}}",
               kHostPid, kSimPid);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
                 "\"pid\": %d, \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f",
                 s.name.c_str(), s.layer, s.pid,
                 static_cast<unsigned long long>(s.tid), s.ts_us, s.dur_us);
    if (s.pid == kSimPid) {
      std::fprintf(f, ", \"args\": {\"query\": %llu}",
                   static_cast<unsigned long long>(s.tid));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pioqo::bench
