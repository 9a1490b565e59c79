// Span recorder for the traced run.
//
// The benchmark wraps every call it makes into one of the system's modules
// (VirtualTable, DataServicePlan, StormCluster, PlanCache, QueryClient,
// DistCoordinator, ...) in a span: name, start, end, parent span and query
// id.  Spans stay in memory and are written out when the run ends.  The
// per-layer numbers are self times: a span's duration minus the part its
// children cover.
//
// Some work happens where the benchmark cannot put a clock around it (the
// server's queue wait and run time, a daemon's busy time, the sum of many
// tiny chunk-filter calls).  Those are recorded as *derived* spans: the
// duration is measured (by the program or by the benchmark's decorator),
// the position inside the parent is not, so a derived span starts at its
// parent's start.  Self-time arithmetic only needs durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace advbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span {
  const char* name = "";  // a string literal
  int parent = -1;       // index into the same tracer, -1 = root
  uint64_t query_id = 0;  // 0 = not part of a query (set-up)
  double start = 0;      // seconds since the tracer's origin
  double end = 0;
  bool derived = false;

  double duration() const { return end - start; }
};

// One tracer per calling thread; append() gathers them at the end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin = Clock::now())
      : origin_(origin) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span and returns its index (-1 when tracing is off).
  int begin(const char* name, int parent, uint64_t query_id) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, query_id, seconds_since(origin_), 0,
                      false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end =
        seconds_since(origin_);
  }
  // A child whose duration was measured elsewhere (see file comment).
  void derived(const char* name, int parent, double seconds) {
    if (parent < 0) return;
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back({name, parent, p.query_id, p.start, p.start + seconds,
                      true});
  }

  const std::vector<Span>& spans() const { return spans_; }

  void append(const Tracer& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// RAII span; a no-op when tracing is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent, uint64_t query_id)
      : t_(t), id_(t.begin(name, parent, query_id)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

struct SelfTimes {
  std::map<std::string, double> self_seconds;  // by span name
  double root_seconds = 0;        // Σ duration of root spans
  double unattributed_seconds = 0;  // Σ self time of root spans
};

inline SelfTimes self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] +=
        s.duration();
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = s.duration() - child[i];
    out.self_seconds[s.name] += self;
    if (s.parent < 0 && s.query_id != 0) {
      out.root_seconds += s.duration();
      out.unattributed_seconds += self;
    }
  }
  return out;
}

// JSON lines: one span per line.
inline void write_spans(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"query\":%llu,"
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"derived\":%s}\n",
                 i, s.name, s.parent,
                 static_cast<unsigned long long>(s.query_id), s.start, s.end,
                 s.derived ? "true" : "false");
  }
  std::fclose(f);
}

}  // namespace advbench
