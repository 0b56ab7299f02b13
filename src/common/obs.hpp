// Unified tracing & instrumentation substrate (the observability layer
// every other measurement island feeds into).
//
// Events are collected into per-thread ring buffers: a thread only ever
// locks its own buffer, so tracing never serializes the traced code.  The
// *disabled* path -- the common case -- is a single relaxed atomic load,
// and the macro API below can be compiled out entirely with
// -DDACEPP_OBS_OFF (CMake: -DDACE_OBS=OFF).
//
// Three event shapes, matching the Chrome trace-event / Perfetto JSON
// format the exporter emits (load the file at ui.perfetto.dev or
// chrome://tracing):
//   span     -- a Complete event ("X"): name, start, duration
//   instant  -- a point event ("i"): something happened now
//   counter  -- a sampled value ("C") rendered as a track
//
// Two timelines coexist in one trace:
//   pid 0 -- host wall-clock (obs::now_ns(), monotonic ns since start);
//            tid is a small per-thread id assigned at first use
//   pid 1 -- simMPI *virtual* time; tid is the rank, timestamps are the
//            rank's modeled clock (distributed/simmpi.cpp stamps these)
//
// DACE_TRACE_FILE=out.json enables tracing and writes the trace at exit.
// Each thread's ring holds the latest 65536 events.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dace::obs {

enum class Phase : char { Complete = 'X', Instant = 'i', Counter = 'C' };

/// One recorded event.  Timestamps are microseconds (Chrome trace unit):
/// host events use now_ns()/1e3, virtual-time events use vtime * 1e6.
struct TraceEvent {
  Phase phase = Phase::Instant;
  std::string name;
  const char* cat = "";
  double ts_us = 0;
  double dur_us = 0;    // Complete only
  int pid = 0;          // 0 = host wall-clock, 1 = virtual rank time
  int tid = 0;
  double value = 0;     // Counter only
  std::string args;     // preformatted JSON object ("{...}") or empty
};

/// True if tracing is on.  The fast path is one relaxed atomic load; the
/// first call reads DACE_TRACE_FILE.
bool enabled();
/// Programmatic switch (tests, tools).  Reads DACE_TRACE_FILE first, so
/// the trace is still written at exit when it is set.
void set_enabled(bool on);

/// Monotonic nanoseconds since process start: the shared timer every
/// subsystem (executor, JIT, passes, bench) measures with.
int64_t now_ns();

// -- emission (all no-ops when disabled) -------------------------------------

/// Host-timeline span: start/duration in now_ns() nanoseconds.
void complete(const char* cat, std::string name, int64_t start_ns,
              int64_t dur_ns, std::string args = "");
/// Explicitly stamped span (virtual timelines; ts/dur in microseconds).
void complete_at(const char* cat, std::string name, double ts_us,
                 double dur_us, int pid, int tid, std::string args = "");
/// Host-timeline instant at now.
void instant(const char* cat, std::string name, std::string args = "");
/// Explicitly stamped instant (virtual timelines).
void instant_at(const char* cat, std::string name, double ts_us, int pid,
                int tid, std::string args = "");
/// Host-timeline counter sample.
void counter(const char* cat, std::string name, double value);

/// RAII span: records a Complete event from construction to destruction.
/// Costs one enabled() check when tracing is off.
class Span {
 public:
  Span(const char* cat, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Attach a preformatted JSON args object, emitted on close.
  void set_args(std::string args) { args_ = std::move(args); }
  bool active() const { return active_; }

 private:
  const char* cat_;
  std::string name_;
  std::string args_;
  int64_t t0_ = 0;
  bool active_ = false;
};

// -- registry / export -------------------------------------------------------

/// All recorded events in a deterministic order: sorted by (pid, tid, ts),
/// stable on per-thread emission order.  Two runs of the same deterministic
/// workload produce the same sequence modulo timestamps.
std::vector<TraceEvent> snapshot();
/// Events lost to ring-buffer overflow across all threads.
uint64_t dropped();
/// Total events currently buffered.
size_t event_count();
/// Discard all buffered events (buffers stay registered).
void clear();

/// Full Chrome trace-event JSON document ({"traceEvents": [...]}).
std::string to_chrome_json();
/// Write to_chrome_json() to `path`; false if the file cannot be written.
bool write_trace(const std::string& path);

}  // namespace dace::obs

// -- macro API ---------------------------------------------------------------
// OBS_SPAN places an RAII span covering the rest of the scope.  All macros
// compile to ((void)0) under DACEPP_OBS_OFF.
#ifndef DACEPP_OBS_OFF
#define DACE_OBS_CONCAT_(a, b) a##b
#define DACE_OBS_CONCAT(a, b) DACE_OBS_CONCAT_(a, b)
#define OBS_SPAN(cat, ...) \
  ::dace::obs::Span DACE_OBS_CONCAT(obs_span_, __LINE__)(cat, __VA_ARGS__)
#define OBS_COUNTER(cat, name, val)                              \
  do {                                                           \
    if (::dace::obs::enabled())                                  \
      ::dace::obs::counter(cat, name, (double)(val));            \
  } while (0)
#define OBS_INSTANT(cat, ...)                                    \
  do {                                                           \
    if (::dace::obs::enabled()) ::dace::obs::instant(cat, __VA_ARGS__); \
  } while (0)
#else
#define OBS_SPAN(cat, ...) ((void)0)
#define OBS_COUNTER(cat, name, val) ((void)0)
#define OBS_INSTANT(cat, ...) ((void)0)
#endif
