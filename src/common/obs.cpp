#include "common/obs.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/diag.hpp"
#include "common/env.hpp"

namespace dace::obs {

namespace {

/// Events a thread's ring holds before the oldest are overwritten.
constexpr size_t kBufferCap = 1 << 16;

/// One thread's ring buffer.  Only the owning thread appends; snapshot()
/// and clear() take the same mutex, so flushing while detached JIT worker
/// threads are still emitting is safe.
struct Buffer {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  size_t next = 0;        // overwrite cursor once the ring is full
  uint64_t dropped = 0;   // events that displaced an older one
  int tid = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Buffer>> buffers;
  int next_tid = 0;
  std::string trace_file;
};

// Leaked: detached compile threads and atexit handlers may still touch it
// during shutdown.
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

// -1 = env not yet consulted, 0 = off, 1 = on.
std::atomic<int> g_enabled{-1};

void write_trace_at_exit() {
  Registry& r = registry();
  std::string path;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    path = r.trace_file;
  }
  if (!path.empty() && g_enabled.load(std::memory_order_relaxed) > 0)
    write_trace(path);
}

/// First-use configuration from the environment; returns the enabled state.
int init_slow() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  int cur = g_enabled.load(std::memory_order_relaxed);
  if (cur >= 0) return cur;
  r.trace_file = env::text("DACE_TRACE_FILE");
  int on = r.trace_file.empty() ? 0 : 1;
  if (on) std::atexit(write_trace_at_exit);
  g_enabled.store(on, std::memory_order_relaxed);
  return on;
}

thread_local std::shared_ptr<Buffer> t_buf;

Buffer& local_buffer() {
  if (!t_buf) {
    auto b = std::make_shared<Buffer>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    t_buf = b;
  }
  return *t_buf;
}

void push(TraceEvent e) {
  Buffer& b = local_buffer();
  std::lock_guard<std::mutex> lk(b.mu);
  if (b.ring.size() < kBufferCap) {
    b.ring.push_back(std::move(e));
  } else {
    b.ring[b.next] = std::move(e);
    b.next = (b.next + 1) % kBufferCap;
    ++b.dropped;
  }
}

void json_escape_into(std::ostringstream& os, const std::string& s) {
  os << '"' << diag::json_escape(s) << '"';
}

void emit_event_json(std::ostringstream& os, const TraceEvent& e) {
  char num[64];
  os << "{\"ph\":\"" << (char)e.phase << "\",\"name\":";
  json_escape_into(os, e.name);
  os << ",\"cat\":";
  json_escape_into(os, e.cat);
  snprintf(num, sizeof(num), "%.3f", e.ts_us);
  os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ",\"ts\":" << num;
  if (e.phase == Phase::Complete) {
    snprintf(num, sizeof(num), "%.3f", e.dur_us);
    os << ",\"dur\":" << num;
  }
  if (e.phase == Phase::Instant) os << ",\"s\":\"t\"";
  if (e.phase == Phase::Counter) {
    snprintf(num, sizeof(num), "%g", e.value);
    os << ",\"args\":{\"value\":" << num << "}";
  } else if (!e.args.empty()) {
    os << ",\"args\":" << e.args;
  }
  os << "}";
}

}  // namespace

bool enabled() {
  int s = g_enabled.load(std::memory_order_relaxed);
  if (s >= 0) return s > 0;
  return init_slow() > 0;
}

void set_enabled(bool on) {
  init_slow();  // consume DACE_TRACE_FILE first
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

void complete(const char* cat, std::string name, int64_t start_ns,
              int64_t dur_ns, std::string args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::Complete;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_us = (double)start_ns / 1e3;
  e.dur_us = (double)dur_ns / 1e3;
  e.tid = local_buffer().tid;
  e.args = std::move(args);
  push(std::move(e));
}

void complete_at(const char* cat, std::string name, double ts_us,
                 double dur_us, int pid, int tid, std::string args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::Complete;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  push(std::move(e));
}

void instant(const char* cat, std::string name, std::string args) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_us = (double)now_ns() / 1e3;
  e.tid = local_buffer().tid;
  e.args = std::move(args);
  push(std::move(e));
}

void instant_at(const char* cat, std::string name, double ts_us, int pid,
                int tid, std::string args) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_us = ts_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  push(std::move(e));
}

void counter(const char* cat, std::string name, double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::Counter;
  e.name = std::move(name);
  e.cat = cat;
  e.ts_us = (double)now_ns() / 1e3;
  e.tid = local_buffer().tid;
  e.value = value;
  push(std::move(e));
}

Span::Span(const char* cat, std::string name)
    : cat_(cat), name_(std::move(name)) {
  if (!enabled()) return;
  t0_ = now_ns();
  active_ = true;
}

Span::~Span() {
  if (!active_ || !enabled()) return;
  complete(cat_, std::move(name_), t0_, now_ns() - t0_, std::move(args_));
}

std::vector<TraceEvent> snapshot() {
  Registry& r = registry();
  std::vector<std::shared_ptr<Buffer>> bufs;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    bufs = r.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->mu);
    // Chronological per buffer: [next, end) is the older half once full.
    for (size_t i = 0; i < b->ring.size(); ++i) {
      size_t idx =
          b->ring.size() == kBufferCap ? (b->next + i) % kBufferCap : i;
      out.push_back(b->ring[idx]);
    }
  }
  // Deterministic global order: per-(pid, tid) timeline, per-thread
  // emission order preserved by the stable sort within equal timestamps.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

uint64_t dropped() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  uint64_t n = 0;
  for (const auto& b : r.buffers) {
    std::lock_guard<std::mutex> blk(b->mu);
    n += b->dropped;
  }
  return n;
}

size_t event_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  size_t n = 0;
  for (const auto& b : r.buffers) {
    std::lock_guard<std::mutex> blk(b->mu);
    n += b->ring.size();
  }
  return n;
}

void clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& b : r.buffers) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->ring.clear();
    b->next = 0;
    b->dropped = 0;
  }
}

std::string to_chrome_json() {
  std::vector<TraceEvent> evs = snapshot();
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  // Process/thread naming metadata so Perfetto labels the two timelines.
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"dacepp host\"}}";
  bool have_virtual = false;
  std::vector<int> vranks;
  for (const auto& e : evs) {
    if (e.pid == 1) {
      have_virtual = true;
      if (std::find(vranks.begin(), vranks.end(), e.tid) == vranks.end())
        vranks.push_back(e.tid);
    }
  }
  if (have_virtual) {
    os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"simMPI virtual time\"}}";
    std::sort(vranks.begin(), vranks.end());
    for (int rk : vranks) {
      os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << rk
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"rank " << rk
         << "\"}}";
    }
  }
  for (const auto& e : evs) {
    os << ",\n";
    emit_event_json(os, e);
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

bool write_trace(const std::string& path) {
  std::string doc = to_chrome_json();
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  return written == doc.size();
}

}  // namespace dace::obs
