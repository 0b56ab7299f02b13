// Shared benchmark utilities: median-of-N timing with a nonparametric
// confidence interval (the paper reports medians of 10 runs with 95%
// nonparametric CIs, Section 3.4.1) and table formatting.
//
// Timing runs on the obs:: monotonic clock (common/obs.hpp), so bench
// spans land on the same timeline as runtime/JIT/pass spans when tracing
// is enabled (DACE_TRACE_FILE=...).  Every *named* timing additionally
// lands in a machine-readable JSON report written at process exit to
// $BENCH_JSON; with BENCH_JSON unset no report is written, and one line
// on stderr says so.  Keys are the timing names, values are median
// nanoseconds.  Writes merge into an existing report (our keys win), so
// several bench binaries run in sequence accumulate one snapshot.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/diag.hpp"
#include "common/obs.hpp"

namespace bench {

struct Timing {
  double median_s = 0;
  double ci_low = 0, ci_high = 0;  // nonparametric CI bounds
  int reps = 0;
};

/// Accumulates named timings and writes them as JSON at exit
/// ({"name": median_ns, ...}); tools and CI diff these across runs.
class JsonReport {
 public:
  static JsonReport& global() {
    // Leaked so the atexit writer can run at any point in shutdown.
    static JsonReport* r = new JsonReport();
    return *r;
  }

  void record(const std::string& name, double median_ns) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& e : entries_) {
      if (e.first == name) {
        e.second = median_ns;  // re-measured: last result wins
        return;
      }
    }
    entries_.emplace_back(name, median_ns);
  }

  void write() {
    const char* env = std::getenv("BENCH_JSON");
    std::lock_guard<std::mutex> lk(mu_);
    if (entries_.empty()) return;
    if (!env || !*env) {
      std::fprintf(stderr,
                   "bench: BENCH_JSON is unset; %zu timings not written\n",
                   entries_.size());
      return;
    }
    std::string path = env;
    // Merge-on-write: fold keys already in the file under ours, so
    // bench_serve + bench_fig7 (separate processes) share one snapshot.
    std::vector<std::pair<std::string, double>> merged;
    for (const auto& [k, v] : parse_flat(path)) {
      bool ours = false;
      for (const auto& e : entries_) {
        if (e.first == k) {
          ours = true;
          break;
        }
      }
      if (!ours) merged.emplace_back(k, v);
    }
    merged.insert(merged.end(), entries_.begin(), entries_.end());
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < merged.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.1f%s\n",
                   dace::diag::json_escape(merged[i].first).c_str(),
                   merged[i].second,
                   i + 1 < merged.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::fprintf(stderr, "bench: wrote %zu timings to %s\n", merged.size(),
                 path.c_str());
  }

 private:
  JsonReport() { std::atexit(&JsonReport::write_at_exit); }
  static void write_at_exit() { global().write(); }

  /// Best-effort read of an existing flat report ({"name": number, ...});
  /// anything unparseable yields an empty map (the write starts fresh).
  static std::vector<std::pair<std::string, double>> parse_flat(
      const std::string& path) {
    std::vector<std::pair<std::string, double>> out;
    FILE* f = std::fopen(path.c_str(), "r");
    if (!f) return out;
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    size_t pos = 0;
    auto skip_ws = [&] {
      while (pos < text.size() && std::isspace((unsigned char)text[pos]))
        ++pos;
    };
    skip_ws();
    if (pos >= text.size() || text[pos] != '{') return out;
    ++pos;
    while (true) {
      skip_ws();
      if (pos >= text.size()) return {};
      if (text[pos] == '}') return out;
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] != '"') return {};
      size_t end = text.find('"', pos + 1);
      if (end == std::string::npos) return {};
      std::string key = text.substr(pos + 1, end - pos - 1);
      pos = end + 1;
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return {};
      ++pos;
      skip_ws();
      char* numend = nullptr;
      double v = std::strtod(text.c_str() + pos, &numend);
      if (numend == text.c_str() + pos) return {};
      pos = (size_t)(numend - text.c_str());
      out.emplace_back(std::move(key), v);
    }
  }

  std::mutex mu_;
  std::vector<std::pair<std::string, double>> entries_;
};

/// Median of `reps` timed calls of `fn`.  `setup`, when given, runs
/// before every call outside the timed region (e.g. building inputs).
inline Timing time_median(const std::function<void()>& fn, int reps = 5,
                          const std::function<void()>& setup = {}) {
  std::vector<double> ts;
  for (int i = 0; i < reps; ++i) {
    if (setup) setup();
    int64_t t0 = dace::obs::now_ns();
    fn();
    ts.push_back((double)(dace::obs::now_ns() - t0) / 1e9);
  }
  std::sort(ts.begin(), ts.end());
  Timing t;
  t.reps = reps;
  t.median_s = ts[ts.size() / 2];
  t.ci_low = ts.front();
  t.ci_high = ts.back();
  return t;
}

/// Named timing: recorded into the JSON report and, when tracing is on,
/// covered by a "bench" span on the host timeline.
inline Timing time_median(const std::string& name,
                          const std::function<void()>& fn, int reps = 5,
                          const std::function<void()>& setup = {}) {
  dace::obs::Span span("bench", name);
  Timing t = time_median(fn, reps, setup);
  JsonReport::global().record(name, t.median_s * 1e9);
  return t;
}

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double acc = 0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / (double)xs.size());
}

inline std::string fmt_time(double s) {
  char buf[64];
  if (s >= 1.0) {
    snprintf(buf, sizeof(buf), "%.3f s", s);
  } else if (s >= 1e-3) {
    snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  } else {
    snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  }
  return buf;
}

}  // namespace bench
