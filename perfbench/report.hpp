// Shared plumbing of the DaCe++ benchmark: run options, pass/fail
// accounting, order statistics, and the host/build fingerprint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/executor.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;      // per-layer run (tracing on) instead of end-to-end
  bool smoke = false;      // tiny sizes and short phases (self-test)
  bool corrupt = false;    // corrupt the first checked output (self-test)
  std::string trace_file;  // optional Chrome trace of the traced run
  std::string source_id;   // commit or source digest, from the launcher
};

/// Attempted/failed accounting plus the metrics a workload measured, each
/// with its unit.  run.py checks names and units against BENCHMARK.json.
class Outcome {
 public:
  /// Count one checked operation; a failed one is logged to stderr.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// name -> (value, unit)
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// -- order statistics --------------------------------------------------------

double mean(const std::vector<double>& v);
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

// -- inputs and checks --------------------------------------------------------

/// splitmix64 step: a well-mixed 64-bit value from a seed and a salt.
uint64_t mix(uint64_t seed, uint64_t salt);

/// Small deterministic generator (splitmix64 stream).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next();
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return n ? next() % n : 0; }

 private:
  uint64_t s_;
};

/// Deep copy of every tensor (bindings are shared views).  Unlike
/// fuzz::clone_bindings, which copies element by element, it copies whole
/// buffers: 1.8 ms instead of 80-107 ms for a 1400x1200 input, which the
/// kernels workload copies every round.
dace::rt::Bindings deep_copy(const dace::rt::Bindings& b);

/// Why `got` disagrees with `want` on a listed output; "" when they agree.
std::string output_mismatch(const dace::rt::Bindings& got,
                            const dace::rt::Bindings& want,
                            const std::vector<std::string>& names);

/// Add 1.0 to the first element of `got[name]` (the oracle self-test).
void corrupt_output(dace::rt::Bindings& got, const std::string& name);

// -- host ---------------------------------------------------------------------

/// Monotonic milliseconds (the obs:: clock).
double now_ms();
/// Times one fixed unit of host work that uses no library code: string
/// and map churn through the allocator, then one durable small-file
/// write (write, fsync, rename) in the working directory -- the kinds of
/// work a compile does besides arithmetic.  Compile and serve latencies
/// are reported in units of it, which cancels host speed drift.
double yardstick_ms();
/// Peak resident set of this process in MB.
double peak_rss_mb();
/// Host, build and configuration fingerprint as one JSON object.
std::string fingerprint_json(const Options& o);
/// Bytes in all regular files below `dir` (0 if it does not exist).
uint64_t tree_bytes(const std::string& dir);
/// Value of a `name value` sample in the metrics registry exposition.
double registry_value(const std::string& exposition, const std::string& name);

}  // namespace perfbench
