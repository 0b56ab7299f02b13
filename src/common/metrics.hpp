// Live metrics registry: always-on, lock-free counters, gauges and
// log2-bucket histograms.  Tiering (JIT compiles / cache hits), the
// artifact cache and the fault shims count here and nowhere else; the
// serve daemon also keeps per-daemon ServeStats (serve/server.hpp).
//
// An event is one relaxed fetch_add -- no locks, no allocation.
// Instruments are interned by name on first use (the only mutex in the
// layer guards registration); call sites cache the returned reference in
// a function-local static via the METRIC_* macros, so the registry lookup
// happens once per site, not once per event.
//
// Exposition is Prometheus text format (expose_text()), served three
// ways: the DSRV `Metrics` verb on sdfg-serve (`sdfg-client --metrics`),
// `sdfg-cache stat --json` (cache counters), and `sdfg-prof --metrics`
// (offline, derived from a trace).  Unlike obs:: tracing, metrics are
// always on: they are cheap enough to leave running in production.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace dace::metrics {

/// Monotonic event counter.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depths, sizes).
class Gauge {
 public:
  void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucket histogram: observe(v) lands in bucket bit_width(v), so
/// bucket i counts values in [2^(i-1), 2^i).  64 buckets cover the full
/// uint64 range with zero configuration -- the right trade for latency
/// distributions where only the order of magnitude matters.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bucket i: values < 2^i; [64]=rest

  void observe(uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Bucket index of a value: number of significant bits (0 for v==0).
  static int bucket_of(uint64_t v) {
    int b = 0;
    while (v) {
      ++b;
      v >>= 1;
    }
    return b < kBuckets ? b : kBuckets - 1;
  }
  /// Upper bound of bucket i (inclusive): 2^i - 1.
  static uint64_t bucket_bound(int i) {
    return i >= 64 ? ~0ull : (1ull << i) - 1;
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

// -- registry ----------------------------------------------------------------
// Instruments live for the process lifetime (the registry leaks by
// design, like the obs:: buffers: sdfg-serve's abandoned job threads may
// bump counters during shutdown).  Names follow Prometheus conventions:
// dacepp_<subsystem>_<what>_total for counters.

Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Prometheus text exposition of every registered instrument, sorted by
/// name: "# TYPE name kind" then "name value" (histograms expand into
/// cumulative _bucket{le="..."} series plus _sum and _count).
std::string expose_text();

/// Zero every registered instrument (tests).  Registration survives.
void reset_for_testing();

}  // namespace dace::metrics

// -- macro API ---------------------------------------------------------------
// The registry lookup is cached in a function-local static, so each call
// site pays one mutex acquisition ever; after that an event costs one
// relaxed fetch_add.
#define METRIC_INC(name)                                              \
  do {                                                                \
    static ::dace::metrics::Counter& dace_metric_c_ =                 \
        ::dace::metrics::counter(name);                               \
    dace_metric_c_.inc();                                             \
  } while (0)
#define METRIC_ADD(name, n)                                           \
  do {                                                                \
    static ::dace::metrics::Counter& dace_metric_c_ =                 \
        ::dace::metrics::counter(name);                               \
    dace_metric_c_.inc((uint64_t)(n));                                \
  } while (0)
#define METRIC_GAUGE_SET(name, v)                                     \
  do {                                                                \
    static ::dace::metrics::Gauge& dace_metric_g_ =                   \
        ::dace::metrics::gauge(name);                                 \
    dace_metric_g_.set((int64_t)(v));                                 \
  } while (0)
#define METRIC_OBSERVE(name, v)                                       \
  do {                                                                \
    static ::dace::metrics::Histogram& dace_metric_h_ =               \
        ::dace::metrics::histogram(name);                             \
    dace_metric_h_.observe((uint64_t)(v));                            \
  } while (0)
