#include "common/metrics.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace dace::metrics {

namespace {

/// Registration tables.  Leaked (instruments must outlive detached
/// threads); node-based maps keep instrument addresses stable forever.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

}  // namespace

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string expose_text() {
  // Snapshot the instrument pointers under the lock, render outside it:
  // rendering a histogram reads 65 atomics and must not hold up
  // registration on hot paths.
  std::vector<std::pair<std::string, const Counter*>> cs;
  std::vector<std::pair<std::string, const Gauge*>> gs;
  std::vector<std::pair<std::string, const Histogram*>> hs;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& [n, c] : r.counters) cs.emplace_back(n, c.get());
    for (const auto& [n, g] : r.gauges) gs.emplace_back(n, g.get());
    for (const auto& [n, h] : r.histograms) hs.emplace_back(n, h.get());
  }
  std::ostringstream os;
  for (const auto& [n, c] : cs) {
    os << "# TYPE " << n << " counter\n"
       << n << " " << c->value() << "\n";
  }
  for (const auto& [n, g] : gs) {
    os << "# TYPE " << n << " gauge\n"
       << n << " " << g->value() << "\n";
  }
  char bound[32];
  for (const auto& [n, h] : hs) {
    os << "# TYPE " << n << " histogram\n";
    // Cumulative buckets, emitted up to the highest occupied one; the
    // +Inf bucket always closes the series (Prometheus requires it).
    int hi = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h->bucket(i)) hi = i;
    }
    uint64_t cum = 0;
    for (int i = 0; i <= hi && i < Histogram::kBuckets - 1; ++i) {
      cum += h->bucket(i);
      snprintf(bound, sizeof(bound), "%llu",
               (unsigned long long)Histogram::bucket_bound(i));
      os << n << "_bucket{le=\"" << bound << "\"} " << cum << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << h->count() << "\n"
       << n << "_sum " << h->sum() << "\n"
       << n << "_count " << h->count() << "\n";
  }
  return os.str();
}

void reset_for_testing() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& [n, c] : r.counters) c->reset();
  for (auto& [n, g] : r.gauges) g->reset();
  for (auto& [n, h] : r.histograms) h->reset();
}

}  // namespace dace::metrics
