// Metrics registry tests: counter/gauge/histogram semantics, Prometheus
// text exposition, and the DACE_METRICS=0 freeze.
#include <gtest/gtest.h>

#include "common/metrics.hpp"

namespace dace {
namespace {

TEST(Metrics, CounterSemantics) {
  auto& c = metrics::counter("dacepp_test_counter_semantics_total");
  c.reset();
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Interning: same name, same instrument.
  EXPECT_EQ(&metrics::counter("dacepp_test_counter_semantics_total"), &c);
}

TEST(Metrics, GaugeSemantics) {
  auto& g = metrics::gauge("dacepp_test_gauge_semantics");
  g.reset();
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(Metrics, HistogramBuckets) {
  EXPECT_EQ(metrics::Histogram::bucket_of(0), 0);
  EXPECT_EQ(metrics::Histogram::bucket_of(1), 1);
  EXPECT_EQ(metrics::Histogram::bucket_of(2), 2);
  EXPECT_EQ(metrics::Histogram::bucket_of(3), 2);
  EXPECT_EQ(metrics::Histogram::bucket_of(4), 3);
  EXPECT_EQ(metrics::Histogram::bucket_of(~0ull),
            metrics::Histogram::kBuckets - 1);
  auto& h = metrics::histogram("dacepp_test_histogram_ns");
  h.reset();
  h.observe(1);
  h.observe(1000);
  h.observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 2001u);
  EXPECT_EQ(h.bucket(metrics::Histogram::bucket_of(1000)), 2u);
}

TEST(Metrics, ExposeTextFormat) {
  auto& c = metrics::counter("dacepp_test_expose_total");
  c.reset();
  c.inc(3);
  auto& h = metrics::histogram("dacepp_test_expose_ns");
  h.reset();
  h.observe(5);
  std::string text = metrics::expose_text();
  EXPECT_NE(text.find("# TYPE dacepp_test_expose_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dacepp_test_expose_total 3"), std::string::npos);
  EXPECT_NE(text.find("dacepp_test_expose_ns_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("dacepp_test_expose_ns_sum 5"), std::string::npos);
  EXPECT_NE(text.find("dacepp_test_expose_ns_count 1"), std::string::npos);
}

TEST(Metrics, DisabledFreezesValues) {
  auto& c = metrics::counter("dacepp_test_freeze_total");
  c.reset();
  c.inc();
  metrics::set_enabled(false);
  c.inc(100);
  metrics::set_enabled(true);
  EXPECT_EQ(c.value(), 1u);
  c.inc();
  EXPECT_EQ(c.value(), 2u);
}

}  // namespace
}  // namespace dace
