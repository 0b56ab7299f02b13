// Observability layer tests: the obs:: event substrate, per-node SDFG
// instrumentation, the tiering non-perturbation guarantee, the simMPI
// virtual timeline, and trace determinism.  These back the guarantees
// documented in docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/env.hpp"
#include "common/obs.hpp"
#include "distributed/simmpi.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/executor.hpp"
#include "runtime/instrumentation.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

using kernels::Kernel;
using rt::Bindings;

/// First top-level map entry of the SDFG, or -1.
int find_top_map(const ir::SDFG& sdfg, int* state_id) {
  for (int s : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(s);
    for (int id : st.node_ids()) {
      if (st.node(id)->kind == ir::NodeKind::MapEntry &&
          st.scope_of(id) == -1) {
        *state_id = s;
        return id;
      }
    }
  }
  return -1;
}

/// Tracing on with a clean buffer for the test body; off (and clean)
/// afterwards so the global switch never leaks into other suites.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::clear();
  }
  void TearDown() override {
    obs::clear();
    obs::set_enabled(false);
  }
};

std::vector<obs::TraceEvent> events_in(const char* cat) {
  std::vector<obs::TraceEvent> out;
  for (auto& e : obs::snapshot())
    if (std::string(e.cat) == cat) out.push_back(e);
  return out;
}

// ---------------------------------------------------------------------------
// Core substrate.
// ---------------------------------------------------------------------------

TEST(ObsCore, DisabledPathRecordsNothing) {
  obs::set_enabled(false);
  obs::clear();
  size_t before = obs::event_count();
  obs::complete("t", "span", obs::now_ns(), 10);
  obs::instant("t", "instant");
  obs::counter("t", "ctr", 1.0);
  OBS_INSTANT("t", "macro");
  OBS_COUNTER("t", "macro-ctr", 2);
  {
    obs::Span s("t", "raii");
    EXPECT_FALSE(s.active());
    OBS_SPAN("t", "macro-span");
  }
  EXPECT_EQ(obs::event_count(), before);
}

TEST_F(ObsTest, SnapshotIsSortedByPidTidTs) {
  // Emit out of order across both timelines.
  obs::instant_at("t", "v-late", 500.0, 1, 2);
  obs::instant_at("t", "v-early", 10.0, 1, 0);
  obs::instant("t", "host");
  auto evs = obs::snapshot();
  ASSERT_EQ(evs.size(), 3u);
  auto key = [](const obs::TraceEvent& e) {
    return std::make_tuple(e.pid, e.tid, e.ts_us);
  };
  EXPECT_TRUE(std::is_sorted(evs.begin(), evs.end(),
                             [&](const obs::TraceEvent& a,
                                 const obs::TraceEvent& b) {
                               return key(a) < key(b);
                             }));
  EXPECT_EQ(evs.front().pid, 0);  // host timeline first
  EXPECT_EQ(evs.back().name, "v-late");
}

TEST_F(ObsTest, ChromeJsonShape) {
  obs::complete("cat", "work", obs::now_ns(), 1000, "{\"k\":1}");
  obs::instant_at("fault", "drop", 42.0, 1, 3);
  std::string doc = obs::to_chrome_json();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
  EXPECT_NE(doc.find("simMPI virtual time"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-node SDFG instrumentation.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, EnvTimerProfilesEveryLaunchNode) {
  env::Override inst("DACE_INSTRUMENT", "timer");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  Bindings b = k.init(sizes);
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::Executor ex(*sdfg);
  ex.run(b, sizes);

  const auto& prof = ex.instrumentation().profiles();
  ASSERT_FALSE(prof.empty());
  bool saw_map = false;
  for (const auto& [key, p] : prof) {
    EXPECT_GT(p.invocations, 0) << p.label;
    EXPECT_GT(p.total_ns, 0) << p.label;
    if (p.kind == "map") {
      saw_map = true;
      EXPECT_GT(p.iterations, 0) << p.label;
      if (p.tier == 0) {
        EXPECT_GT(p.vm.instrs, 0u) << p.label;
      }
    }
  }
  EXPECT_TRUE(saw_map);

  // Each profiled execution is also a "node" span on the host timeline.
  auto node_evs = events_in("node");
  ASSERT_FALSE(node_evs.empty());
  for (auto& e : node_evs) {
    EXPECT_EQ(e.phase, obs::Phase::Complete);
    EXPECT_NE(e.args.find("\"tier\""), std::string::npos);
  }
}

TEST_F(ObsTest, NodeEventArgsAreByteStable) {
  // sdfg-prof parses the args of "node" spans: their keys, values and
  // order are pinned for a Tier-0 map event, which carries the launch's
  // VMStats, and a Tier-1 one, which has none.
  env::Override inst("DACE_INSTRUMENT", "timer");
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  for (int tier : {0, 1}) {
    SCOPED_TRACE(tier);
    env::Override jit("DACEPP_JIT", tier == 1 ? "1" : "0");
    obs::clear();
    auto sdfg = fe::compile_to_sdfg(R"(
@dace.program
def scale(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[0:N]:
        B[i] = 2.0 * A[i]
)");
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    int sid = -1;
    int map = find_top_map(*sdfg, &sid);
    ASSERT_GE(map, 0);
    Bindings b{{"A", rt::Tensor(ir::DType::f64, {64})},
               {"B", rt::Tensor(ir::DType::f64, {64})}};
    rt::Executor ex(*sdfg);
    ex.run(b, {{"N", 64}});
    const rt::NodeProfile& p = ex.instrumentation().profiles().at({sid, map});
    ASSERT_EQ(p.tier, tier);
    std::string want = "{\"sdfg\":\"scale\",\"kind\":\"map\",\"state\":" +
                       std::to_string(sid) +
                       ",\"node\":" + std::to_string(map) +
                       ",\"tier\":" + std::to_string(tier) + ",\"iters\":64";
    if (tier == 0) {
      EXPECT_GT(p.vm.instrs, 0u);
      want += ",\"instrs\":" + std::to_string(p.vm.instrs) +
              ",\"flops\":" + std::to_string(p.vm.flops) +
              ",\"loads\":" + std::to_string(p.vm.loads) +
              ",\"stores\":" + std::to_string(p.vm.stores);
    }
    want += "}";
    std::vector<std::string> maps;
    for (auto& e : events_in("node"))
      if (e.name == p.label) maps.push_back(e.args);
    ASSERT_EQ(maps.size(), 1u);
    EXPECT_EQ(maps[0], want);
  }
}

TEST_F(ObsTest, AttributeCounterInstrumentsOnlyThatNode) {
  // No DACE_INSTRUMENT: only the explicitly tagged map is measured.
  env::Override inst("DACE_INSTRUMENT", "");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  int state_id = -1;
  int map_id = find_top_map(*sdfg, &state_id);
  ASSERT_GE(map_id, 0);
  sdfg->state(state_id).node(map_id)->instrument = ir::Instrument::Counter;

  Bindings b = k.init(sizes);
  rt::Executor ex(*sdfg);
  ex.run(b, sizes);

  const auto& prof = ex.instrumentation().profiles();
  ASSERT_EQ(prof.size(), 1u);
  const auto& p = prof.begin()->second;
  EXPECT_EQ(prof.begin()->first, std::make_pair(state_id, map_id));
  EXPECT_EQ(p.kind, "map");
  EXPECT_GT(p.iterations, 0);

  // Counter mode emits cumulative-iteration counter samples, not spans.
  auto node_evs = events_in("node");
  ASSERT_FALSE(node_evs.empty());
  for (auto& e : node_evs) EXPECT_EQ(e.phase, obs::Phase::Counter);
  EXPECT_DOUBLE_EQ(node_evs.back().value, (double)p.iterations);
}

TEST_F(ObsTest, StateTimerNeedsExplicitAttribute) {
  // DACE_INSTRUMENT applies at launch granularity; states opt in per
  // attribute so a process-wide default cannot double-count everything.
  env::Override inst("DACE_INSTRUMENT", "");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  sdfg->state(0).instrument = ir::Instrument::Timer;

  Bindings b = k.init(sizes);
  rt::Executor ex(*sdfg);
  ex.run(b, sizes);

  const auto& prof = ex.instrumentation().profiles();
  auto it = prof.find({0, -1});
  ASSERT_NE(it, prof.end());
  EXPECT_EQ(it->second.kind, "state");
  EXPECT_GT(it->second.invocations, 0);
  EXPECT_GT(it->second.total_ns, 0);
}

// ---------------------------------------------------------------------------
// Regression: instrumentation must not perturb tier promotion.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, InstrumentationDoesNotPerturbTiering) {
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");

  int64_t promos_plain = 0, promos_instrumented = 0;
  {
    env::Override inst("DACE_INSTRUMENT", "");
    Bindings b = k.init(sizes);
    auto sdfg = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::Executor ex(*sdfg);
    ex.run(b, sizes);
    promos_plain = ex.native_promotions();
    EXPECT_FALSE(ex.instrumentation().active());
  }
  {
    env::Override inst("DACE_INSTRUMENT", "timer");
    Bindings b = k.init(sizes);
    auto sdfg = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::Executor ex(*sdfg);
    ex.run(b, sizes);
    promos_instrumented = ex.native_promotions();

    // The profiles must see the native tier, proving measurement
    // continued across the promotion rather than pinning Tier 0.
    bool saw_tier1 = false;
    for (const auto& [key, p] : ex.instrumentation().profiles())
      if (p.kind == "map" && p.tier >= 1) saw_tier1 = true;
    EXPECT_TRUE(saw_tier1);
  }
  EXPECT_GT(promos_plain, 0);
  EXPECT_EQ(promos_plain, promos_instrumented)
      << "instrumented run promoted differently from the plain run";
}

// ---------------------------------------------------------------------------
// Distributed virtual timeline.
// ---------------------------------------------------------------------------

void ring_exchange(dist::Comm& c) {
  double buf[16] = {0};
  int next = (c.rank() + 1) % c.size();
  int prev = (c.rank() + c.size() - 1) % c.size();
  if (c.rank() % 2 == 0) {
    c.send(buf, 16, next, 7);
    c.recv(buf, 16, prev, 7);
  } else {
    c.recv(buf, 16, prev, 7);
    c.send(buf, 16, next, 7);
  }
}

TEST_F(ObsTest, SimMpiEventsLandOnVirtualTimeline) {
  dist::World w(4);
  w.run(ring_exchange);
  auto comm = events_in("comm");
  ASSERT_FALSE(comm.empty());
  for (auto& e : comm) {
    EXPECT_EQ(e.pid, 1) << e.name;
    EXPECT_GE(e.tid, 0);
    EXPECT_LT(e.tid, 4);
    EXPECT_GE(e.ts_us, 0.0);  // virtual clock * 1e6
  }
  // Every rank communicated, so every rank has timeline events.
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(std::any_of(comm.begin(), comm.end(),
                            [&](const obs::TraceEvent& e) {
                              return e.tid == r;
                            }))
        << "no events for rank " << r;
  }
}

TEST_F(ObsTest, FaultInjectionsAppearAsInstants) {
  dist::FaultPlan fp;
  fp.seed = 11;
  fp.drop_prob = 0.5;
  fp.dup_prob = 0.2;
  dist::World w(4);
  w.set_fault_plan(fp);
  w.run(ring_exchange);
  auto faults = events_in("fault");
  ASSERT_FALSE(faults.empty());
  for (auto& e : faults) {
    EXPECT_EQ(e.phase, obs::Phase::Instant);
    EXPECT_EQ(e.pid, 1);
    EXPECT_NE(e.args.find("\"peer\""), std::string::npos);
  }
  // Dropped sends are retried; the retransmissions are on the timeline.
  auto comm = events_in("comm");
  EXPECT_TRUE(std::any_of(comm.begin(), comm.end(),
                          [](const obs::TraceEvent& e) {
                            return e.name == "retransmit";
                          }));
}

// ---------------------------------------------------------------------------
// Determinism: same deterministic workload -> same event sequence.
// ---------------------------------------------------------------------------

using Sig = std::vector<std::tuple<int, int, char, std::string, std::string>>;

Sig signature() {
  Sig sig;
  for (auto& e : obs::snapshot())
    sig.emplace_back(e.pid, e.tid, (char)e.phase, std::string(e.cat), e.name);
  return sig;
}

TEST_F(ObsTest, ExecutorTraceIsDeterministicAfterWarmup) {
  env::Override inst("DACE_INSTRUMENT", "timer");
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);

  // Run 1 warms the process-wide JIT cache (emits the jit.compile span);
  // runs 2 and 3 hit the cache and must trace identically.
  auto one_run = [&] {
    Bindings b = k.init(sizes);
    rt::Executor ex(*sdfg);
    ex.run(b, sizes);
  };
  one_run();
  obs::clear();
  one_run();
  Sig second = signature();
  obs::clear();
  one_run();
  Sig third = signature();
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second, third);
}

TEST_F(ObsTest, FaultTimelineIsDeterministicForFixedSeed) {
  dist::FaultPlan fp;
  fp.seed = 11;
  fp.drop_prob = 0.5;
  fp.dup_prob = 0.2;
  auto one_world = [&] {
    dist::World w(4);
    w.set_fault_plan(fp);
    w.run(ring_exchange);
  };
  one_world();
  Sig first = signature();
  // Virtual timestamps must also repeat, not just the sequence.
  std::vector<double> ts1;
  for (auto& e : obs::snapshot()) ts1.push_back(e.ts_us);
  obs::clear();
  one_world();
  Sig second = signature();
  std::vector<double> ts2;
  for (auto& e : obs::snapshot()) ts2.push_back(e.ts_us);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(ts1, ts2);
}

}  // namespace
}  // namespace dace
