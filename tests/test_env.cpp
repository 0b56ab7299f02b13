// Environment settings (common/env.hpp): the strict readers, the scoped
// override, one regression test per value the old ad-hoc parsers misread,
// and the seeded fault schedules that the shared draw must reproduce.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>

#include "analysis/absint.hpp"
#include "codegen/artifact_cache.hpp"
#include "common/env.hpp"
#include "distributed/faults.hpp"
#include "frontend/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/instrumentation.hpp"
#include "serve/protocol.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

constexpr const char* kKnob = "DACE_TEST_ENV_KNOB";

const char* kAxpy = R"(
@dace.program
def axpy(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[0:N]:
        B[i] = 2.0 * A[i] + B[i]
)";

/// Runs `f`, which must throw a dace::Error whose message holds `needle`.
template <class F>
void expect_error(F f, const std::string& needle) {
  try {
    f();
    ADD_FAILURE() << "no dace::Error naming " << needle;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Env, UnsetAndEmptyGiveTheDefault) {
  for (const char* v : {(const char*)nullptr, ""}) {
    std::optional<env::Override> o;
    if (v) o.emplace(kKnob, v);
    EXPECT_TRUE(env::flag(kKnob, true));
    EXPECT_FALSE(env::flag(kKnob, false));
    EXPECT_EQ(env::integer(kKnob, 7, 1, 9), 7);
    EXPECT_EQ(env::number(kKnob, 2.5, 0, 1), 2.5);
    EXPECT_EQ(env::choice(kKnob, 3, {{"a", 1}}), 3);
    EXPECT_EQ(env::text(kKnob), "");
  }
  {
    env::Override outer(kKnob, "outer");
    { env::Override inner(kKnob, "inner"); }
    EXPECT_EQ(env::text(kKnob), "outer");
  }
  EXPECT_EQ(std::getenv(kKnob), nullptr);
}

TEST(Env, AcceptedSpellingsParse) {
  auto with = [](const char* v, auto read) {
    env::Override o(kKnob, v);
    return read();
  };
  EXPECT_FALSE(with("0", [] { return env::flag(kKnob, true); }));
  EXPECT_TRUE(with("1", [] { return env::flag(kKnob, false); }));
  EXPECT_EQ(with("-3", [] { return env::integer(kKnob, 5, -3, 3); }), -3);
  EXPECT_EQ(with("2000000", [] { return env::integer(kKnob, 5, 0); }),
            2000000);
  EXPECT_EQ(with("0.25", [] { return env::number(kKnob, 1, 0, 1); }), 0.25);
  EXPECT_EQ(with("1e-3", [] { return env::number(kKnob, 1, 0, 1); }), 1e-3);

  // Every spelling the repo documents for the enumerated knobs.
  using M = analysis::absint::Mode;
  for (auto [v, m] : {std::pair{"0", M::Off}, {"off", M::Off}, {"1", M::On},
                      {"all", M::All}}) {
    env::Override o("DACE_ABSINT", v);
    EXPECT_EQ(analysis::absint::mode(), m) << v;
  }
  using I = ir::Instrument;
  for (auto [v, m] : {std::pair{"0", I::Off}, {"1", I::Timer},
                      {"timer", I::Timer}, {"counter", I::Counter}}) {
    env::Override o("DACE_INSTRUMENT", v);
    EXPECT_EQ(rt::Instrumenter::env_default(), m) << v;
  }
}

TEST(Env, MalformedValuesThrowNamingVariableAndValue) {
  const std::pair<const char*, std::function<void()>> cases[] = {
      {"2e6", [] { env::integer(kKnob, 0, 0); }},
      {"12abc", [] { env::integer(kKnob, 0, 0); }},
      {" 3", [] { env::integer(kKnob, 0, 0); }},
      {"99999999999999999999", [] { env::integer(kKnob, 0, 0); }},
      {"-1", [] { env::integer(kKnob, 0, 0); }},
      {"65", [] { env::integer(kKnob, 4, 1, 64); }},
      {"false", [] { env::flag(kKnob, false); }},
      {"yes", [] { env::flag(kKnob, false); }},
      {"0.5x", [] { env::number(kKnob, 0, 0, 1); }},
      {"1.5", [] { env::number(kKnob, 0, 0, 1); }},
      {"1e999", [] { env::number(kKnob, 0, 0, 1e300); }},
      {"nan", [] { env::number(kKnob, 0, 0, 1); }},
      {"none", [] { env::choice(kKnob, 0, {{"a", 1}}); }},
  };
  for (const auto& [value, read] : cases) {
    env::Override o(kKnob, value);
    expect_error(read, std::string(kKnob) + "='" + value + "'");
  }
}

// One regression test per value the per-file parsers used to misread.

TEST(Env, VerifyPassesFalseIsRejected) {
  env::Override o("DACE_VERIFY_PASSES", "false");  // was: verify mode on
  auto sdfg = fe::compile_to_sdfg(kAxpy);
  expect_error([&] { xf::auto_optimize(*sdfg, ir::DeviceType::CPU); },
               "DACE_VERIFY_PASSES='false'");
}

TEST(Env, JitThresholdInScientificNotationIsRejected) {
  env::Override o("DACEPP_JIT_THRESHOLD", "2e6");  // was: threshold 2
  auto sdfg = fe::compile_to_sdfg(kAxpy);
  expect_error([&] { rt::Executor ex(*sdfg); }, "DACEPP_JIT_THRESHOLD='2e6'");
}

TEST(Env, AbsintNoneIsRejected) {
  env::Override o("DACE_ABSINT", "none");  // was: absint on
  // The map compiler reads the mode, so execution stops at the first map.
  auto sdfg = fe::compile_to_sdfg(kAxpy);
  rt::Bindings b;
  b.emplace("A", rt::Tensor(ir::DType::f64, {4}));
  b.emplace("B", rt::Tensor(ir::DType::f64, {4}));
  expect_error([&] { rt::execute(*sdfg, b, {{"N", 4}}); },
               "DACE_ABSINT='none'");
}

TEST(Env, NonNumericFaultSeedsAreRejected) {
  {
    env::Override o("DACE_FAULT_SEED", "abc");  // was: seed 0
    expect_error([] { dist::FaultPlan::from_env(); }, "DACE_FAULT_SEED");
  }
  env::Override o("DACE_CACHE_FAULT_SEED", "abc");  // was: seed 0
  expect_error([] { cg::cache::FsFaultPlan::from_env(); },
               "DACE_CACHE_FAULT_SEED");
}

// The three plans share one draw; these schedules were recorded with the
// three separate draws it replaced (seed 7, ops 0..63, one digit per
// decision: the fault enum's value).
TEST(FaultSpec, SeededSchedulesMatchTheRecordedOnes) {
  auto c = cg::cache::FsFaultPlan::parse(
      "seed=7,torn=0.1,rename=0.1,corrupt=0.1,enospc=0.1,crash=0.1");
  auto s = serve::ServeFaultPlan::parse(
      "seed=7,disconnect=0.1,slow=0.1,corrupt=0.1,crash=0.1,wedge=0.1,"
      "storm=0.1");
  auto d = dist::FaultPlan::parse(
      "seed=7,drop=0.1,dup=0.1,reorder=0.1,delay=0.1,stall_rank=1,"
      "stall_at=3,crash_rank=2,crash_at=7");
  std::string cache, srv, msgs, ranks;
  for (int op = 0; op < 64; ++op) {
    cache += char('0' + (int)c.decide(op));
    srv += char('0' + (int)s.decide(op));
    msgs += char('0' + (int)d.decide_message(op % 4, (op + 1) % 4,
                                             op % 3 - 1, op, op % 3));
    ranks += char('0' + (int)d.decide_rank_op(op % 4, op / 4));
  }
  EXPECT_EQ(cache,
            "1200530000202331202300213050400031030000003540230452041003004300");
  EXPECT_EQ(srv,
            "3050520002006150105030123230000433056040300123044450000116503010");
  EXPECT_EQ(msgs,
            "1000000000003004000000100000014100002000004002000001000004002000");
  EXPECT_EQ(ranks,
            "0000000000000500000000000000006000000000000000000000000000000000");
}

}  // namespace
}  // namespace dace
