// Transformation tests: each transformation must (a) fire on its pattern,
// (b) refuse unsafe cases, and (c) preserve program semantics -- checked
// by executing before/after and comparing results.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "common/env.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/executor.hpp"
#include "runtime/tensor_ops.hpp"
#include "transforms/auto_optimize.hpp"
#include "transforms/loop_to_map.hpp"
#include "transforms/map_fusion.hpp"
#include "transforms/map_transforms.hpp"
#include "transforms/memory.hpp"
#include "transforms/simplify.hpp"

namespace dace {
namespace {

using fe::compile_to_sdfg;
using rt::Bindings;
using rt::Tensor;

Tensor random_tensor(std::vector<int64_t> shape, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Tensor t(ir::DType::f64, std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.set_flat(i, dist(gen));
  return t;
}

int count_toplevel_maps(const ir::SDFG& sdfg) {
  int n = 0;
  for (int sid : sdfg.state_ids()) {
    const auto& st = sdfg.state(sid);
    for (int nid : st.node_ids()) {
      n += st.node(nid)->kind == ir::NodeKind::MapEntry &&
           st.scope_of(nid) == -1;
    }
  }
  return n;
}

/// Run both graphs on identical inputs; expect identical outputs.
void expect_equivalent(const ir::SDFG& a, const ir::SDFG& b,
                       const std::vector<std::pair<std::string,
                                                   std::vector<int64_t>>>&
                           args_spec,
                       const sym::SymbolMap& syms,
                       const std::vector<std::string>& outputs) {
  Bindings args_a, args_b;
  unsigned seed = 42;
  for (const auto& [name, shape] : args_spec) {
    Tensor t = random_tensor(shape, seed++);
    args_a.emplace(name, t.copy());
    args_b.emplace(name, t.copy());
  }
  rt::execute(a, args_a, syms);
  rt::execute(b, args_b, syms);
  for (const auto& out : outputs) {
    EXPECT_TRUE(rt::allclose(args_a.at(out), args_b.at(out), 1e-9, 1e-12))
        << "mismatch in output '" << out << "'";
  }
}

constexpr const char* kGemmSrc = R"(
@dace.program
def gemm(alpha: dace.float64, beta: dace.float64, C: dace.float64[NI, NJ],
         A: dace.float64[NI, NK], B: dace.float64[NK, NJ]):
    C[:] = alpha * A @ B + beta * C
)";

TEST(StateFusion, MergesOpChain) {
  auto sdfg = compile_to_sdfg(kGemmSrc);
  int before = sdfg->num_states();
  int fused = xf::apply_repeated(*sdfg, xf::state_fusion);
  EXPECT_GT(fused, 0);
  EXPECT_LT(sdfg->num_states(), before);
  EXPECT_NO_THROW(sdfg->validate());
}

TEST(StateFusion, PreservesSemantics) {
  auto base = compile_to_sdfg(kGemmSrc);
  auto fused = base->clone();
  xf::apply_repeated(*fused, xf::state_fusion);
  expect_equivalent(
      *base, *fused,
      {{"alpha", {}}, {"beta", {}}, {"C", {9, 11}}, {"A", {9, 7}},
       {"B", {7, 11}}},
      {{"NI", 9}, {"NJ", 11}, {"NK", 7}}, {"C"});
}

TEST(StateFusion, RejectsWarHazardAcrossStates) {
  // State 1 reads A into B; state 2 overwrites A: the two may not merge
  // without ordering (s1 has no write of A to serialize through).
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    B[:] = A + 1.0
    A[:] = 7.0
)");
  xf::apply_repeated(*sdfg, xf::state_fusion);
  // The two compute states must not have merged into one: check that no
  // single state both reads and overwrites A unorderedly -- semantics.
  auto base = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    B[:] = A + 1.0
    A[:] = 7.0
)");
  expect_equivalent(*base, *sdfg, {{"A", {33}}, {"B", {33}}}, {{"N", 33}},
                    {"A", "B"});
}

TEST(RedundantCopy, RemovesMaterializeThenCopy) {
  auto sdfg = compile_to_sdfg(kGemmSrc);
  xf::apply_repeated(*sdfg, xf::state_fusion);
  int before = count_toplevel_maps(*sdfg);
  int removed = xf::apply_repeated(*sdfg, xf::redundant_copy_removal);
  EXPECT_GT(removed, 0);
  EXPECT_LT(count_toplevel_maps(*sdfg), before);
  EXPECT_NO_THROW(sdfg->validate());
  auto base = compile_to_sdfg(kGemmSrc);
  expect_equivalent(
      *base, *sdfg,
      {{"alpha", {}}, {"beta", {}}, {"C", {9, 11}}, {"A", {9, 7}},
       {"B", {7, 11}}},
      {{"NI", 9}, {"NJ", 11}, {"NK", 7}}, {"C"});
}

TEST(MapFusion, FusesElementwiseChain) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N], out: dace.float64[N]):
    out[:] = (A + B) * (A - B) + 2.0
)");
  xf::simplify(*sdfg);
  int before = count_toplevel_maps(*sdfg);
  int fused = xf::apply_repeated(*sdfg, xf::map_fusion);
  EXPECT_GT(fused, 0);
  EXPECT_LT(count_toplevel_maps(*sdfg), before);
  auto base = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N], out: dace.float64[N]):
    out[:] = (A + B) * (A - B) + 2.0
)");
  expect_equivalent(*base, *sdfg, {{"A", {40}}, {"B", {40}}, {"out", {40}}},
                    {{"N", 40}}, {"out"});
}

TEST(MapFusion, FusesDownToSingleMapForElementwise) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(x: dace.float64[N], y: dace.float64[N]):
    y[:] = 2.0 * x + y * x - 3.0
)");
  xf::simplify(*sdfg);
  xf::apply_repeated(*sdfg, xf::map_fusion);
  xf::simplify(*sdfg);
  EXPECT_EQ(count_toplevel_maps(*sdfg), 1);
}

TEST(MapFusion, RefusesStencilNeighborReads) {
  // Consumer reads tmp at i-1, i, i+1: not a per-iteration element match.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    tmp = np.zeros((N,), dtype=A.dtype)
    tmp[:] = A * 2.0
    B[1:-1] = tmp[:-2] + tmp[1:-1] + tmp[2:]
)");
  xf::simplify(*sdfg);
  auto base = sdfg->clone();
  (void)xf::apply_repeated(*sdfg, xf::map_fusion);
  // Whether or not some maps fused, semantics must hold and the stencil
  // read must not be fused into the producer of tmp.
  expect_equivalent(*base, *sdfg, {{"A", {24}}, {"B", {24}}}, {{"N", 24}},
                    {"B"});
}

TEST(LoopToMap, ConvertsParallelLoop) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(C: dace.float64[NI]):
    for i in range(NI):
        C[i] += 1.0
)");
  xf::simplify(*sdfg);
  int converted = xf::apply_repeated(*sdfg, xf::loop_to_map);
  EXPECT_EQ(converted, 1);
  EXPECT_GE(count_toplevel_maps(*sdfg), 1);
  Tensor C = random_tensor({17}, 3);
  Tensor ref = rt::ops::add(C, Tensor::scalar(1.0));
  Bindings args{{"C", C}};
  rt::execute(*sdfg, args, {{"NI", 17}});
  EXPECT_TRUE(rt::allclose(C, ref));
}

TEST(LoopToMap, RefusesSequentialDependence) {
  // B[i] depends on B[i-1]: the loop carries a dependence.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(B: dace.float64[N]):
    for i in range(1, N):
        B[i] = B[i-1] + 1.0
)");
  xf::simplify(*sdfg);
  EXPECT_EQ(xf::apply_repeated(*sdfg, xf::loop_to_map), 0);
}

TEST(LoopToMap, RefusesTimeSteppedStencil) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(TSTEPS: dace.int32, A: dace.float64[N], B: dace.float64[N]):
    for t in range(1, TSTEPS):
        B[1:-1] = 0.5 * (A[:-2] + A[2:])
        A[1:-1] = 0.5 * (B[:-2] + B[2:])
)");
  xf::simplify(*sdfg);
  EXPECT_EQ(xf::apply_repeated(*sdfg, xf::loop_to_map), 0);
}

TEST(LoopToMap, AccumulationBecomesWcr) {
  // resnet-style accumulation: every iteration adds into the same
  // elements -> WCR map (Section 3.4.2).
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(out: dace.float64[M], inp: dace.float64[M + K], w: dace.float64[K]):
    for k in range(K):
        out[:] += inp[k:M+k] * w[k]
)");
  xf::simplify(*sdfg);
  xf::apply_repeated(*sdfg, xf::map_fusion);
  auto base = sdfg->clone();
  int converted = xf::apply_repeated(*sdfg, xf::loop_to_map);
  EXPECT_EQ(converted, 1);
  bool has_wcr = false;
  for (int sid : sdfg->state_ids()) {
    for (const auto& e : sdfg->state(sid).edges())
      has_wcr |= e.memlet.wcr == ir::WCR::Sum;
  }
  EXPECT_TRUE(has_wcr);
  expect_equivalent(*base, *sdfg,
                    {{"out", {20}}, {"inp", {25}}, {"w", {5}}},
                    {{"M", 20}, {"K", 5}}, {"out"});
}

TEST(LoopToMap, ConvertsDivBoundedLoop) {
  // `range(N // 2)` puts Floor(Div(N, 2)) into the guard condition:
  // code_to_sym must lower Div/Floor to floor division for detect_loop
  // to recognize the trip count (regression: Div used to be
  // unsupported, silently pinning such loops to Tier 0).
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    for i in range(N // 2):
        A[i] += 1.0
)");
  xf::simplify(*sdfg);
  auto base = sdfg->clone();
  EXPECT_EQ(xf::apply_repeated(*sdfg, xf::loop_to_map), 1);
  EXPECT_GE(count_toplevel_maps(*sdfg), 1);
  // N = 11: exactly A[0..4] gets incremented (11 // 2 = 5).
  expect_equivalent(*base, *sdfg, {{"A", {11}}}, {{"N", 11}}, {"A"});
}

TEST(LoopToMap, FactoredDisjointWritesConvert) {
  // Each iteration writes the block A[i*K : i*K+K].  The syntactic
  // Subset::disjoint test cannot separate consecutive blocks (the
  // distance K*d only exceeds the block length K given d >= 1), so the
  // seed refused this loop; the absint interval prover discharges it.
  using ir::CodeExpr;
  using ir::CodeOp;
  using sym::Expr;
  using sym::Range;
  using sym::S;
  auto g = std::make_unique<ir::SDFG>("blocked");
  g->add_symbol("D");
  g->add_symbol("K");
  g->add_array("A", ir::DType::f64, {S("D") * S("K")});
  g->add_array("B", ir::DType::f64, {S("D") * S("K")});
  g->add_arg("A");
  g->add_arg("B");
  g->add_state("init", true);
  g->add_state("guard");
  g->add_state("body");
  g->add_state("done");
  CodeExpr cond = CodeExpr::binary(CodeOp::Lt, CodeExpr::symbol("i"),
                                   CodeExpr::symbol("D"));
  g->add_interstate_edge(0, 1, CodeExpr(), {{"i", Expr(0)}});
  g->add_interstate_edge(1, 2, cond);
  g->add_interstate_edge(2, 1, CodeExpr(), {{"i", S("i") + Expr(1)}});
  g->add_interstate_edge(1, 3, CodeExpr::unary(CodeOp::Not, cond));
  // Body: inner map over j copies B[i*K+j]*2 into A[i*K+j]; the outer
  // memlets carry the per-iteration block [i*K, i*K+K).
  ir::State& b = g->state(2);
  int na = b.add_access("A");
  int nb = b.add_access("B");
  auto [me, mx] = b.add_map("blk", {"j"}, sym::Subset({Range(Expr(0), S("K"))}));
  int tl = b.add_tasklet("t", {"x"},
                         CodeExpr::input("x") * CodeExpr::constant(2.0));
  sym::Subset block({Range(S("i") * S("K"), S("i") * S("K") + S("K"))});
  b.add_edge(nb, "", me, "IN_B", ir::Memlet("B", block));
  b.add_edge(me, "OUT_B", tl, "x",
             ir::Memlet("B", sym::Subset::element({S("i") * S("K") + S("j")})));
  b.add_edge(tl, "__out", mx, "IN_A",
             ir::Memlet("A", sym::Subset::element({S("i") * S("K") + S("j")})));
  b.add_edge(mx, "OUT_A", na, "", ir::Memlet("A", block));
  auto base = g->clone();
  EXPECT_EQ(xf::apply_repeated(*g, xf::loop_to_map), 1);
  EXPECT_GE(count_toplevel_maps(*g), 1);
  expect_equivalent(*base, *g, {{"A", {12}}, {"B", {12}}},
                    {{"D", 3}, {"K", 4}}, {"A"});
}

TEST(MapCollapse, MergesNestedMaps) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[M, N]):
    for i in range(M):
        A[i, :] = A[i, :] * 2.0
)");
  xf::simplify(*sdfg);
  xf::apply_repeated(*sdfg, xf::loop_to_map);
  int collapsed = xf::apply_repeated(*sdfg, xf::map_collapse);
  EXPECT_GE(collapsed, 1);
  // The collapsed map is 2-D.
  bool found2d = false;
  for (int sid : sdfg->state_ids()) {
    const auto& st = sdfg->state(sid);
    for (int nid : st.node_ids()) {
      if (const auto* me = st.node_as<const ir::MapEntry>(nid))
        found2d |= me->params.size() == 2;
    }
  }
  EXPECT_TRUE(found2d);
  Tensor A = random_tensor({6, 7}, 4);
  Tensor ref = rt::ops::mul(A, Tensor::scalar(2.0));
  Bindings args{{"A", A}};
  rt::execute(*sdfg, args, {{"M", 6}, {"N", 7}});
  EXPECT_TRUE(rt::allclose(A, ref));
}

TEST(TileWcr, ReducesAtomicUpdates) {
  auto src = R"(
@dace.program
def f(alpha: dace.float64, C: dace.float64[NI, NJ]):
    for i, j in dace.map[0:NI, 0:NJ]:
        alpha += C[i, j]
)";
  auto base = compile_to_sdfg(src);
  auto tiled = base->clone();
  xf::set_toplevel_schedules(*tiled, ir::Schedule::CPUParallel, true);
  int applied = xf::apply_repeated(*tiled, [&](ir::SDFG& g) {
    return xf::tile_wcr_map(g, 16);
  });
  EXPECT_EQ(applied, 1);
  EXPECT_NO_THROW(tiled->validate());

  const int64_t ni = 37, nj = 23;
  Tensor C = random_tensor({ni, nj}, 5);
  Tensor a1 = Tensor::scalar(0.5), a2 = Tensor::scalar(0.5);
  Bindings args1{{"alpha", a1}, {"C", C}};
  Bindings args2{{"alpha", a2}, {"C", C}};
  rt::Executor e1(*base), e2(*tiled);
  e1.run(args1, {{"NI", ni}, {"NJ", nj}});
  e2.run(args2, {{"NI", ni}, {"NJ", nj}});
  EXPECT_NEAR(a1.value(), a2.value(), 1e-9);
  // The tiled version commits once per tile instead of once per element.
  EXPECT_LT(e2.stats().wcr_stores, e1.stats().wcr_stores);
  EXPECT_EQ(e1.stats().wcr_stores, (uint64_t)(ni * nj));
}

TEST(TransientMitigation, SetsStorageAndLifetime) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    small = np.zeros((8,), dtype=A.dtype)
    big = np.zeros((N,), dtype=A.dtype)
    small[:] = A[0:8] * 2.0
    big[:] = A + 1.0
    A[:] = big
    A[0:8] = small
)");
  EXPECT_TRUE(xf::mitigate_transient_allocation(*sdfg));
  EXPECT_EQ(sdfg->array("small").storage, ir::Storage::CPUStack);
  EXPECT_EQ(sdfg->array("big").lifetime, ir::Lifetime::Persistent);
}

TEST(AutoOptimize, GemmEndToEnd) {
  auto base = compile_to_sdfg(kGemmSrc);
  auto opt = base->clone();
  xf::auto_optimize(*opt, ir::DeviceType::CPU);
  // Far fewer states and maps than the -O0 translation.
  EXPECT_LE(opt->num_states(), 2);
  expect_equivalent(
      *base, *opt,
      {{"alpha", {}}, {"beta", {}}, {"C", {19, 23}}, {"A", {19, 15}},
       {"B", {15, 23}}},
      {{"NI", 19}, {"NJ", 23}, {"NK", 15}}, {"C"});
}

TEST(AutoOptimize, Jacobi1dEndToEnd) {
  constexpr const char* src = R"(
@dace.program
def jacobi_1d(TSTEPS: dace.int32, A: dace.float64[N], B: dace.float64[N]):
    for t in range(1, TSTEPS):
        B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
        A[1:-1] = 0.33333 * (B[:-2] + B[1:-1] + B[2:])
)";
  auto base = compile_to_sdfg(src);
  auto opt = base->clone();
  xf::auto_optimize(*opt, ir::DeviceType::CPU);
  expect_equivalent(*base, *opt, {{"A", {50}}, {"B", {50}}},
                    {{"N", 50}, {"TSTEPS", 6}}, {"A", "B"});
  // Fusion must have reduced per-half-step maps (4 element-wise ops) to 1.
  rt::Executor ex(*opt);
  Bindings args{{"A", random_tensor({50}, 1)}, {"B", random_tensor({50}, 2)}};
  ex.run(args, {{"N", 50}, {"TSTEPS", 6}});
  EXPECT_LE(ex.map_launches(), 2 * 5 + 2);
}

TEST(AutoOptimize, SchedulesAreParallelOnCpu) {
  auto sdfg = compile_to_sdfg(kGemmSrc);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  for (int sid : sdfg->state_ids()) {
    const auto& st = sdfg->state(sid);
    for (int nid : st.node_ids()) {
      const auto* me = st.node_as<const ir::MapEntry>(nid);
      if (me && st.scope_of(nid) == -1) {
        EXPECT_EQ(me->schedule, ir::Schedule::CPUParallel);
      }
    }
  }
}

TEST(AutoOptimize, DoitgenWithLibraryNodesStaysCorrect) {
  constexpr const char* src = R"(
@dace.program
def doitgen(A: dace.float64[NR, NQ, NP], C4: dace.float64[NP, NP]):
    for r in range(NR):
        for q in range(NQ):
            tmp = np.zeros((NP,), dtype=A.dtype)
            tmp[:] = A[r, q, :] @ C4
            A[r, q, :] = tmp
)";
  auto base = compile_to_sdfg(src);
  auto opt = base->clone();
  xf::auto_optimize(*opt, ir::DeviceType::CPU);
  expect_equivalent(*base, *opt, {{"A", {4, 5, 6}}, {"C4", {6, 6}}},
                    {{"NR", 4}, {"NQ", 5}, {"NP", 6}}, {"A"});
}

// ---------------------------------------------------------------------------
// Transactional pipeline: broken passes roll back, the pipeline degrades
// instead of crashing, and verify mode names a semantic corruptor.

/// A pass that silently corrupts semantics: appends a state whose map
/// writes A[0] from every iteration (a provable write-write race) while
/// remaining structurally valid and round-trippable.
bool inject_race(ir::SDFG& g) {
  using sym::Expr;
  using sym::Range;
  using sym::S;
  using sym::Subset;
  int prev = g.state_order().back();
  ir::State& st = g.add_state("__injected_racy");
  g.add_interstate_edge(prev, g.state_id(&st));
  int na = st.add_access("A");
  auto [me, mx] = st.add_map("racy_m", {"i"},
                             Subset({Range(Expr(int64_t{0}), S("N"))}));
  int tl = st.add_tasklet("racy_t", {}, ir::CodeExpr::constant(1.0));
  st.add_edge(me, "", tl, "", ir::Memlet());
  st.add_edge(tl, "__out", mx, "IN_A",
              ir::Memlet("A", Subset::element({Expr(int64_t{0})})));
  st.add_edge(mx, "OUT_A", na, "", ir::Memlet("A", Subset::full({S("N")})));
  return true;
}

std::unique_ptr<ir::SDFG> simple_vector_sdfg() {
  return compile_to_sdfg(R"(
@dace.program
def base(A: dace.float64[N]):
    A[:] = A[:] * 2.0
)");
}

TEST(TransactionalPipeline, ThrowingPassRollsBackAndPipelineContinues) {
  auto g = simple_vector_sdfg();
  std::string before = g->dump();
  bool later_ran = false;
  xf::Pipeline pipe("test");
  pipe.add("explodes", [](ir::SDFG&) -> bool {
    throw Error("pass blew up");
  });
  pipe.add("survivor", [&](ir::SDFG&) {
    later_ran = true;
    return false;
  });
  xf::PassReport report = pipe.run_transactional(*g);
  EXPECT_TRUE(later_ran);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_TRUE(report.outcomes[0].rolled_back);
  EXPECT_NE(report.outcomes[0].error.find("blew up"), std::string::npos);
  EXPECT_EQ(report.first_broken_pass, "explodes");
  EXPECT_EQ(report.rolled_back, 1);
  EXPECT_EQ(g->dump(), before);  // graph untouched by the failed pass
  EXPECT_NE(report.summary().find("ROLLBACK"), std::string::npos);
}

TEST(TransactionalPipeline, StructuralCorruptionIsRolledBack) {
  auto g = simple_vector_sdfg();
  std::string before = g->dump();
  xf::Pipeline pipe("test");
  pipe.add("corrupts", [](ir::SDFG& s) {
    s.set_start_state(99);  // dangling start state
    return true;
  });
  xf::PassReport report = pipe.run_transactional(*g);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].rolled_back);
  EXPECT_FALSE(report.outcomes[0].committed);
  EXPECT_EQ(report.first_broken_pass, "corrupts");
  EXPECT_EQ(g->dump(), before);
  EXPECT_NO_THROW(g->validate());
}

TEST(TransactionalPipeline, HungPassTimesOutAndRollsBack) {
  env::Override timeout("DACE_XF_PASS_TIMEOUT", "50");
  auto g = simple_vector_sdfg();
  std::string before = g->dump();
  xf::Pipeline pipe("test");
  pipe.add("hangs", [](ir::SDFG& s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    s.add_symbol("__should_never_commit");
    return true;
  });
  pipe.add("after", [](ir::SDFG& s) {
    s.add_symbol("__committed_after_timeout");
    return true;
  });
  xf::PassReport report = pipe.run_transactional(*g);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_TRUE(report.outcomes[0].timed_out);
  EXPECT_TRUE(report.outcomes[0].rolled_back);
  EXPECT_NE(report.outcomes[0].error.find("timed out"), std::string::npos);
  // The orphaned worker's mutation never reaches the committed graph,
  // and the pipeline kept going.
  EXPECT_FALSE(g->has_symbol("__should_never_commit"));
  EXPECT_TRUE(g->has_symbol("__committed_after_timeout"));
  EXPECT_TRUE(report.outcomes[1].committed);
  EXPECT_NE(report.summary().find("TIMEOUT"), std::string::npos);
  // Let the orphaned worker finish before its captures are torn down.
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  (void)before;
}

TEST(TransactionalPipeline, VerifyModeCatchesSemanticBreakImmediately) {
  auto g = simple_vector_sdfg();
  std::string before = g->dump();
  xf::Pipeline pipe("test");
  pipe.set_verify(true);
  pipe.add("inject-race", inject_race);
  xf::PassReport report = pipe.run_transactional(*g);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].rolled_back);
  EXPECT_NE(report.outcomes[0].error.find("semantic"), std::string::npos);
  EXPECT_EQ(g->dump(), before);
}

TEST(AutoOptimize, BrokenPassNamedWhileResultStaysCorrect) {
  constexpr const char* src = R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    B[:] = A[:] * 2.0 + 1.0
)";
  auto base = compile_to_sdfg(src);
  auto opt = base->clone();
  xf::PassReport report;
  xf::AutoOptOptions opts;
  opts.verify = true;  // the commit gate runs the analyzer after every pass
  opts.extra_passes.push_back({"inject-race", inject_race});
  opts.report = &report;
  xf::auto_optimize(*opt, ir::DeviceType::CPU, opts);
  // The sabotaged pass is named in the report...
  EXPECT_EQ(report.first_broken_pass, "inject-race");
  // ...while auto_optimize still returns a verified, runnable graph.
  EXPECT_NO_THROW(opt->validate());
  expect_equivalent(*base, *opt, {{"A", {25}}, {"B", {25}}}, {{"N", 25}},
                    {"B"});
}

// A pass that leaves a step-0 range in a map or memlet is rolled back by
// the commit gate's structural validation, and the result still runs.
TEST(AutoOptimize, ZeroStepPassRolledBack) {
  constexpr const char* src = R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    B[:] = A[:] * 2.0 + 1.0
)";
  auto base = compile_to_sdfg(src);
  for (bool in_map : {true, false}) {
    auto zero_step = [in_map](ir::SDFG& g) {
      for (int sid : g.state_ids()) {
        ir::State& st = g.state(sid);
        for (int id : st.node_ids()) {
          auto* me = st.node_as<ir::MapEntry>(id);
          if (!me) continue;
          sym::Range bad(sym::Expr(0), sym::Expr(4), sym::Expr(0));
          if (in_map) {
            me->range.range(0) = bad;
          } else {
            for (auto& e : st.edges())
              if (e.src == id) e.memlet.subset.range(0) = bad;
          }
          return true;
        }
      }
      return false;
    };
    auto opt = base->clone();
    xf::PassReport report;
    xf::AutoOptOptions opts;
    opts.extra_passes.push_back({"zero-step", zero_step});
    opts.report = &report;
    xf::auto_optimize(*opt, ir::DeviceType::CPU, opts);
    EXPECT_EQ(report.first_broken_pass, "zero-step") << report.summary();
    EXPECT_EQ(report.rolled_back, 1) << report.summary();
    EXPECT_NE(report.summary().find("[ROLLBACK] zero-step"), std::string::npos)
        << report.summary();
    EXPECT_NE(report.summary().find("has step 0"), std::string::npos)
        << report.summary();
    EXPECT_NO_THROW(opt->validate());
    expect_equivalent(*base, *opt, {{"A", {25}}, {"B", {25}}}, {{"N", 25}},
                      {"B"});
  }
}

// Every auto_optimize pass reports whether it changed the graph, so only
// real changes pay the commit gate: on CPU, device-specialize finds the
// schedules wcr-tiling already set, and re-optimizing an optimized graph
// changes nothing.
TEST(AutoOptimize, PassesReportRealChange) {
  for (const auto& k : kernels::suite()) {
    auto g = compile_to_sdfg(k.source);
    xf::PassReport first, second;
    xf::AutoOptOptions opts;
    opts.report = &first;
    xf::auto_optimize(*g, ir::DeviceType::CPU, opts);
    ASSERT_EQ(first.outcomes.back().name, "device-specialize") << k.name;
    EXPECT_FALSE(first.outcomes.back().applied) << k.name << first.summary();
    opts.report = &second;
    xf::auto_optimize(*g, ir::DeviceType::CPU, opts);
    for (const auto& o : second.outcomes)
      EXPECT_FALSE(o.applied) << k.name << ": " << o.name;
    EXPECT_EQ(second.committed, 0) << k.name << second.summary();
  }
}

TEST(TransactionalPipeline, InvalidInputGraphReportedNotThrown) {
  auto g = simple_vector_sdfg();
  g->set_start_state(99);
  xf::Pipeline pipe("test");
  pipe.add("never-runs", [](ir::SDFG&) { return true; });
  xf::PassReport report;
  EXPECT_NO_THROW(report = pipe.run_transactional(*g));
  EXPECT_EQ(report.first_broken_pass, "<input>");
  EXPECT_FALSE(report.all_committed());
}

}  // namespace
}  // namespace dace
