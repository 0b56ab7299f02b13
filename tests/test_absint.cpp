// Abstract interpretation framework tests: interval domain, the
// environment-aware provers, the symbol-range fixpoint over the state
// machine, stride classification, map facts for codegen, and the A2xx
// lint analyses built on top.
#include "analysis/absint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "codegen/jit.hpp"
#include "common/env.hpp"
#include "frontend/lowering.hpp"
#include "ir/sdfg.hpp"
#include "kernels/suite.hpp"
#include "runtime/executor.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

using analysis::AnalysisReport;
using analysis::Severity;
using namespace analysis::absint;
using ir::CodeExpr;
using ir::CodeOp;
using ir::DType;
using ir::Memlet;
using ir::SDFG;
using ir::State;
using sym::Expr;
using sym::Range;
using sym::S;
using sym::Subset;

// -- provers -----------------------------------------------------------------

TEST(AbsintProver, EnvUnlocksFactoredDifference) {
  // K*d - K >= 0 needs d >= 1; the global ">= 1" convention cannot see
  // the factored form after canonicalization, the interval env can.
  Expr e = S("K") * S("d") - S("K");
  EXPECT_FALSE(proves_nonneg(e, Env{{"d", Interval::top()}}));
  EXPECT_TRUE(proves_nonneg(e, Env{{"d", Interval::at_least(Expr(1))}}));
}

TEST(AbsintProver, UpperBoundDischargesAccess) {
  // i <= N-3  =>  N - i - 2 >= 0 (i.e. A[i+1] fits in shape N-1 terms).
  Env env{{"i", Interval{Expr(0), S("N") - Expr(3)}}};
  EXPECT_TRUE(proves_nonneg(S("N") - S("i") - Expr(2), env));
  EXPECT_FALSE(proves_nonneg(S("N") - S("i") - Expr(4), env));
}

TEST(AbsintProver, AssignedSymbolsDoNotInheritSizeConvention) {
  // j is env-bound with lo 0: "j - 1 >= 0" must NOT be proven via the
  // global convention fallback.
  Env env{{"j", Interval{Expr(0), S("N")}}};
  EXPECT_FALSE(proves_nonneg(S("j") - Expr(1), env));
  EXPECT_TRUE(proves_nonneg(S("j"), env));
}

TEST(AbsintProver, ProveLeIsThreeValued) {
  Env env{{"i", Interval{Expr(0), S("N") - Expr(1)}}};
  EXPECT_EQ(prove_le(S("i"), S("N") - Expr(1), env), std::optional<bool>(true));
  EXPECT_EQ(prove_le(S("N"), S("i"), env), std::optional<bool>(false));
  EXPECT_EQ(prove_le(S("i"), S("M"), env), std::nullopt);
}

TEST(AbsintProver, LinearPathAgreesWithExprPath) {
  // Random affine claims over environments with affine endpoints: the
  // affine path decides every one, and its verdict is the tree path's.
  const std::vector<std::string> names = {"N", "M", "i", "j", "k"};
  std::mt19937_64 rng(26);
  auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto affine = [&](int nterms, int coef) {
    Expr e(uniform(-6, 6));
    for (int t = 0; t < nterms; ++t)
      e = e + Expr(uniform(-coef, coef)) * S(names[uniform(0, 4)]);
    return e;
  };
  int proven = 0;
  for (int c = 0; c < 2000; ++c) {
    Env env;
    for (const std::string& s : names) {
      if (uniform(0, 2) == 0) continue;  // unbound: the ">= 1" convention
      Interval iv;
      // Lower bounds from -1 up, so some fall below 1; an endpoint over
      // up to two symbols may name its own symbol.
      if (uniform(0, 3) != 0)
        iv.lo = Expr(uniform(-1, 2)) + affine(uniform(0, 1), 2);
      if (uniform(0, 3) != 0) iv.hi = affine(uniform(0, 2), 2);
      env[s] = iv;
    }
    Expr e = affine(uniform(1, 4), 4);
    std::optional<bool> linear = detail::proves_nonneg_linear(e, env);
    ASSERT_TRUE(linear.has_value()) << e.to_string();
    bool tree = detail::proves_nonneg_expr(e, env);
    ASSERT_EQ(*linear, tree) << "case " << c << ": " << e.to_string();
    EXPECT_EQ(proves_nonneg(e, env), tree);
    proven += tree;
  }
  // Both verdicts are common, so agreement is not vacuous.
  EXPECT_GT(proven, 200);
  EXPECT_LT(proven, 1800);

  // Claims the affine path hands to the tree path: a coefficient beyond
  // its range, a product beyond it (2^31 * 2^31, which the tree path
  // still computes without overflow), the tiled go_fast map's min()
  // endpoint, and a floordiv.
  Env tiled{{"__tile_i", Interval{Expr(0), S("N") - Expr(1)}},
            {"i", Interval{S("__tile_i"),
                           sym::min(S("__tile_i") + Expr(1024), S("N")) -
                               Expr(1)}}};
  Env big{{"i", Interval{Expr(0), Expr(int64_t{1} << 31) * S("N")}}};
  const std::vector<std::pair<Expr, Env>> fallbacks = {
      {Expr(INT64_MAX - 1) * S("i") - S("N"),
       Env{{"i", Interval{Expr(0), S("N") - Expr(1)}}}},
      {S("N") - Expr(int64_t{1} << 31) * S("i"), big},
      {S("N") - Expr(1) - S("i"), tiled},
      {sym::floordiv(S("N"), Expr(2)) + S("i"),
       Env{{"i", Interval{Expr(0), S("N") - Expr(1)}}}},
  };
  for (const auto& [e, env] : fallbacks) {
    EXPECT_FALSE(detail::proves_nonneg_linear(e, env).has_value())
        << e.to_string();
    EXPECT_EQ(proves_nonneg(e, env), detail::proves_nonneg_expr(e, env))
        << e.to_string();
  }
  // The tree path still proves what it can.
  EXPECT_TRUE(proves_nonneg(fallbacks.back().first, fallbacks.back().second));
}

TEST(AbsintProver, CoefficientOverflowIsNotProven) {
  // Substituting i <= 2^40 * N into N - 2^40 * i multiplies 2^40 by 2^40.
  // The affine path refuses the claim, the symbolic engine throws on the
  // overflow, and the tree path drops that substitution.
  Env env{{"i", Interval{Expr(0), Expr(int64_t{1} << 40) * S("N")}}};
  Expr e = S("N") - Expr(int64_t{1} << 40) * S("i");
  EXPECT_FALSE(detail::proves_nonneg_linear(e, env).has_value());
  EXPECT_FALSE(detail::proves_nonneg_expr(e, env));
  EXPECT_FALSE(proves_nonneg(e, env));
  // The coefficient probe e(i+1) - e(i) negates -2^63: the claim is not
  // proven, rather than an error out of the prover.
  Expr m = Expr(INT64_MIN) * S("i") + S("N");
  EXPECT_FALSE(proves_nonneg(m, Env{{"i", Interval{Expr(0), S("N")}}}));
}

// -- interval arithmetic -----------------------------------------------------

TEST(AbsintInterval, EvalAddMul) {
  Env env{{"i", Interval{Expr(2), Expr(5)}}};
  Interval r = eval_interval(S("i") + Expr(3), env);
  ASSERT_TRUE(r.lo && r.hi);
  EXPECT_TRUE(r.lo->equals(Expr(5)));
  EXPECT_TRUE(r.hi->equals(Expr(8)));
  // Constant scaling flips on negative factors.
  r = eval_interval(Expr(-2) * S("i"), env);
  ASSERT_TRUE(r.lo && r.hi);
  EXPECT_TRUE(r.lo->equals(Expr(-10)));
  EXPECT_TRUE(r.hi->equals(Expr(-4)));
}

TEST(AbsintInterval, EvalModAndFloorDiv) {
  Env env;
  Interval r = eval_interval(sym::mod(S("x"), S("N")), env);
  ASSERT_TRUE(r.lo);
  EXPECT_TRUE(r.lo->equals(Expr(0)));
  r = eval_interval(sym::floordiv(S("x"), Expr(2)), env);
  ASSERT_TRUE(r.lo);  // x >= 1 by convention, so x/2 >= 0
  EXPECT_TRUE(r.lo->equals(Expr(0)));
}

TEST(AbsintInterval, JoinAndWiden) {
  Interval a{Expr(0), Expr(0)};
  Interval b{Expr(1), Expr(1)};
  Interval j = join(a, b);
  ASSERT_TRUE(j.lo && j.hi);
  EXPECT_TRUE(j.lo->equals(Expr(0)));
  EXPECT_TRUE(j.hi->equals(Expr(1)));
  Interval w = widen(a, j);
  ASSERT_TRUE(w.lo);
  EXPECT_TRUE(w.lo->equals(Expr(0)));
  EXPECT_FALSE(w.hi.has_value());  // unstable bound dropped
}

// -- symbol ranges over the state machine ------------------------------------

/// i := 0; while (i < N) { body }; i := i + 1  -- the canonical loop the
/// frontend emits for `for i in range(N)`.
std::unique_ptr<SDFG> make_loop_sdfg() {
  auto g = std::make_unique<SDFG>("loop");
  g->add_symbol("N");
  g->add_array("A", DType::f64, {S("N")});
  g->add_arg("A");
  State& init = g->add_state("init", true);
  State& guard = g->add_state("guard");
  State& body = g->add_state("body");
  State& done = g->add_state("done");
  (void)init;
  (void)done;
  int gi = 0, gg = 1, gb = 2, gd = 3;
  CodeExpr cond = CodeExpr::binary(CodeOp::Lt, CodeExpr::symbol("i"),
                                   CodeExpr::symbol("N"));
  CodeExpr ncond = CodeExpr::unary(CodeOp::Not, cond);
  g->add_interstate_edge(gi, gg, CodeExpr(), {{"i", Expr(0)}});
  g->add_interstate_edge(gg, gb, cond);
  g->add_interstate_edge(gb, gg, CodeExpr(), {{"i", S("i") + Expr(1)}});
  g->add_interstate_edge(gg, gd, ncond);
  // Body reads/writes A[i].
  State& b = g->state(gb);
  int ra = b.add_access("A");
  int wa = b.add_access("A");
  int tl = b.add_tasklet("t", {"x"},
                         CodeExpr::input("x") + CodeExpr::constant(1.0));
  b.add_edge(ra, "", tl, "x", Memlet("A", Subset::element({S("i")})));
  b.add_edge(tl, "__out", wa, "", Memlet("A", Subset::element({S("i")})));
  (void)guard;
  (void)body;
  return g;
}

TEST(AbsintRanges, LoopVariableGetsWidenedThenRefined) {
  auto g = make_loop_sdfg();
  SymbolRanges ranges = SymbolRanges::compute(*g);
  // At the body state the guard condition i < N has been applied:
  // i is in [0, N-1].
  const Env& body = ranges.at(2);
  auto it = body.find("i");
  ASSERT_NE(it, body.end());
  ASSERT_TRUE(it->second.lo.has_value());
  EXPECT_TRUE(it->second.lo->equals(Expr(0)));
  ASSERT_TRUE(it->second.hi.has_value());
  EXPECT_TRUE(it->second.hi->equals(S("N") - Expr(1)));
  // The body access A[i] is then provably in range.
  const State& st = g->state(2);
  for (const auto& e : st.edges()) {
    if (e.memlet.empty()) continue;
    Env env = edge_env(st, e, body);
    EXPECT_EQ(subset_in_range(e.memlet.subset, {S("N")}, env),
              Verdict::Proven);
  }
}

TEST(AbsintRanges, ExitStateKnowsTheLoopRanOut) {
  auto g = make_loop_sdfg();
  SymbolRanges ranges = SymbolRanges::compute(*g);
  // After the loop, i >= 0 survives; the unstable upper bound was
  // widened away at the back-edge.
  const Env& done = ranges.at(3);
  auto it = done.find("i");
  ASSERT_NE(it, done.end());
  ASSERT_TRUE(it->second.lo.has_value());
  EXPECT_TRUE(it->second.lo->equals(Expr(0)));
}

TEST(AbsintRanges, ConditionRefinementOnPlainEdge) {
  // One edge guarded by M >= 5 refines the free symbol's interval.
  auto g = std::make_unique<SDFG>("cond");
  g->add_symbol("M");
  g->add_state("a", true);
  g->add_state("b");
  g->add_interstate_edge(0, 1,
                         CodeExpr::binary(CodeOp::Ge, CodeExpr::symbol("M"),
                                          CodeExpr::constant(5.0)));
  SymbolRanges ranges = SymbolRanges::compute(*g);
  EXPECT_TRUE(proves_nonneg(S("M") - Expr(5), ranges.at(1)));
  EXPECT_FALSE(proves_nonneg(S("M") - Expr(5), ranges.at(0)));
}

// -- verdicts ----------------------------------------------------------------

TEST(AbsintVerdicts, InRangeProvenUnknownRefuted) {
  Env env{{"i", Interval{Expr(0), S("N") - Expr(1)}}};
  std::vector<Expr> shape{S("N")};
  EXPECT_EQ(subset_in_range(Subset::element({S("i")}), shape, env),
            Verdict::Proven);
  EXPECT_EQ(subset_in_range(Subset::element({S("i") + Expr(1)}), shape, env),
            Verdict::Unknown);
  EXPECT_EQ(subset_in_range(Subset::element({S("N")}), shape, env),
            Verdict::Refuted);
  EXPECT_EQ(subset_in_range(Subset::element({Expr(-1)}), shape, env),
            Verdict::Refuted);
}

TEST(AbsintVerdicts, DisjointnessViaEnvironment) {
  // [0, K) vs [K*d, K*d + K): separated iff K*d - K >= 0, i.e. d >= 1.
  Subset a({Range(Expr(0), S("K"))});
  Subset b({Range(S("K") * S("d"), S("K") * S("d") + S("K"))});
  Env env{{"d", Interval::at_least(Expr(1))}};
  EXPECT_EQ(proves_disjoint(a, b, env), std::optional<bool>(true));
  EXPECT_EQ(proves_disjoint(a, b, Env{{"d", Interval::top()}}), std::nullopt);
}

// -- stride classification ---------------------------------------------------

TEST(AbsintStride, PerDimensionAndFlat) {
  EXPECT_EQ(stride_of(S("j"), "j").cls, StrideClass::Unit);
  EXPECT_EQ(stride_of(S("j") * Expr(4), "j").cls, StrideClass::Constant);
  EXPECT_EQ(*stride_of(S("j") * Expr(4), "j").stride, 4);
  EXPECT_EQ(stride_of(S("i"), "j").cls, StrideClass::Zero);
  EXPECT_EQ(stride_of(S("j") * S("M"), "j").cls, StrideClass::Affine);
  EXPECT_EQ(stride_of(S("j") * S("j"), "j").cls, StrideClass::Unknown);

  // A[i, j] in row-major (N, M): unit in j, affine (stride M) in i.
  std::vector<Expr> shape{S("N"), S("M")};
  Subset el = Subset::element({S("i"), S("j")});
  EXPECT_EQ(flat_stride(shape, el, "j").cls, StrideClass::Unit);
  EXPECT_EQ(flat_stride(shape, el, "i").cls, StrideClass::Affine);
  // Transposed access A[j, i]: non-unit innermost.
  Subset tr = Subset::element({S("j"), S("i")});
  EXPECT_EQ(flat_stride(shape, tr, "j").cls, StrideClass::Affine);
  // Constant shapes give constant strides.
  std::vector<Expr> cshape{S("N"), Expr(4)};
  EXPECT_EQ(flat_stride(cshape, el, "i").cls, StrideClass::Constant);
  EXPECT_EQ(*flat_stride(cshape, el, "i").stride, 4);
}

// -- map facts ---------------------------------------------------------------

/// One-state SDFG with a map over [0, N) whose tasklet copies
/// A[read] -> B[write].
std::unique_ptr<SDFG> map_copy(const Subset& read, const Subset& write) {
  auto g = std::make_unique<SDFG>("copy");
  g->add_symbol("N");
  g->add_array("A", DType::f64, {S("N")});
  g->add_array("B", DType::f64, {S("N")});
  g->add_arg("A");
  g->add_arg("B");
  State& st = g->add_state("main", true);
  int na = st.add_access("A");
  int nb = st.add_access("B");
  auto [me, mx] = st.add_map("m", {"i"}, Subset({Range(Expr(0), S("N"))}));
  int tl = st.add_tasklet("t", {"x"}, CodeExpr::input("x"));
  st.add_edge(na, "", me, "IN_A", Memlet("A", Subset::full({S("N")})));
  st.add_edge(me, "OUT_A", tl, "x", Memlet("A", read));
  st.add_edge(tl, "__out", mx, "IN_B", Memlet("B", write));
  st.add_edge(mx, "OUT_B", nb, "", Memlet("B", Subset::full({S("N")})));
  return g;
}

int find_map_entry(const State& st) {
  for (int nid : st.node_ids())
    if (st.node_as<ir::MapEntry>(nid)) return nid;
  return -1;
}

TEST(AbsintMapFacts, CleanCopyIsProvenAndVectorizable) {
  auto g = map_copy(Subset::element({S("i")}), Subset::element({S("i")}));
  const State& st = g->state(0);
  MapFacts f = analyze_map(*g, st, find_map_entry(st), Env{});
  EXPECT_TRUE(f.all_in_range);
  EXPECT_TRUE(f.innermost_contiguous);
  EXPECT_TRUE(f.vectorizable);
}

TEST(AbsintMapFacts, ShiftedReadIsNotProven) {
  // A[i+1] over i in [0, N) touches A[N]: out of range at the last
  // iteration, so the scope must keep its guard.
  auto g = map_copy(Subset::element({S("i") + Expr(1)}),
                    Subset::element({S("i")}));
  const State& st = g->state(0);
  MapFacts f = analyze_map(*g, st, find_map_entry(st), Env{});
  EXPECT_FALSE(f.all_in_range);
}

TEST(AbsintMapFacts, StridedWriteIsNotContiguous) {
  auto g = map_copy(Subset::element({S("i")}),
                    Subset::element({sym::mod(S("i") * Expr(2), S("N"))}));
  const State& st = g->state(0);
  MapFacts f = analyze_map(*g, st, find_map_entry(st), Env{});
  EXPECT_FALSE(f.innermost_contiguous);
  EXPECT_FALSE(f.vectorizable);
}

// -- lint --------------------------------------------------------------------

int count_findings(const AnalysisReport& r, const std::string& analysis,
                   Severity sev) {
  int n = 0;
  for (const auto& d : r.diagnostics())
    n += d.analysis == analysis && d.severity == sev;
  return n;
}

TEST(AbsintLint, OutOfRangeMapAccessIsRefuted) {
  auto g = map_copy(Subset::element({S("i") + Expr(1)}),
                    Subset::element({S("i")}));
  AnalysisReport report;
  lint(*g, report);
  EXPECT_GE(count_findings(report, "range", Severity::Error), 1);
}

TEST(AbsintLint, CleanMapIsSilent) {
  auto g = map_copy(Subset::element({S("i")}), Subset::element({S("i")}));
  AnalysisReport report;
  lint(*g, report);
  EXPECT_EQ(count_findings(report, "range", Severity::Error), 0);
  EXPECT_EQ(count_findings(report, "range", Severity::Warning), 0);
  EXPECT_EQ(count_findings(report, "uninit-elem", Severity::Error), 0);
  EXPECT_EQ(count_findings(report, "deadwrite", Severity::Warning), 0);
}

/// state0 writes tmp twice (t1 -> tmp[0], t2 -> tmp[2:N]); state1 reads
/// only part of it into the output.
std::unique_ptr<SDFG> two_write_sdfg(const Subset& read1) {
  auto g = std::make_unique<SDFG>("elems");
  g->add_symbol("N");
  g->add_array("out", DType::f64, {S("N")});
  g->add_arg("out");
  g->add_array("tmp", DType::f64, {S("N")}, /*transient=*/true);
  State& s0 = g->add_state("produce", true);
  int t1 = s0.add_tasklet("t1", {}, CodeExpr::constant(1.0));
  int t2 = s0.add_tasklet("t2", {}, CodeExpr::constant(2.0));
  int a0 = s0.add_access("tmp");
  s0.add_edge(t1, "__out", a0, "", Memlet("tmp", Subset::element({Expr(0)})));
  s0.add_edge(t2, "__out", a0, "",
              Memlet("tmp", Subset({Range(Expr(2), S("N"))})));
  State& s1 = g->add_state("consume");
  int a1 = s1.add_access("tmp");
  int b1 = s1.add_access("out");
  int tc = s1.add_tasklet("c", {"x"}, CodeExpr::input("x"));
  s1.add_edge(a1, "", tc, "x", Memlet("tmp", read1));
  s1.add_edge(tc, "__out", b1, "", Memlet("out", Subset::element({Expr(0)})));
  g->add_interstate_edge(0, 1);
  return g;
}

TEST(AbsintLint, DeadElementWriteIsReported) {
  // Only tmp[0] is read afterwards: the [2, N) write is element-dead
  // even though the container itself is live (no A103 finding).
  auto g = two_write_sdfg(Subset::element({Expr(0)}));
  AnalysisReport report;
  lint(*g, report);
  EXPECT_EQ(count_findings(report, "deadwrite", Severity::Warning), 1);
  AnalysisReport classic = analysis::analyze(*g);
  EXPECT_EQ(count_findings(classic, "defuse", Severity::Warning), 0);
}

TEST(AbsintLint, UninitializedElementReadIsReported) {
  // tmp[1] is read but the writes cover only {0} and [2, N).
  auto g = two_write_sdfg(Subset::element({Expr(1)}));
  AnalysisReport report;
  lint(*g, report);
  EXPECT_GE(count_findings(report, "uninit-elem", Severity::Error), 1);
  // Container-level def-use sees a written container and stays silent.
  AnalysisReport classic = analysis::analyze(*g);
  EXPECT_EQ(count_findings(classic, "defuse", Severity::Error), 0);
}

TEST(AbsintLint, CoveredElementReadIsSilent) {
  auto g = two_write_sdfg(Subset::element({Expr(3)}));
  AnalysisReport report;
  lint(*g, report);
  EXPECT_EQ(count_findings(report, "uninit-elem", Severity::Error), 0);
}

TEST(AbsintLint, TransposedHotMapAccessWarnsA204) {
  auto g = std::make_unique<SDFG>("hot");
  g->add_symbol("N");
  g->add_symbol("M");
  g->add_array("A", DType::f64, {S("N"), S("M")});
  g->add_array("B", DType::f64, {S("N"), S("M")});
  g->add_arg("A");
  g->add_arg("B");
  State& st = g->add_state("main", true);
  int na = st.add_access("A");
  int nb = st.add_access("B");
  auto [me, mx] =
      st.add_map("m", {"i", "j"},
                 Subset({Range(Expr(0), S("N")), Range(Expr(0), S("M"))}),
                 ir::Schedule::CPUParallel);
  int tl = st.add_tasklet("t", {"x"}, CodeExpr::input("x"));
  st.add_edge(na, "", me, "IN_A",
              Memlet("A", Subset::full({S("N"), S("M")})));
  // Transposed read A[j, i]: affine stride M in the innermost param j.
  st.add_edge(me, "OUT_A", tl, "x",
              Memlet("A", Subset::element({S("j"), S("i")})));
  st.add_edge(tl, "__out", mx, "IN_B",
              Memlet("B", Subset::element({S("i"), S("j")})));
  st.add_edge(mx, "OUT_B", nb, "", Memlet("B", Subset::full({S("N"), S("M")})));
  AnalysisReport report;
  lint(*g, report);
  EXPECT_EQ(count_findings(report, "stride", Severity::Warning), 1);
}

// -- code_to_sym satellite ---------------------------------------------------

TEST(AbsintCodeToSym, DivisionAndNegation) {
  CodeExpr half = CodeExpr::binary(CodeOp::Div, CodeExpr::symbol("N"),
                                   CodeExpr::constant(2.0));
  auto e = ir::code_to_sym(half);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->equals(sym::floordiv(S("N"), Expr(2))));

  auto neg = ir::code_to_sym(CodeExpr::unary(CodeOp::Neg,
                                             CodeExpr::symbol("K")));
  ASSERT_TRUE(neg.has_value());
  EXPECT_TRUE(neg->equals(-S("K")));

  // to_code round-trip: floordiv goes out as Floor(Div(...)) and comes
  // back as floordiv.
  Expr fd = sym::floordiv(S("N") + Expr(1), Expr(3));
  auto back = ir::code_to_sym(ir::to_code(fd));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->equals(fd));

  // Non-integral constants stay unrepresentable.
  EXPECT_FALSE(ir::code_to_sym(CodeExpr::constant(0.5)).has_value());
}

// -- codegen consumers -------------------------------------------------------

int find_entry(const State& st) {
  for (int nid : st.node_ids()) {
    if (st.node_as<const ir::MapEntry>(nid) && st.scope_of(nid) == -1)
      return nid;
  }
  return -1;
}

int count_guards(const rt::Program& p) {
  int n = 0;
  for (const auto& in : p.code) n += in.op == rt::Op::Guard;
  return n;
}

TEST(AbsintCodegen, ProvenMapElidesGuardsAndEmitsRestrict) {
  // A clean copy is fully proven: no Guard ops, restrict-qualified
  // pointers in the native source.
  auto g = map_copy(Subset::element({S("i")}), Subset::element({S("i")}));
  const State& st = g->state(0);
  int entry = find_entry(st);
  ASSERT_GE(entry, 0);
  rt::Program p = rt::compile_map_scope(*g, st, entry);
  EXPECT_TRUE(p.use_restrict);
  EXPECT_TRUE(p.vec_innermost);
  EXPECT_EQ(count_guards(p), 0);
  std::vector<ir::DType> dtypes(p.arrays.size(), ir::DType::f64);
  std::string src = cg::generate_map_source(p, dtypes, "absint_clean");
  EXPECT_NE(src.find("__restrict__"), std::string::npos);
}

TEST(AbsintCodegen, UnprovenAccessGetsGuarded) {
  // The shifted read cannot be proven in range, so the compiler inserts
  // a Guard and withholds the restrict/vectorize flags' guard elision.
  auto g = map_copy(Subset::element({S("i") + Expr(1)}),
                    Subset::element({S("i")}));
  const State& st = g->state(0);
  int entry = find_entry(st);
  ASSERT_GE(entry, 0);
  rt::Program p = rt::compile_map_scope(*g, st, entry);
  EXPECT_GE(count_guards(p), 1);
  // The flags feed the JIT cache key: guarded and clean programs must
  // not collide.
  auto clean = map_copy(Subset::element({S("i")}), Subset::element({S("i")}));
  rt::Program cp = rt::compile_map_scope(*clean, clean->state(0),
                                         find_entry(clean->state(0)));
  EXPECT_NE(p.hash(), cp.hash());
}

TEST(AbsintCodegen, ModeDecidesGuards) {
  // The copy reads the unproven A[i+1] and writes the proven B[i].  Off
  // emits no guard at all (the unchecked behaviour from before the
  // interval analysis), the default guards the unproven read only, and
  // all guards both accesses.
  auto g = map_copy(Subset::element({S("i") + Expr(1)}),
                    Subset::element({S("i")}));
  const State& st = g->state(0);
  int entry = find_entry(st);
  ASSERT_GE(entry, 0);
  for (auto [mode, guards] : {std::pair{"0", 0}, {"1", 1}, {"all", 2}}) {
    env::Override absint("DACE_ABSINT", mode);
    EXPECT_EQ(count_guards(rt::compile_map_scope(*g, st, entry)), guards)
        << "DACE_ABSINT=" << mode;
  }
}

// The executor computes the symbol ranges once and hands each map compile
// its state's environment; the programs (guards and the restrict and
// vectorize flags included) match those the compiler builds from its
// own computation.
TEST(AbsintCodegen, SharedSymbolRangesCompileTheSamePrograms) {
  int maps = 0;
  for (const auto& k : kernels::suite()) {
    auto g = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*g, ir::DeviceType::CPU);
    SymbolRanges ranges = SymbolRanges::compute(*g);
    for (int sid : g->state_ids()) {
      const State& st = g->state(sid);
      for (int id : st.node_ids()) {
        if (st.node(id)->kind != ir::NodeKind::MapEntry ||
            st.scope_of(id) != -1)
          continue;
        rt::Program own = rt::compile_map_scope(*g, st, id);
        rt::Program shared =
            rt::compile_map_scope(*g, st, id, &ranges.at(sid));
        EXPECT_EQ(own.hash(), shared.hash()) << k.name << " map " << id;
        ++maps;
      }
    }
  }
  EXPECT_GT(maps, 21);
}

TEST(AbsintCodegen, GuardTrapsOutOfRangeExecution) {
  // Executing the shifted copy walks past the end of A on the last
  // iteration: the runtime guard must convert that into a structured
  // error instead of silently reading out of bounds.
  auto g = map_copy(Subset::element({S("i") + Expr(1)}),
                    Subset::element({S("i")}));
  rt::Bindings args;
  args.emplace("A", rt::Tensor(DType::f64, {8}));
  args.emplace("B", rt::Tensor(DType::f64, {8}));
  EXPECT_THROW(rt::execute(*g, args, {{"N", 8}}), dace::Error);
}

TEST(AbsintCodegen, StructuredInnerLoopGetsIvdep) {
  // 2-D contiguous map: the innermost bytecode loop is reconstructed as
  // a counted for-loop under #pragma GCC ivdep.
  auto g = std::make_unique<SDFG>("copy2d");
  g->add_symbol("N");
  g->add_symbol("M");
  g->add_array("A", DType::f64, {S("N"), S("M")});
  g->add_array("B", DType::f64, {S("N"), S("M")});
  g->add_arg("A");
  g->add_arg("B");
  State& st = g->add_state("main", true);
  int na = st.add_access("A");
  int nb = st.add_access("B");
  auto [me, mx] = st.add_map(
      "m", {"i", "j"},
      Subset({Range(Expr(0), S("N")), Range(Expr(0), S("M"))}));
  int tl = st.add_tasklet("t", {"x"}, CodeExpr::input("x"));
  st.add_edge(na, "", me, "IN_A", Memlet("A", Subset::full({S("N"), S("M")})));
  st.add_edge(me, "OUT_A", tl, "x",
              Memlet("A", Subset::element({S("i"), S("j")})));
  st.add_edge(tl, "__out", mx, "IN_B",
              Memlet("B", Subset::element({S("i"), S("j")})));
  st.add_edge(mx, "OUT_B", nb, "", Memlet("B", Subset::full({S("N"), S("M")})));
  int entry = find_entry(st);
  ASSERT_GE(entry, 0);
  rt::Program p = rt::compile_map_scope(*g, st, entry);
  EXPECT_TRUE(p.vec_innermost);
  std::vector<ir::DType> dtypes(p.arrays.size(), ir::DType::f64);
  std::string src = cg::generate_map_source(p, dtypes, "absint_copy2d");
  EXPECT_NE(src.find("__restrict__"), std::string::npos);
  EXPECT_NE(src.find("ivdep"), std::string::npos);
}

}  // namespace
}  // namespace dace
