// End-to-end: DaCeLang -> SDFG -> executor, validated against directly
// computed references.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <random>

#include "common/common.hpp"
#include "common/env.hpp"
#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "kernels/suite.hpp"
#include "runtime/eager_interpreter.hpp"
#include "runtime/executor.hpp"
#include "runtime/tensor_ops.hpp"
#include "transforms/auto_optimize.hpp"

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

TEST(Executor, Axpy) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def axpy(alpha: dace.float64, x: dace.float64[N], y: dace.float64[N]):
    y[:] = alpha * x + y
)");
  const int64_t n = 100;
  Tensor x = random_tensor({n}, 1);
  Tensor y = random_tensor({n}, 2);
  Tensor y0 = y.copy();
  Bindings args{{"alpha", Tensor::scalar(2.5)}, {"x", x}, {"y", y}};
  rt::execute(*sdfg, args, {{"N", n}});
  for (int64_t i = 0; i < n; ++i)
    EXPECT_NEAR(y.get_flat(i), 2.5 * x.get_flat(i) + y0.get_flat(i), 1e-12);
}

TEST(Executor, PostStateHookObservesEveryState) {
  // The hook fires once per executed state with the live symbol values --
  // the fuzz sentinel checks build on this contract.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    for i in range(N):
        A[i] += 1.0
)");
  const int64_t n = 4;
  Tensor A = random_tensor({n}, 5);
  Bindings args{{"A", A}};
  rt::ExecutorOptions opts;
  int states = 0;
  int body_visits = 0;
  opts.post_state_hook = [&](const ir::State& st, const sym::SymbolMap& syms) {
    ++states;
    if (st.label().rfind("for_body", 0) == 0) {
      ++body_visits;
      auto it = syms.find("i");
      ASSERT_NE(it, syms.end());
      EXPECT_EQ(it->second, body_visits - 1);
    }
  };
  rt::execute(*sdfg, args, {{"N", n}}, opts);
  EXPECT_EQ(body_visits, n);
  EXPECT_GT(states, body_visits);
}

TEST(Executor, GemmMatchesReference) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def gemm(alpha: dace.float64, beta: dace.float64, C: dace.float64[NI, NJ],
         A: dace.float64[NI, NK], B: dace.float64[NK, NJ]):
    C[:] = alpha * A @ B + beta * C
)");
  const int64_t ni = 13, nj = 17, nk = 11;
  Tensor A = random_tensor({ni, nk}, 3);
  Tensor B = random_tensor({nk, nj}, 4);
  Tensor C = random_tensor({ni, nj}, 5);
  Tensor ref = rt::ops::add(
      rt::ops::mul(Tensor::scalar(1.5), rt::ops::matmul(A, B)),
      rt::ops::mul(Tensor::scalar(0.5), C));
  Bindings args{{"alpha", Tensor::scalar(1.5)},
                {"beta", Tensor::scalar(0.5)},
                {"C", C},
                {"A", A},
                {"B", B}};
  rt::execute(*sdfg, args, {{"NI", ni}, {"NJ", nj}, {"NK", nk}});
  EXPECT_TRUE(rt::allclose(C, ref, 1e-9, 1e-9));
}

TEST(Executor, Jacobi1DTimeLoop) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def jacobi_1d(TSTEPS: dace.int32, A: dace.float64[N], B: dace.float64[N]):
    for t in range(1, TSTEPS):
        B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
        A[1:-1] = 0.33333 * (B[:-2] + B[1:-1] + B[2:])
)");
  const int64_t n = 64, tsteps = 5;
  Tensor A = random_tensor({n}, 7);
  Tensor B = random_tensor({n}, 8);
  Tensor Ar = A.copy(), Br = B.copy();
  // Reference.
  for (int64_t t = 1; t < tsteps; ++t) {
    for (int64_t i = 1; i < n - 1; ++i)
      Br.at({i}) = 0.33333 * (Ar.at({i - 1}) + Ar.at({i}) + Ar.at({i + 1}));
    for (int64_t i = 1; i < n - 1; ++i)
      Ar.at({i}) = 0.33333 * (Br.at({i - 1}) + Br.at({i}) + Br.at({i + 1}));
  }
  Bindings args{{"A", A}, {"B", B}};
  rt::execute(*sdfg, args, {{"N", n}, {"TSTEPS", tsteps}});
  EXPECT_TRUE(rt::allclose(A, Ar, 1e-9, 1e-12));
  EXPECT_TRUE(rt::allclose(B, Br, 1e-9, 1e-12));
}

TEST(Executor, DaceMapTranspose) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def transpose(A: dace.float64[M, N], B: dace.float64[N, M]):
    for i, j in dace.map[0:M, 0:N]:
        A[i, j] = B[j, i]
)");
  const int64_t m = 9, n = 12;
  Tensor A(ir::DType::f64, {m, n});
  Tensor B = random_tensor({n, m}, 9);
  Bindings args{{"A", A}, {"B", B}};
  rt::execute(*sdfg, args, {{"M", m}, {"N", n}});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j)
      EXPECT_EQ(A.at({i, j}), B.at({j, i}));
  }
}

TEST(Executor, WcrSumReduction) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def red(alpha: dace.float64, C: dace.float64[NI, NJ]):
    for i, j in dace.map[0:NI, 0:NJ]:
        alpha += C[i, j]
)");
  const int64_t ni = 21, nj = 17;
  Tensor C = random_tensor({ni, nj}, 10);
  Tensor alpha = Tensor::scalar(1.0);
  Bindings args{{"alpha", alpha}, {"C", C}};
  rt::execute(*sdfg, args, {{"NI", ni}, {"NJ", nj}});
  EXPECT_NEAR(alpha.value(), 1.0 + rt::ops::sum_all(C), 1e-9);
}

TEST(Executor, IfBranchesOnSymbols) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    if N > 10:
        A[:] = A * 2.0
    else:
        A[:] = A * 3.0
)");
  Tensor A1 = Tensor::from_values({20}, std::vector<double>(20, 1.0));
  Bindings a1{{"A", A1}};
  rt::execute(*sdfg, a1, {{"N", 20}});
  EXPECT_EQ(A1.get_flat(0), 2.0);
  Tensor A2 = Tensor::from_values({5}, std::vector<double>(5, 1.0));
  Bindings a2{{"A", A2}};
  rt::execute(*sdfg, a2, {{"N", 5}});
  EXPECT_EQ(A2.get_flat(0), 3.0);
}

TEST(Executor, ReduceLibraryNode) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N, M], out: dace.float64[M]):
    out[:] = np.sum(A, axis=0) / N
)");
  const int64_t n = 8, m = 6;
  Tensor A = random_tensor({n, m}, 11);
  Tensor out(ir::DType::f64, {m});
  Bindings args{{"A", A}, {"out", out}};
  rt::execute(*sdfg, args, {{"N", n}, {"M", m}});
  Tensor ref = rt::ops::div(rt::ops::sum_axis(A, 0),
                            Tensor::scalar((double)n));
  EXPECT_TRUE(rt::allclose(out, ref));
}

TEST(Executor, MatVecViews) {
  // doitgen-style: 1D view of a 3D array times a matrix.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[NR, NQ, NP], C4: dace.float64[NP, NP]):
    for r in range(NR):
        for q in range(NQ):
            tmp = np.zeros((NP,), dtype=A.dtype)
            tmp[:] = A[r, q, :] @ C4
            A[r, q, :] = tmp
)");
  const int64_t nr = 3, nq = 4, np_ = 5;
  Tensor A = random_tensor({nr, nq, np_}, 12);
  Tensor C4 = random_tensor({np_, np_}, 13);
  Tensor Ar = A.copy();
  Bindings args{{"A", A}, {"C4", C4}};
  rt::execute(*sdfg, args, {{"NR", nr}, {"NQ", nq}, {"NP", np_}});
  for (int64_t r = 0; r < nr; ++r) {
    for (int64_t q = 0; q < nq; ++q) {
      for (int64_t p = 0; p < np_; ++p) {
        double acc = 0;
        for (int64_t s = 0; s < np_; ++s)
          acc += Ar.at({r, q, s}) * C4.at({s, p});
        EXPECT_NEAR(A.at({r, q, p}), acc, 1e-9);
      }
    }
  }
}

TEST(Executor, MalformedViewdimsIsRejectedWhenThePlanIsBuilt) {
  // A library node's viewdims attribute is parsed once, when its state's
  // plan is built.  Malformed text or a dim outside the memlet's rank is
  // a dace::Error naming the node, the attribute and its text.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def mv(A: dace.float64[N, M], x: dace.float64[M], y: dace.float64[N]):
    y[:] = A @ x
)");
  const std::string saved = sdfg->save();
  const std::string attr = "(attr \"viewdims_a\" \"0,1\")";
  ASSERT_NE(saved.find(attr), std::string::npos) << saved;
  const int64_t n = 5, m = 4;
  auto run = [&](const std::string& text) {
    auto g = ir::load_sdfg(text);
    Tensor A = random_tensor({n, m}, 31);
    Tensor x = random_tensor({m}, 32);
    Tensor y(ir::DType::f64, {n});
    Bindings args{{"A", A}, {"x", x}, {"y", y}};
    rt::execute(*g, args, {{"N", n}, {"M", m}});
    return rt::allclose(y, rt::ops::matmul(A, x));
  };
  EXPECT_TRUE(run(saved));
  for (const std::string bad : {"x", "0,1,9", "7"}) {
    SCOPED_TRACE(bad);
    std::string text = saved;
    text.replace(text.find(attr), attr.size(),
                 "(attr \"viewdims_a\" \"" + bad + "\")");
    try {
      run(text);
      ADD_FAILURE() << "viewdims_a = \"" << bad << "\" was accepted";
    } catch (const Error& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("library node 'MatMul'"), std::string::npos) << what;
      EXPECT_NE(what.find("viewdims_a = \"" + bad + "\""), std::string::npos)
          << what;
    }
  }
}

// A one-state SDFG whose MatMul library node reads `a` and `b` and writes
// `c`.  The containers are N x N f64 matrices, all arguments, except
// those named in `others`.
std::unique_ptr<ir::SDFG> matmul_program(
    const std::map<std::string, std::pair<ir::DType, std::vector<sym::Expr>>>&
        others,
    const ir::Memlet& a, const ir::Memlet& b, const ir::Memlet& c) {
  auto g = std::make_unique<ir::SDFG>("mm");
  g->add_symbol("N");
  for (const ir::Memlet* m : {&a, &b, &c}) {
    if (g->has_array(m->data)) continue;
    auto it = others.find(m->data);
    if (it == others.end()) {
      g->add_array(m->data, ir::DType::f64, {sym::S("N"), sym::S("N")});
    } else {
      g->add_array(m->data, it->second.first, it->second.second);
    }
    g->add_arg(m->data);
  }
  ir::State& st = g->add_state("main", true);
  int lib = st.add_library("MatMul");
  st.add_edge(st.add_access(a.data), "", lib, "_a", a);
  st.add_edge(st.add_access(b.data), "", lib, "_b", b);
  st.add_edge(lib, "_c", st.add_access(c.data), "", c);
  return g;
}

// The MatMul handler writes the product straight into its output view
// only when the view is contiguous, of the product's shape and dtype, and
// apart from both operands; any other view gets a copy.  Either way the
// result equals the eager interpreter's, bit for bit.
TEST(Executor, MatMulOutputViewsMatchEager) {
  using sym::Range;
  using sym::S;
  using sym::Subset;
  const int64_t n = 19;
  const sym::Expr N = S("N");
  const Subset full = Subset::full({N, N});
  struct Case {
    const char* name;
    std::map<std::string, std::pair<ir::DType, std::vector<sym::Expr>>>
        others;
    ir::Memlet a, b, c;
    const char* source;
  };
  const std::vector<Case> cases = {
      {"contiguous output, stale contents",
       {},
       ir::Memlet("A", full),
       ir::Memlet("B", full),
       ir::Memlet("C", full),
       R"(
@dace.program
def f(A: dace.float64[N, N], B: dace.float64[N, N], C: dace.float64[N, N]):
    C[:] = A @ B
)"},
      {"output aliases an input",
       {},
       ir::Memlet("A", full),
       ir::Memlet("B", full),
       ir::Memlet("A", full),
       R"(
@dace.program
def f(A: dace.float64[N, N], B: dace.float64[N, N]):
    A[:] = A @ B
)"},
      {"strided output: one column of a matrix",
       {{"x", {ir::DType::f64, {N, sym::Expr(1)}}}},
       ir::Memlet("A", full),
       ir::Memlet("x", Subset::full({N, sym::Expr(1)})),
       ir::Memlet("C", Subset({Range(sym::Expr(0), N),
                               Range(sym::Expr(2), sym::Expr(3))})),
       R"(
@dace.program
def f(A: dace.float64[N, N], x: dace.float64[N, 1], C: dace.float64[N, N]):
    C[:, 2:3] = A @ x
)"},
      {"f32 output of f64 operands",
       {{"C", {ir::DType::f32, {N, N}}}},
       ir::Memlet("A", full),
       ir::Memlet("B", full),
       ir::Memlet("C", full),
       R"(
@dace.program
def f(A: dace.float64[N, N], B: dace.float64[N, N], C: dace.float32[N, N]):
    C[:] = A @ B
)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto g = matmul_program(c.others, c.a, c.b, c.c);
    fe::Module mod = fe::parse(c.source);
    Bindings args, eager;
    unsigned seed = 40;
    for (const fe::Param& p : mod.functions[0].params) {
      const ir::DataDesc& d = g->array(p.name);
      std::vector<int64_t> shape;
      for (const sym::Expr& e : d.shape) shape.push_back(e.eval({{"N", n}}));
      Tensor t = random_tensor(shape, seed++).astype(d.dtype);
      args.emplace(p.name, t);
      eager.emplace(p.name, t.copy());
    }
    rt::execute(*g, args, {{"N", n}});
    rt::EagerInterpreter(mod.functions[0]).run(eager, {{"N", n}});
    for (const auto& [name, t] : args) {
      const Tensor& want = eager.at(name);
      ASSERT_EQ(t.shape(), want.shape()) << name;
      for (int64_t i = 0; i < t.size(); ++i)
        ASSERT_EQ(t.get_flat(i), want.get_flat(i)) << name << "[" << i << "]";
    }
  }
}

TEST(Executor, OuterProductGemver) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N, N], u1: dace.float64[N], v1: dace.float64[N]):
    A[:] = A + np.outer(u1, v1)
)");
  const int64_t n = 10;
  Tensor A = random_tensor({n, n}, 14);
  Tensor u1 = random_tensor({n}, 15);
  Tensor v1 = random_tensor({n}, 16);
  Tensor ref = rt::ops::add(A, rt::ops::outer(u1, v1));
  Bindings args{{"A", A}, {"u1", u1}, {"v1", v1}};
  rt::execute(*sdfg, args, {{"N", n}});
  EXPECT_TRUE(rt::allclose(A, ref));
}

TEST(Executor, SymbolsInTaskletExpressions) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    for i in dace.map[0:N]:
        A[i] = 2.0 * i + 1.0
)");
  const int64_t n = 12;
  Tensor A(ir::DType::f64, {n});
  Bindings args{{"A", A}};
  rt::execute(*sdfg, args, {{"N", n}});
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(A.get_flat(i), 2.0 * i + 1.0);
}

TEST(Executor, NestedCallsAddTheirStatsOnce) {
  // A nested SDFG keeps one executor across calls; each call adds what it
  // did to the caller's statistics, not the callee's running total.
  env::Override jit("DACEPP_JIT", "0");
  const std::string inner = R"(
@dace.program
def inner(A: dace.float64[N]):
    A[:] = A + 1.0
)";
  auto outer = compile_to_sdfg(inner + R"(
@dace.program
def outer(A: dace.float64[N]):
    for t in range(4):
        inner(A)
)");
  auto once = compile_to_sdfg(inner);
  Tensor A(ir::DType::f64, {16}), B(ir::DType::f64, {16});
  Bindings a{{"A", A}}, b{{"A", B}};
  rt::Executor ex(*outer), ex1(*once);
  ex.run(a, {{"N", 16}});
  ex1.run(b, {{"N", 16}});
  EXPECT_EQ(A.get_flat(0), 4.0);
  EXPECT_GT(ex1.stats().flops, 0u);
  EXPECT_EQ(ex.stats().flops, 4 * ex1.stats().flops);
}

TEST(Executor, MissingSymbolIsAnError) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = A + 1.0
)");
  Tensor A(ir::DType::f64, {4});
  Bindings args{{"A", A}};
  EXPECT_THROW(rt::execute(*sdfg, args, {}), Error);
}

TEST(Executor, MissingArgumentIsAnError) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = A + 1.0
)");
  Bindings args;
  EXPECT_THROW(rt::execute(*sdfg, args, {{"N", 4}}), Error);
}

TEST(Executor, StatsAreCollected) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = A + 1.0
)");
  Tensor A(ir::DType::f64, {32});
  Bindings args{{"A", A}};
  rt::Executor ex(*sdfg);
  ex.run(args, {{"N", 32}});
  EXPECT_GE(ex.stats().flops, 32u);
  EXPECT_GE(ex.stats().loads, 32u);
  EXPECT_GE(ex.stats().stores, 32u);
  EXPECT_GE(ex.map_launches(), 1);
}

TEST(Executor, CancelCheckAbortsAndExecutorStaysReusable) {
  // Cooperative cancellation (sdfg-serve deadlines): a cancel_check that
  // trips mid-run aborts with a "cancelled" error, and the *same*
  // executor, tensors, and thread pool run cleanly once it clears.
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[0:N]:
        B[i] = 2.0 * A[i] + B[i]
)");
  const int64_t n = 1 << 16;
  Tensor A = random_tensor({n}, 11);
  Tensor B(ir::DType::f64, {n});
  Bindings args{{"A", A}, {"B", B}};

  std::atomic<bool> cancel{true};
  rt::ExecutorOptions opts;
  opts.cancel_check = [&] { return cancel.load(); };
  rt::Executor ex(*sdfg, opts);
  try {
    ex.run(args, {{"N", n}});
    FAIL() << "run must abort when cancel_check is armed";
  } catch (const dace::Error& e) {
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos)
        << e.what();
  }

  // Disarm and rerun on the same executor: full, correct output.
  cancel.store(false);
  for (int64_t i = 0; i < n; ++i) B.set_flat(i, 0.0);
  ex.run(args, {{"N", n}});
  for (int64_t i = 0; i < n; i += 997)
    EXPECT_EQ(B.get_flat(i), 2.0 * A.get_flat(i));

  // A check that arms only after the first poll (so the run is already
  // past its first state boundary) must also abort -- and again leave
  // everything reusable.
  std::atomic<int> polls{0};
  opts.cancel_check = [&] { return polls.fetch_add(1) > 0; };
  rt::Executor ex2(*sdfg, opts);
  EXPECT_THROW(ex2.run(args, {{"N", n}}), dace::Error);
  opts.cancel_check = nullptr;
  rt::Executor ex3(*sdfg, opts);
  for (int64_t i = 0; i < n; ++i) B.set_flat(i, 0.0);
  ex3.run(args, {{"N", n}});
  for (int64_t i = 0; i < n; i += 997)
    EXPECT_EQ(B.get_flat(i), 2.0 * A.get_flat(i));
}

TEST(Executor, CompileBelowTier1WritesNoFiles) {
  // With no map promoted to native code, compiling, running and tearing
  // down a program touches nothing on disk: a fresh cache root stays
  // free of regular files.
  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/dacepp-nowrite-XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  {
    env::Override jit("DACEPP_JIT", "0");
    env::Override dir("DACE_CACHE_DIR", root.c_str());
    auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[0:N]:
        B[i] = 2.0 * A[i] + B[i]
)");
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    Tensor A = random_tensor({64}, 5);
    Tensor B(ir::DType::f64, {64});
    Bindings args{{"A", A}, {"B", B}};
    rt::Executor ex(*sdfg);
    ex.run(args, {{"N", 64}});
    EXPECT_EQ(B.get_flat(3), 2.0 * A.get_flat(3));
  }
  std::vector<std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(root))
    if (e.is_regular_file()) files.push_back(e.path().string());
  fs::remove_all(root);
  EXPECT_TRUE(files.empty()) << files.size() << " file(s), first "
                             << (files.empty() ? "" : files.front());
}

/// The top-level map of a single-map SDFG, compiled as the executor
/// compiles it.
rt::Program top_map_program(const ir::SDFG& sdfg) {
  for (int s : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(s);
    for (int id : st.node_ids())
      if (st.node(id)->kind == ir::NodeKind::MapEntry &&
          st.scope_of(id) == -1)
        return rt::compile_map_scope(sdfg, st, id);
  }
  return {};
}

TEST(Executor, MapBindingsAreRebuiltOnEveryRun) {
  // A map's operands, symbol cells and restrict verdict are bound once per
  // run.  Each run on one executor must bind its own arguments: aliased
  // ones fall back to Tier 0, resized ones are written in full.
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  const char* src = R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[0:N]:
        B[i] = 2.0 * A[i] + 1.0
)";
  auto sdfg = compile_to_sdfg(src);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  ASSERT_TRUE(top_map_program(*sdfg).use_restrict);
  rt::Executor ex(*sdfg);

  // Run 1: disjoint arguments run natively.
  const int64_t n = 64;
  Tensor A = random_tensor({n}, 21);
  Tensor B(ir::DType::f64, {n});
  Bindings args{{"A", A}, {"B", B}};
  ex.run(args, {{"N", n}});
  const int64_t native = ex.native_launches();
  EXPECT_GT(native, 0);
  for (int64_t i = 0; i < n; ++i)
    EXPECT_EQ(B.get_flat(i), 2.0 * A.get_flat(i) + 1.0);

  // Run 2: A and B are one buffer, so __restrict__ does not hold and the
  // launch runs on the VM, with the eager interpreter's result.
  Tensor C = random_tensor({n}, 22);
  Tensor C_eager = C.copy();
  Bindings aliased{{"A", C}, {"B", C}};
  ex.run(aliased, {{"N", n}});
  EXPECT_EQ(ex.native_launches(), native);
  fe::Module mod = fe::parse(src);
  rt::EagerInterpreter interp(mod.functions[0]);
  Bindings eager{{"A", C_eager}, {"B", C_eager}};
  interp.run(eager, {{"N", n}});
  for (int64_t i = 0; i < n; ++i)
    EXPECT_EQ(C.get_flat(i), C_eager.get_flat(i)) << "element " << i;

  // Run 3: fresh tensors of another size and a new N, as a fresh
  // executor runs them.
  const int64_t m = 100;
  Tensor A3 = random_tensor({m}, 23);
  Tensor B3(ir::DType::f64, {m}), B3_fresh(ir::DType::f64, {m});
  Bindings args3{{"A", A3}, {"B", B3}};
  ex.run(args3, {{"N", m}});
  EXPECT_GT(ex.native_launches(), native);
  Bindings fresh_args{{"A", A3}, {"B", B3_fresh}};
  rt::Executor fresh(*sdfg);
  fresh.run(fresh_args, {{"N", m}});
  for (int64_t i = 0; i < m; ++i)
    EXPECT_EQ(B3.get_flat(i), B3_fresh.get_flat(i)) << "element " << i;
}

TEST(Executor, DoitgenRunsTwiceOnOneExecutor) {
  // doitgen reassigns its loop symbols on interstate edges and calls
  // MatMul inside the loop: a second run on new inputs must rebind the
  // library operands and symbol cells, not reuse the first run's.
  const kernels::Kernel& k = kernels::kernel("doitgen");
  const sym::SymbolMap& sizes = k.presets.at("test");
  auto sdfg = compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::Executor ex(*sdfg);
  for (unsigned seed : {101u, 202u}) {
    SCOPED_TRACE(seed);
    Bindings b = k.init(sizes);
    kernels::fill_pattern(b.at("A"), seed);
    kernels::fill_pattern(b.at("C4"), seed + 1);
    Bindings ref{{"A", b.at("A").copy()}, {"C4", b.at("C4").copy()}};
    k.reference(ref, sizes);
    ex.run(b, sizes);
    EXPECT_TRUE(rt::allclose(b.at("A"), ref.at("A"), 1e-9, 1e-11))
        << "max diff " << rt::max_abs_diff(b.at("A"), ref.at("A"));
  }
}

// Parameterized sweep: the same program over many sizes (symbolic shape
// reuse, the AOT motivation from Section 2.2).
class ExecutorSizeSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(ExecutorSizeSweep, ScaleByTwo) {
  static auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    B[:] = A * 2.0
)");
  int64_t n = GetParam();
  Tensor A = random_tensor({n}, (unsigned)n);
  Tensor B(ir::DType::f64, {n});
  Bindings args{{"A", A}, {"B", B}};
  rt::execute(*sdfg, args, {{"N", n}});
  for (int64_t i = 0; i < n; ++i)
    EXPECT_EQ(B.get_flat(i), 2.0 * A.get_flat(i));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExecutorSizeSweep,
                         ::testing::Values(1, 2, 3, 7, 64, 1000));

}  // namespace
}  // namespace dace
