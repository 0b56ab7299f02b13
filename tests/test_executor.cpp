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
