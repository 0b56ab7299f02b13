// google-benchmark microbenchmarks of the substrate hot paths: the
// bytecode VM (with and without the Tier-0 optimizer), eager tensor ops,
// symbolic engine, interval prover, and simMPI primitives.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "analysis/absint.hpp"
#include "bench_common.hpp"
#include "common/env.hpp"
#include "distributed/simmpi.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/bytecode_opt.hpp"
#include "runtime/executor.hpp"
#include "runtime/tensor_ops.hpp"
#include "testing/fuzzgen.hpp"
#include "transforms/auto_optimize.hpp"

using namespace dace;

namespace {

/// A map-scope bytecode program bound to fresh tensors, ready for vm_run.
struct MapBench {
  rt::Program prog;
  std::vector<rt::Tensor> store;
  std::vector<rt::ArrayRef> arrays;
  std::vector<int64_t> syms;
  int64_t begin = 0, end = 0;
};

MapBench make_map_bench(const std::string& source,
                        const sym::SymbolMap& sizes, bool optimize) {
  MapBench mb;
  auto sdfg = fe::compile_to_sdfg(source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  for (int s : sdfg->state_ids()) {
    const ir::State& st = sdfg->state(s);
    for (int id : st.node_ids()) {
      if (st.node(id)->kind != ir::NodeKind::MapEntry ||
          st.scope_of(id) != -1)
        continue;
      mb.prog = rt::compile_map_scope(*sdfg, st, id);
      if (optimize) rt::optimize_program(mb.prog);
      unsigned seed = 11;
      for (const std::string& name : mb.prog.arrays) {
        const auto& desc = sdfg->arrays().at(name);
        std::vector<int64_t> shape;
        for (const auto& e : desc.shape) shape.push_back(e.eval(sizes));
        mb.store.emplace_back(desc.dtype, shape);
        kernels::fill_pattern(mb.store.back(), seed++);
      }
      for (size_t i = 0; i < mb.store.size(); ++i)
        mb.arrays.push_back(rt::ArrayRef{mb.store[i].data(),
                                         mb.store[i].dtype()});
      for (const std::string& sy : mb.prog.symbols)
        mb.syms.push_back(sizes.at(sy));
      const auto* me = st.node_as<const ir::MapEntry>(id);
      mb.begin = me->range.range(0).begin.eval(sizes);
      mb.end = me->range.range(0).end.eval(sizes);
      return mb;
    }
  }
  return mb;
}

constexpr const char* kStencilSrc = R"(
@dace.program
def stencil(A: dace.float64[N, N], B: dace.float64[N, N]):
    B[1:-1, 1:-1] = 0.2 * (A[1:-1, 1:-1] + A[1:-1, :-2] +
                           A[1:-1, 2:] + A[2:, 1:-1] + A[:-2, 1:-1])
)";

constexpr const char* kOffsetSrc = R"(
@dace.program
def scale2d(A: dace.float64[N, N], B: dace.float64[N, N]):
    B[:, :] = 2.0 * A[:, :]
)";

void run_map_bench(benchmark::State& state, const char* src,
                   int64_t items_per_sweep) {
  MapBench mb = make_map_bench(src, {{"N", state.range(1)}},
                               state.range(0) != 0);
  rt::VMStats per_sweep;
  rt::vm_run(mb.prog, mb.arrays, mb.syms, mb.begin, mb.end, &per_sweep);
  for (auto _ : state) {
    rt::vm_run(mb.prog, mb.arrays, mb.syms, mb.begin, mb.end, nullptr);
  }
  state.SetItemsProcessed(state.iterations() * items_per_sweep);
  state.counters["instrs/sweep"] = (double)per_sweep.instrs;
}

}  // namespace

// VM dispatch cost on a fused stencil body, Tier-0 optimizer off (arg 0)
// and on (arg 1).  instrs/sweep shows the executed-instruction reduction.
static void BM_VmStencilDispatch(benchmark::State& state) {
  int64_t n = state.range(1);
  run_map_bench(state, kStencilSrc, (n - 2) * (n - 2));
}
BENCHMARK(BM_VmStencilDispatch)->Args({0, 128})->Args({1, 128});

// Per-iteration offset polynomial (i*N + j) vs induction-variable
// increments after strength reduction.
static void BM_VmOffsetStrengthReduction(benchmark::State& state) {
  int64_t n = state.range(1);
  run_map_bench(state, kOffsetSrc, n * n);
}
BENCHMARK(BM_VmOffsetStrengthReduction)->Args({0, 256})->Args({1, 256});

// Bounds-guard elision on a clean copy: every access guarded
// (DACE_ABSINT=all, arg 0) vs the interval prover discharging all of
// them (default mode, arg 1).  instrs/sweep shows the elided checks.
static void BM_VmGuardElision(benchmark::State& state) {
  MapBench mb = [&] {
    env::Override absint("DACE_ABSINT", state.range(0) == 0 ? "all" : "1");
    return make_map_bench(kOffsetSrc, {{"N", state.range(1)}}, true);
  }();
  rt::VMStats per_sweep;
  rt::vm_run(mb.prog, mb.arrays, mb.syms, mb.begin, mb.end, &per_sweep);
  for (auto _ : state) {
    rt::vm_run(mb.prog, mb.arrays, mb.syms, mb.begin, mb.end, nullptr);
  }
  int64_t n = state.range(1);
  state.SetItemsProcessed(state.iterations() * n * n);
  state.counters["instrs/sweep"] = (double)per_sweep.instrs;
}
BENCHMARK(BM_VmGuardElision)->Args({0, 256})->Args({1, 256});

// The interval prover's map analysis (absint::analyze_map) over every
// top-level map of auto-optimized fuzz seeds 0..99.  Symbol ranges are
// computed once, outside the timed loop, as the executor does.
static void BM_AbsintAnalyzeMap(benchmark::State& state) {
  namespace absint = analysis::absint;
  std::vector<std::unique_ptr<ir::SDFG>> programs;
  std::vector<absint::SymbolRanges> ranges;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    programs.push_back(fe::compile_to_sdfg(fuzz::generate_program(seed)));
    xf::auto_optimize(*programs.back(), ir::DeviceType::CPU);
    ranges.push_back(absint::SymbolRanges::compute(*programs.back()));
  }
  struct Map {
    const ir::SDFG* sdfg;
    const ir::State* st;
    int entry;
    const absint::Env* env;
  };
  std::vector<Map> maps;
  for (size_t p = 0; p < programs.size(); ++p) {
    for (int sid : programs[p]->state_ids()) {
      const ir::State& st = programs[p]->state(sid);
      for (int id : st.node_ids()) {
        if (st.node_as<const ir::MapEntry>(id) && st.scope_of(id) == -1)
          maps.push_back({programs[p].get(), &st, id, &ranges[p].at(sid)});
      }
    }
  }
  for (auto _ : state) {
    for (const Map& m : maps)
      benchmark::DoNotOptimize(
          absint::analyze_map(*m.sdfg, *m.st, m.entry, *m.env));
  }
  state.SetItemsProcessed(state.iterations() * (int64_t)maps.size());
}
BENCHMARK(BM_AbsintAnalyzeMap);

static void BM_TensorAdd(benchmark::State& state) {
  rt::Tensor a(ir::DType::f64, {state.range(0)});
  rt::Tensor b(ir::DType::f64, {state.range(0)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::ops::add(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TensorAdd)->Arg(1024)->Arg(65536)->Arg(1 << 20);

// ops::matmul, the library MatMul of both tiers and the eager baseline,
// at the pool's default width.  Args are {m, k, n}; m = 0 makes the left
// operand a k-vector, n = 0 the right one.  The cases are gemm's matrix x
// matrix, gesummv's matrix x vector and doitgen's vector x matrix at the
// paper preset.  A quarter second per repetition keeps the three cases
// to about 7 s under ctest's 5 repetitions.
static void BM_MatMul(benchmark::State& state) {
  int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  auto filled = [](std::vector<int64_t> shape) {
    rt::Tensor t(ir::DType::f64, std::move(shape));
    for (int64_t i = 0; i < t.size(); ++i) t.data()[i] = std::sin(0.37 * i);
    return t;
  };
  rt::Tensor a = m > 0 ? filled({m, k}) : filled({k});
  rt::Tensor b = n > 0 ? filled({k, n}) : filled({k});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::ops::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * std::max<int64_t>(m, 1) * k *
                          std::max<int64_t>(n, 1));
}
BENCHMARK(BM_MatMul)
    ->Args({384, 384, 384})
    ->Args({1120, 1120, 0})
    ->Args({0, 64, 64})
    ->MinTime(0.25);

// Executor launch overhead: one run() of doitgen with 4-element rows
// (NR = NQ = 32, NP = 4), so its 1,024 library MatMul calls and 3,072
// native map launches are nearly all dispatch.  Every map runs on Tier 1
// from its first launch, as in perfbench's kernels workload; the warm-up
// run builds the state plans and the native code.  Each iteration first
// restores A (4,096 doubles), so repeated products never reach
// denormals.
static void BM_ExecutorDispatch(benchmark::State& state) {
  const kernels::Kernel& k = kernels::kernel("doitgen");
  const sym::SymbolMap sizes{{"NR", 32}, {"NQ", 32}, {"NP", 4}};
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::Bindings args = k.init(sizes);
  rt::Tensor& A = args.at("A");
  const rt::Tensor A0 = A.copy();
  std::unique_ptr<rt::Executor> ex;
  {
    env::Override thr("DACEPP_JIT_THRESHOLD", "1");
    ex = std::make_unique<rt::Executor>(*sdfg);
  }
  ex->run(args, sizes);
  for (auto _ : state) {
    A.assign_from(A0);
    ex->run(args, sizes);
    benchmark::DoNotOptimize(A.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ExecutorDispatch);

static void BM_VmFusedAxpy(benchmark::State& state) {
  auto sdfg = fe::compile_to_sdfg(R"(
@dace.program
def axpy(alpha: dace.float64, x: dace.float64[N], y: dace.float64[N]):
    y[:] = alpha * x + y
)");
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  // Pinned to the VM: the map crosses the Tier-1 threshold within the
  // timed runs (at n = 1024 after about 1,950), and the launch that
  // crosses it would time a whole native build.
  rt::Executor ex = [&] {
    env::Override jit("DACEPP_JIT", "0");
    return rt::Executor(*sdfg);
  }();
  int64_t n = state.range(0);
  rt::Bindings args{{"alpha", rt::Tensor::scalar(2.0)},
                    {"x", rt::Tensor(ir::DType::f64, {n})},
                    {"y", rt::Tensor(ir::DType::f64, {n})}};
  for (auto _ : state) {
    ex.run(args, {{"N", n}});
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VmFusedAxpy)->Arg(1024)->Arg(65536)->Arg(1 << 20);

static void BM_SymbolicSimplify(benchmark::State& state) {
  sym::Expr n = sym::S("N"), m = sym::S("M");
  for (auto _ : state) {
    benchmark::DoNotOptimize((n + m) * (n - m) + m * m - n * n);
  }
}
BENCHMARK(BM_SymbolicSimplify);

// The commit gate's serializer check (transforms/pass.cpp): save, reload
// and compare two dumps, on one lowered fuzz program.
static void BM_SdfgRoundTrip(benchmark::State& state) {
  auto sdfg = fe::compile_to_sdfg(fuzz::generate_program(1));
  for (auto _ : state) {
    auto reloaded = ir::load_sdfg(sdfg->save());
    benchmark::DoNotOptimize(reloaded->dump() == sdfg->dump());
  }
}
BENCHMARK(BM_SdfgRoundTrip);

static void BM_ParseAndLowerGemm(benchmark::State& state) {
  const auto& k = kernels::kernel("gemm");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fe::compile_to_sdfg(k.source));
  }
}
BENCHMARK(BM_ParseAndLowerGemm);

static void BM_SimMpiP2P(benchmark::State& state) {
  for (auto _ : state) {
    dist::World w(2);
    w.run([](dist::Comm& c) {
      double buf[64] = {0};
      if (c.rank() == 0) {
        c.send(buf, 64, 1, 0);
      } else {
        c.recv(buf, 64, 0, 0);
      }
    });
  }
}
BENCHMARK(BM_SimMpiP2P);

namespace {

/// Console output as usual, plus each benchmark's time captured into the
/// shared JSON report ("micro.<name>", adjusted real ns) so bench_micro
/// writes $BENCH_JSON like the table benchmarks do.  Under
/// --benchmark_repetitions the key holds the median repetition.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      bool single = r.run_type == Run::RT_Iteration && r.repetitions <= 1;
      bool median =
          r.run_type == Run::RT_Aggregate && r.aggregate_name == "median";
      if (r.error_occurred || !(single || median)) continue;
      bench::JsonReport::global().record("micro." + r.run_name.str(),
                                         r.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
