// google-benchmark microbenchmarks of the substrate hot paths: the
// bytecode VM (with and without the Tier-0 optimizer), eager tensor ops,
// symbolic engine, and simMPI primitives.
#include <benchmark/benchmark.h>

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
  for (int s = 0; s < sdfg->num_states(); ++s) {
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

static void BM_TensorAdd(benchmark::State& state) {
  rt::Tensor a(ir::DType::f64, {state.range(0)});
  rt::Tensor b(ir::DType::f64, {state.range(0)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::ops::add(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TensorAdd)->Arg(1024)->Arg(65536)->Arg(1 << 20);

static void BM_VmFusedAxpy(benchmark::State& state) {
  auto sdfg = fe::compile_to_sdfg(R"(
@dace.program
def axpy(alpha: dace.float64, x: dace.float64[N], y: dace.float64[N]):
    y[:] = alpha * x + y
)");
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::Executor ex(*sdfg);
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
/// emits BENCH_5.json like the table benchmarks do.  Under
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
