// Figure 7: CPU runtime and speedup over NumPy.
//
// Columns (stand-ins documented in DESIGN.md):
//   numpy   -- eager AST interpreter over native per-op loops (NumPy/CPython)
//   -O0     -- direct SDFG translation, no coarsening (Numba/Pythran class)
//   DaCe    -- auto-optimized SDFG, AOT-compiled via the system compiler
//              when available (falls back to the bytecode VM)
//   C++ref  -- hand-written reference kernels (Polybench/C + GCC class)
//   VM(T0)  -- auto-optimized SDFG on the bytecode VM (DACEPP_JIT=0)
//   JIT(T1) -- same SDFG with every map promoted to the native tier
// Speedups are relative to the numpy column (green/up in the paper).
#include <cstdio>

#include "bench_common.hpp"
#include "codegen/codegen.hpp"
#include "codegen/jit.hpp"
#include "common/env.hpp"
#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "kernels/suite.hpp"
#include "runtime/eager_interpreter.hpp"
#include "runtime/executor.hpp"
#include "transforms/auto_optimize.hpp"

using namespace dace;

int main() {
  printf("=== Figure 7: CPU runtime and speedup over NumPy ===\n");
  printf("%-12s %12s %9s %9s %9s %9s %9s %8s %8s\n", "kernel", "numpy",
         "-O0", "DaCe", "C++ref", "VM(T0)", "JIT(T1)", "T1/T0", "T1/ref");
  std::vector<double> sp_o0, sp_dace, sp_ref, sp_t0, sp_t1, tier_ratio,
      ref_ratio;
  int reps = 3;
  for (const auto& k : kernels::suite()) {
    const sym::SymbolMap& sizes = k.presets.at("paper");

    fe::Module mod = fe::parse(k.source);
    rt::EagerInterpreter eager(mod.functions[0]);
    // Inputs are rebuilt before every rep, outside the timed region.
    rt::Bindings b;
    auto init = [&] { b = k.init(sizes); };
    auto t_numpy = bench::time_median(
        "fig7." + k.name + ".numpy", [&] { eager.run(b, sizes); }, reps,
        init);

    auto o0 = fe::compile_to_sdfg(k.source);
    rt::Executor ex0(*o0);
    auto t_o0 = bench::time_median(
        "fig7." + k.name + ".o0", [&] { ex0.run(b, sizes); }, reps, init);

    auto opt = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*opt, ir::DeviceType::CPU);
    cg::CompiledProgram prog = cg::compile(*opt);
    rt::Executor exo(*opt);
    auto t_dace = bench::time_median(
        "fig7." + k.name + ".dace",
        [&] {
          if (prog.valid()) {
            std::vector<double*> args;
            for (const auto& an : opt->arg_names())
              args.push_back(b.at(an).data());
            std::vector<long long> syms;
            for (const auto& s : cg::symbol_order(*opt))
              syms.push_back(sizes.at(s));
            prog.fn()(args.data(), syms.data());
          } else {
            exo.run(b, sizes);
          }
        },
        reps, init);

    auto t_ref = bench::time_median(
        "fig7." + k.name + ".cppref", [&] { k.reference(b, sizes); }, reps,
        init);

    // Tiered executor, Tier 0 pinned (pure bytecode VM).  The executor
    // reads its tier settings when built; the overrides restore whatever
    // the caller exported.
    rt::Executor ext0 = [&] {
      env::Override jit("DACEPP_JIT", "0");
      return rt::Executor(*opt);
    }();
    auto t_t0 = bench::time_median(
        "fig7." + k.name + ".vm_t0", [&] { ext0.run(b, sizes); }, reps, init);

    // Tier 1: promote every map immediately, compile synchronously, and
    // warm up once so the timed runs measure steady-state native code.
    rt::Executor ext1 = [&] {
      env::Override thr("DACEPP_JIT_THRESHOLD", "1");
      env::Override sync("DACEPP_JIT_SYNC", "1");
      return rt::Executor(*opt);
    }();
    init();
    ext1.run(b, sizes);
    bool native = ext1.native_launches() > 0;
    auto t_t1 = bench::time_median(
        "fig7." + k.name + ".jit_t1", [&] { ext1.run(b, sizes); }, reps,
        init);

    double s0 = t_numpy.median_s / t_o0.median_s;
    double sd = t_numpy.median_s / t_dace.median_s;
    double sr = t_numpy.median_s / t_ref.median_s;
    double st0 = t_numpy.median_s / t_t0.median_s;
    double st1 = t_numpy.median_s / t_t1.median_s;
    double r = t_t0.median_s / t_t1.median_s;
    // Gap to the hand-written C++ reference: JIT median over reference
    // median (1.0 = parity, below 1.0 = the generated code wins).
    double rr = t_t1.median_s / t_ref.median_s;
    bench::JsonReport::global().record("fig7." + k.name + ".ref_ratio", rr);
    sp_o0.push_back(s0);
    sp_dace.push_back(sd);
    sp_ref.push_back(sr);
    sp_t0.push_back(st0);
    sp_t1.push_back(st1);
    tier_ratio.push_back(r);
    ref_ratio.push_back(rr);
    printf("%-12s %12s %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %7.2fx %7.2fx%s\n",
           k.name.c_str(), bench::fmt_time(t_numpy.median_s).c_str(), s0, sd,
           sr, st0, st1, r, rr, native ? "" : "  (no native tier)");
    fflush(stdout);
  }
  printf("%-12s %12s %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %7.2fx %7.2fx\n",
         "geomean", "-", bench::geomean(sp_o0), bench::geomean(sp_dace),
         bench::geomean(sp_ref), bench::geomean(sp_t0),
         bench::geomean(sp_t1), bench::geomean(tier_ratio),
         bench::geomean(ref_ratio));
  printf("\npaper reference: DaCe geomean speedup over best prior "
         "framework 2.47x;\nstencils gain most from subgraph fusion; "
         "C compilers win short/control-heavy kernels.\n");
  return 0;
}
