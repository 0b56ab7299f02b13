// Tiered map execution tests: the Tier-0 bytecode optimizer and the
// Tier-1 native promotion must be invisible except for speed.  Every
// kernel in the suite runs through three configurations -- unoptimized
// VM, optimized VM, and native -- and all must match the hand-written
// reference bit-for-bit within the usual tolerances.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/bytecode_opt.hpp"
#include "runtime/executor.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/tiering.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

using kernels::Kernel;
using rt::Bindings;
using rt::Instr;
using rt::Op;
using rt::Program;

/// First top-level map entry of the SDFG, or -1.
int find_top_map(const ir::SDFG& sdfg, int* state_id) {
  for (int s = 0; s < sdfg.num_states(); ++s) {
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

// ---------------------------------------------------------------------------
// Differential suite: unoptimized VM vs optimized VM vs native tier.
// ---------------------------------------------------------------------------

class TieredDifferential : public ::testing::TestWithParam<std::string> {
 protected:
  const Kernel& k() const { return kernels::kernel(GetParam()); }
  const sym::SymbolMap& sizes() const { return k().presets.at("test"); }

  Bindings run_current_config() const {
    Bindings b = k().init(sizes());
    auto sdfg = fe::compile_to_sdfg(k().source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, b, sizes());
    return b;
  }

  void expect_matches_reference(Bindings& got, const char* config) const {
    Bindings ref = k().init(sizes());
    k().reference(ref, sizes());
    for (const auto& out : k().outputs) {
      EXPECT_TRUE(rt::allclose(got.at(out), ref.at(out), 1e-9, 1e-11))
          << k().name << " [" << config << "]: output '" << out
          << "' diverges, max diff "
          << rt::max_abs_diff(got.at(out), ref.at(out));
    }
  }
};

TEST_P(TieredDifferential, Tier0UnoptimizedMatchesReference) {
  env::Override opt("DACEPP_BC_OPT", "0");
  env::Override jit("DACEPP_JIT", "0");
  Bindings b = run_current_config();
  expect_matches_reference(b, "tier0-unopt");
}

TEST_P(TieredDifferential, Tier0OptimizedMatchesReference) {
  env::Override jit("DACEPP_JIT", "0");
  Bindings b = run_current_config();
  expect_matches_reference(b, "tier0-opt");
}

TEST_P(TieredDifferential, Tier1NativeMatchesReference) {
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  env::Override sync("DACEPP_JIT_SYNC", "1");
  Bindings b = run_current_config();
  expect_matches_reference(b, "tier1-native");
}

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const auto& k : kernels::suite()) names.push_back(k.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, TieredDifferential,
                         ::testing::ValuesIn(kernel_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Tier-1 policy
// ---------------------------------------------------------------------------

TEST(Tiering, NativeTierPromotesAndMatches) {
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  env::Override sync("DACEPP_JIT_SYNC", "1");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  Bindings ref = k.init(sizes);
  k.reference(ref, sizes);

  Bindings b = k.init(sizes);
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::Executor ex(*sdfg);
  ex.run(b, sizes);
  EXPECT_GT(ex.native_promotions(), 0);
  EXPECT_GT(ex.native_launches(), 0);
  for (const auto& out : k.outputs) {
    EXPECT_TRUE(rt::allclose(b.at(out), ref.at(out), 1e-9, 1e-11))
        << "output '" << out << "' diverges under the native tier";
  }
}

TEST(Tiering, JitDisabledStaysOnTier0) {
  env::Override jit("DACEPP_JIT", "0");
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  env::Override sync("DACEPP_JIT_SYNC", "1");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  Bindings ref = k.init(sizes);
  k.reference(ref, sizes);

  Bindings b = k.init(sizes);
  auto sdfg = fe::compile_to_sdfg(k.source);
  rt::Executor ex(*sdfg);
  ex.run(b, sizes);
  EXPECT_EQ(ex.native_promotions(), 0);
  EXPECT_EQ(ex.native_launches(), 0);
  for (const auto& out : k.outputs) {
    EXPECT_TRUE(rt::allclose(b.at(out), ref.at(out), 1e-9, 1e-11));
  }
}

TEST(Tiering, MissingCompilerFallsBackToTier0) {
  env::Override cc("DACEPP_JIT_CC", "/nonexistent/compiler");
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  env::Override sync("DACEPP_JIT_SYNC", "1");
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  Bindings ref = k.init(sizes);
  k.reference(ref, sizes);

  Bindings b = k.init(sizes);
  auto sdfg = fe::compile_to_sdfg(k.source);
  rt::Executor ex(*sdfg);
  ex.run(b, sizes);
  // The build was attempted but failed; execution must quietly pin the
  // programs to Tier 0 and still be correct.
  EXPECT_GT(ex.native_promotions(), 0);
  EXPECT_EQ(ex.native_launches(), 0);
  for (const auto& out : k.outputs) {
    EXPECT_TRUE(rt::allclose(b.at(out), ref.at(out), 1e-9, 1e-11));
  }
}

TEST(Tiering, BrokenCompilerIsProbedOnce) {
  // Once a build of a program fails, the failure is negative-cached on
  // (program hash, compiler): other dtype specializations must come back
  // immediately failed instead of probing the broken compiler again.
  Program p;
  p.n_iregs = 2;
  p.n_fregs = 1;
  p.arrays = {"out"};
  p.code = {
      Instr{.op = Op::IConst, .a = 0, .imm = 77443},  // unique hash
      Instr{.op = Op::IConst, .a = 1, .imm = 0},
      Instr{.op = Op::FFromI, .a = 0, .b = 0},
      Instr{.op = Op::Store, .a = 0, .b = 1, .imm = 0},
      Instr{.op = Op::Halt},
  };
  rt::TierConfig cfg;
  cfg.compiler = "/nonexistent/compiler";
  cfg.sync = true;
  auto h1 = rt::request_native(p, {ir::DType::f64}, cfg);
  ASSERT_EQ(h1->state.load(), rt::NativeProgram::kFailed);

  // Async request for a different specialization: without the negative
  // cache this would spawn another doomed build and report kCompiling.
  cfg.sync = false;
  auto h2 = rt::request_native(p, {ir::DType::f32}, cfg);
  EXPECT_EQ(h2->state.load(), rt::NativeProgram::kFailed);
  // And the handle is cached: asking again returns the same dead handle.
  EXPECT_EQ(rt::request_native(p, {ir::DType::f32}, cfg).get(), h2.get());
}

// ---------------------------------------------------------------------------
// Bytecode optimizer
// ---------------------------------------------------------------------------

TEST(BytecodeOpt, ReducesExecutedInstructionsOnFusedStencil) {
  const Kernel& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap& sizes = k.presets.at("test");
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  int sid = -1;
  int entry = find_top_map(*sdfg, &sid);
  ASSERT_GE(entry, 0) << "no top-level map after auto-optimize";
  const ir::State& st = sdfg->state(sid);

  Program unopt = rt::compile_map_scope(*sdfg, st, entry);
  Program opt = unopt;
  rt::OptStats os = rt::optimize_program(opt);
  EXPECT_GT(os.eliminated + os.folded + os.strength_reduced, 0);

  // Bind both programs to identically initialized fresh tensors.
  auto make_arrays = [&](const Program& p, Bindings& store) {
    std::vector<rt::ArrayRef> refs;
    unsigned seed = 7;
    for (const std::string& name : p.arrays) {
      const auto& desc = sdfg->arrays().at(name);
      std::vector<int64_t> shape;
      for (const auto& e : desc.shape) shape.push_back(e.eval(sizes));
      rt::Tensor t(desc.dtype, shape);
      kernels::fill_pattern(t, seed++);
      auto [it, ok] = store.emplace(name, t);
      (void)ok;
      refs.push_back(rt::ArrayRef{it->second.data(), desc.dtype});
    }
    return refs;
  };
  Bindings store0, store1;
  std::vector<rt::ArrayRef> arr0 = make_arrays(unopt, store0);
  std::vector<rt::ArrayRef> arr1 = make_arrays(opt, store1);
  std::vector<int64_t> syms;
  for (const std::string& s : unopt.symbols) syms.push_back(sizes.at(s));
  ASSERT_EQ(opt.symbols, unopt.symbols);

  const auto* me = st.node_as<const ir::MapEntry>(entry);
  int64_t begin = me->range.range(0).begin.eval(sizes);
  int64_t end = me->range.range(0).end.eval(sizes);

  rt::VMStats s0, s1;
  rt::vm_run(unopt, arr0, syms, begin, end, &s0);
  rt::vm_run(opt, arr1, syms, begin, end, &s1);

  // Same work, same memory traffic, same numbers...
  EXPECT_EQ(s0.loads, s1.loads);
  EXPECT_EQ(s0.stores, s1.stores);
  EXPECT_EQ(s0.flops, s1.flops);
  for (const std::string& name : unopt.arrays) {
    EXPECT_TRUE(rt::allclose(store0.at(name), store1.at(name), 0, 0))
        << "array '" << name << "' diverges after optimization";
  }
  // ...but at least 30% fewer dispatched instructions.
  EXPECT_LE(s1.instrs * 10, s0.instrs * 7)
      << "optimized " << s1.instrs << " vs unoptimized " << s0.instrs;
}

TEST(BytecodeOpt, IMovSemantics) {
  Program p;
  p.n_iregs = 3;
  p.n_fregs = 1;
  p.arrays.push_back("out");
  p.code = {
      Instr{.op = Op::IConst, .a = 0, .imm = 41},
      Instr{.op = Op::IMov, .a = 1, .b = 0},
      Instr{.op = Op::IConst, .a = 2, .imm = 0},
      Instr{.op = Op::FFromI, .a = 0, .b = 1},
      Instr{.op = Op::Store, .a = 0, .b = 2, .imm = 0},
      Instr{.op = Op::Halt},
  };
  rt::Tensor t(ir::DType::f64, {1});
  std::vector<rt::ArrayRef> arrays{rt::ArrayRef{t.data(), ir::DType::f64}};
  rt::vm_run(p, arrays, {}, 0, 0, nullptr);
  EXPECT_EQ(t.get_flat(0), 41.0);
}

TEST(BytecodeOpt, DisassembleGolden) {
  Program p;
  p.n_iregs = 3;
  p.n_fregs = 1;
  p.code = {
      Instr{.op = Op::IConst, .a = 2, .imm = 5},
      Instr{.op = Op::IMov, .a = 1, .b = 2},
      Instr{.op = Op::IAdd, .a = 1, .b = 1, .c = 2},
      Instr{.op = Op::FConst, .a = 0, .fimm = 1.5},
      Instr{.op = Op::JGe, .a = 1, .b = 2, .imm = 5},
      Instr{.op = Op::Halt},
  };
  const char* want =
      "0: iconst a=2 b=0 c=0 imm=5\n"
      "1: imov a=1 b=2 c=0 imm=0\n"
      "2: iadd a=1 b=1 c=2 imm=0\n"
      "3: fconst a=0 b=0 c=0 imm=0 f=1.5\n"
      "4: jge a=1 b=2 c=0 imm=5\n"
      "5: halt a=0 b=0 c=0 imm=0\n";
  EXPECT_EQ(p.disassemble(), want);
}

TEST(BytecodeOpt, OptimizerIsIdempotent) {
  const Kernel& k = kernels::kernel("jacobi_1d");
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  int sid = -1;
  int entry = find_top_map(*sdfg, &sid);
  ASSERT_GE(entry, 0);
  Program p = rt::compile_map_scope(*sdfg, sdfg->state(sid), entry);
  rt::optimize_program(p);
  Program once = p;
  rt::OptStats second = rt::optimize_program(p);
  EXPECT_EQ(second.folded, 0);
  EXPECT_EQ(second.hoisted, 0);
  EXPECT_EQ(second.strength_reduced, 0);
  EXPECT_EQ(second.eliminated, 0);
  EXPECT_EQ(p.code.size(), once.code.size());
}

// ---------------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------------

// Splittable atomic-WCR sum over A[0..n) into B[0]; the i0/i1 chunk
// protocol means any worker count must produce the same reduction.
Program wcr_sum_program() {
  Program p;
  p.splittable = true;
  p.n_iregs = 5;  // i0/i1 chunk bounds, i2 loop var, i3 zero, i4 step
  p.n_fregs = 1;
  p.arrays = {"A", "B"};
  p.code = {
      Instr{.op = Op::IConst, .a = 3, .imm = 0},
      Instr{.op = Op::IConst, .a = 4, .imm = 1},
      Instr{.op = Op::IMov, .a = 2, .b = 0},
      Instr{.op = Op::JGe, .a = 2, .b = 1, .imm = 8},
      Instr{.op = Op::Load, .a = 0, .b = 2, .imm = 0},
      Instr{.op = Op::StoreWcr, .a = 0, .b = 3, .c = 1, .flag = 1, .imm = 1},
      Instr{.op = Op::IAdd, .a = 2, .b = 2, .c = 4},
      Instr{.op = Op::Jmp, .imm = 3},
      Instr{.op = Op::Halt},
  };
  return p;
}

TEST(ThreadPoolWcr, ReductionAgreesAcrossWorkerCounts) {
  const int64_t n = 100000;
  rt::Tensor a(ir::DType::f64, {n});
  for (int64_t i = 0; i < n; ++i) a.set_flat(i, 0.25 * (i % 31) - 1.0);
  Program p = wcr_sum_program();

  auto run_with = [&](int workers) {
    rt::Tensor out(ir::DType::f64, {1});
    out.set_flat(0, 0.0);
    std::vector<rt::ArrayRef> arrays{
        rt::ArrayRef{a.data(), ir::DType::f64},
        rt::ArrayRef{out.data(), ir::DType::f64}};
    rt::ThreadPool pool(workers);
    pool.parallel_for(n, [&](int64_t lo, int64_t hi) {
      rt::vm_run(p, arrays, {}, lo, hi, nullptr);
    });
    return out.get_flat(0);
  };

  double serial = run_with(1);
  double parallel = run_with(8);
  // Atomic FP adds commute up to rounding; the chunk sums themselves are
  // deterministic, so the tolerance only covers association order.
  EXPECT_NEAR(serial, parallel, 1e-9 * std::abs(serial) + 1e-12);
}

}  // namespace
}  // namespace dace
