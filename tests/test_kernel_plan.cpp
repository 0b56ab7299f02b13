// Kernel-planner tests: loop-nest reconstruction from optimized bytecode,
// the invariant that every map-compiler program is plannable, WCR sinking
// and unroll-and-jam legality, unplannable programs staying on Tier 0,
// the libm-backed opcodes against the VM, tiling edge cases (non-divisible trip counts, zero/one-trip loops,
// epilogue correctness), and the thread pool's cost rule and chunked
// ThreadPool::parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "codegen/jit.hpp"
#include "codegen/kernel_plan.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "runtime/bytecode_opt.hpp"
#include "runtime/executor.hpp"
#include "runtime/thread_pool.hpp"
#include "testing/fuzzgen.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

using rt::Bindings;
using rt::Instr;
using rt::Op;
using rt::Program;

const char* kMatmulSource = R"(
@dace.program
def matmul(A: dace.float64[NI, NK], B: dace.float64[NK, NJ],
           C: dace.float64[NI, NJ]):
    for i, j, k in dace.map[0:NI, 0:NJ, 0:NK]:
        C[i, j] += A[i, k] * B[k, j]
)";

/// Compile the first top-level map of `source` to an optimized program,
/// mirroring the executor's Tier-0/Tier-1 pipeline.
Program compile_first_map(const std::string& source) {
  auto sdfg = fe::compile_to_sdfg(source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  for (int s : sdfg->state_ids()) {
    const ir::State& st = sdfg->state(s);
    for (int id : st.node_ids()) {
      if (st.node(id)->kind == ir::NodeKind::MapEntry &&
          st.scope_of(id) == -1) {
        Program p = rt::compile_map_scope(*sdfg, st, id);
        rt::optimize_program(p);
        return p;
      }
    }
  }
  ADD_FAILURE() << "no top-level map in source";
  return {};
}

// ---------------------------------------------------------------------------
// Plan reconstruction and decisions
// ---------------------------------------------------------------------------

TEST(KernelPlan, MatmulNestGetsJamAndSink) {
  Program p = compile_first_map(kMatmulSource);
  cg::KernelPlan plan = cg::plan_kernel(p);
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.loops.size(), 3u);
  // The innermost (k) loop accumulates into an invariant C[i,j] slot: its
  // StoreWcr sinks, and the enclosing (j) loop unroll-and-jams.
  int jammed = 0, sunk = 0;
  for (const auto& l : plan.loops) {
    if (l.jam > 1) ++jammed;
    if (l.innermost()) sunk += (int)l.sinks.size();
  }
  EXPECT_EQ(jammed, 1);
  EXPECT_EQ(sunk, 1);
  EXPECT_TRUE(plan.any_transform());
  EXPECT_NE(plan.describe().find("jam=4"), std::string::npos)
      << plan.describe();
}

TEST(KernelPlan, MatmulSourceIsStructuredWithAccumulators) {
  Program p = compile_first_map(kMatmulSource);
  std::vector<ir::DType> dts(p.arrays.size(), ir::DType::f64);
  std::string src = cg::generate_map_source(p, dts, "kern");
  EXPECT_EQ(src.find("goto"), std::string::npos);
  EXPECT_NE(src.find("for (;"), std::string::npos);
  EXPECT_NE(src.find("acc"), std::string::npos);
  // One combine per (i, j) element per lane, not one per k step: the
  // accumulator feeds the store.  A split launch gives each chunk its own
  // rows of C, so the combine is a plain += and nothing calls the CAS loop.
  size_t combine = src.find("*(A2 + ");
  ASSERT_NE(combine, std::string::npos) << src;
  std::string line = src.substr(combine, src.find('\n', combine) - combine);
  EXPECT_NE(line.find(") += acc"), std::string::npos) << line;
  EXPECT_EQ(src.find("dacepp_wcr_atomic(A"), std::string::npos) << src;
}

// A splittable WCR loop whose store address is the loop variable: the
// address is not invariant, so no sink and no jam -- and the structured
// emission must still be exact.
Program varying_addr_wcr_program() {
  Program p;
  p.splittable = true;
  p.n_iregs = 5;  // i0/i1 bounds, i2 var, i3 zero, i4 step
  p.n_fregs = 1;
  p.arrays = {"A", "B"};
  p.code = {
      Instr{.op = Op::IConst, .a = 3, .imm = 0},
      Instr{.op = Op::IConst, .a = 4, .imm = 1},
      Instr{.op = Op::IMov, .a = 2, .b = 0},
      Instr{.op = Op::JGe, .a = 2, .b = 1, .imm = 8},
      Instr{.op = Op::Load, .a = 0, .b = 2, .imm = 0},
      Instr{.op = Op::StoreWcr, .a = 0, .b = 2, .c = 1, .flag = 1, .imm = 1},
      Instr{.op = Op::IAdd, .a = 2, .b = 2, .c = 4},
      Instr{.op = Op::Jmp, .imm = 3},
      Instr{.op = Op::Halt},
  };
  return p;
}

TEST(KernelPlan, VaryingWcrAddressExcludedFromSinkAndJam) {
  Program p = varying_addr_wcr_program();
  cg::KernelPlan plan = cg::plan_kernel(p);
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.loops.size(), 1u);
  EXPECT_TRUE(plan.loops[0].sinks.empty());
  EXPECT_EQ(plan.loops[0].jam, 1);
  // Unrolling the innermost loop is still fine (sequential replication).
  EXPECT_EQ(plan.loops[0].unroll, 4);
}

TEST(KernelPlan, GuardedLoopExcludedFromSinking) {
  Program p = varying_addr_wcr_program();
  // Make the address invariant but insert a Guard: a trap mid-loop must
  // leave the partial WCR updates of preceding iterations in memory,
  // which a sunk accumulator cannot reproduce.
  p.code[5].b = 3;
  p.code.insert(p.code.begin() + 4,
                Instr{.op = Op::Guard, .a = 2, .b = 1, .imm = 0});
  p.code[3].imm = 9;  // JGe exit past the shifted latch
  p.code[8].imm = 3;  // latch Jmp back to the header
  cg::KernelPlan plan = cg::plan_kernel(p);
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.loops.size(), 1u);
  EXPECT_TRUE(plan.loops[0].has_guard);
  EXPECT_TRUE(plan.loops[0].sinks.empty());
}

TEST(KernelPlan, IrreducibleFlowStaysOnTier0) {
  Program p = varying_addr_wcr_program();
  p.code[7].imm = 8;  // forward jump: no longer a canonical latch
  cg::KernelPlan plan = cg::plan_kernel(p);
  EXPECT_FALSE(plan.valid);
  // No Tier-1 source and no compiler run; the tiering layer takes its
  // build-failure path, which pins the program to the VM.
  std::vector<ir::DType> dts(p.arrays.size(), ir::DType::f64);
  EXPECT_EQ(cg::generate_map_source(p, dts, "kern"), "");
  uint64_t builds = cg::jit_compile_count();
  EXPECT_FALSE(cg::compile_map_native(p, dts, "kern").valid());
  EXPECT_EQ(rt::request_native(p, dts, rt::TierConfig{}), nullptr);
  EXPECT_EQ(cg::jit_compile_count(), builds);
}

// The libm-backed opcodes and the +/-inf identities of sunk min/max WCR,
// which neither the suite kernels nor the fuzzer emit: the Tier-1 build
// (no header, libm and libc only) must reproduce the VM bit for bit.
TEST(KernelPlan, LibmOpcodesMatchVmBitForBit) {
  // for i in [lo, hi): slot k (2..11) gets op_k(x[i], y[i]) from f<k>;
  // slot 12 min= x[i] (atomic) and slot 13 max= x[i] at invariant i3 = 0.
  const std::vector<Instr> ops = {
      {.op = Op::FPow, .a = 2, .b = 1, .c = 0},
      {.op = Op::FMod, .a = 3, .b = 0, .c = 1},
      {.op = Op::FLog, .a = 4, .b = 1},
      {.op = Op::FFloor, .a = 5, .b = 0},
      {.op = Op::FAbs, .a = 6, .b = 0},
      {.op = Op::FExp, .a = 7, .b = 0},
      {.op = Op::FSqrt, .a = 8, .b = 1},
      {.op = Op::FSin, .a = 9, .b = 0},
      {.op = Op::FCos, .a = 10, .b = 1},
      {.op = Op::FTanh, .a = 11, .b = 0},
  };
  Program p;
  p.splittable = true;
  p.n_iregs = 5;  // i0/i1 bounds, i2 var, i3 zero, i4 step
  p.n_fregs = 12;
  p.arrays = {"x", "y"};
  for (const Instr& in : ops) p.arrays.push_back("out" + std::to_string(in.a));
  p.arrays.push_back("min");
  p.arrays.push_back("max");
  p.code = {
      Instr{.op = Op::IConst, .a = 3, .imm = 0},
      Instr{.op = Op::IConst, .a = 4, .imm = 1},
      Instr{.op = Op::IMov, .a = 2, .b = 0},
      Instr{.op = Op::JGe, .a = 2, .b = 1},  // exit target set below
      Instr{.op = Op::Load, .a = 0, .b = 2, .imm = 0},
      Instr{.op = Op::Load, .a = 1, .b = 2, .imm = 1},
  };
  p.code.insert(p.code.end(), ops.begin(), ops.end());
  for (const Instr& in : ops)
    p.code.push_back(Instr{.op = Op::Store, .a = in.a, .b = 2, .imm = in.a});
  p.code.push_back(
      Instr{.op = Op::StoreWcr, .a = 0, .b = 3, .c = 3, .flag = 1, .imm = 12});
  p.code.push_back(Instr{.op = Op::StoreWcr, .a = 0, .b = 3, .c = 4, .imm = 13});
  p.code.push_back(Instr{.op = Op::IAdd, .a = 2, .b = 2, .c = 4});
  p.code.push_back(Instr{.op = Op::Jmp, .imm = 3});
  p.code[3].imm = (int64_t)p.code.size();
  p.code.push_back(Instr{.op = Op::Halt});

  cg::KernelPlan plan = cg::plan_kernel(p);
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.loops.size(), 1u);
  EXPECT_EQ(plan.loops[0].sinks.size(), 2u);
  std::vector<ir::DType> dts(p.arrays.size(), ir::DType::f64);
  std::string src = cg::generate_map_source(p, dts, "dacepp_libm_ops");
  EXPECT_EQ(src.find("#include"), std::string::npos) << src;
  EXPECT_NE(src.find("= -__builtin_huge_val();"), std::string::npos) << src;

  const int n = 37;  // not a multiple of the unroll width
  auto init = [&] {
    std::vector<std::vector<double>> a(p.arrays.size(),
                                       std::vector<double>(n, 0.0));
    for (int i = 0; i < n; ++i) {
      a[0][i] = -3.7 + 0.23 * i;  // negative, fractional and positive
      a[1][i] = 0.35 + 0.41 * i;  // positive: log, sqrt and the pow base
    }
    a[12][0] = 0.5;  // min and max start inside the range of x
    a[13][0] = 2.0;
    return a;
  };
  auto vm = init();
  std::vector<rt::ArrayRef> refs;
  for (auto& v : vm) refs.push_back({v.data(), ir::DType::f64});
  rt::vm_run(p, refs, {}, 0, n, nullptr);

  cg::CompiledMapNative native =
      cg::compile_map_native(p, dts, "dacepp_libm_ops");
  ASSERT_TRUE(native.valid()) << "Tier-1 build failed";
  auto got = init();
  std::vector<double*> ptrs;
  for (auto& v : got) ptrs.push_back(v.data());
  int64_t err = 0;
  native.fn()(ptrs.data(), nullptr, 0, n, &err);
  EXPECT_EQ(err, 0);
  for (size_t s = 0; s < vm.size(); ++s)
    EXPECT_EQ(std::memcmp(vm[s].data(), got[s].data(), n * sizeof(double)),
              0)
        << "slot '" << p.arrays[s] << "' differs from the VM";
}

/// Plan every program the executor would build for `sdfg`: each top-level
/// map, as emitted and after the bytecode optimizer, recursing into
/// nested SDFGs.  Returns the number of maps checked.
int expect_all_maps_plannable(const ir::SDFG& sdfg, const std::string& what) {
  int checked = 0;
  for (int s : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(s);
    for (int id : st.node_ids()) {
      const ir::Node* n = st.node(id);
      if (const auto* nn = st.node_as<const ir::NestedSDFGNode>(id)) {
        checked += expect_all_maps_plannable(*nn->sdfg, what);
        continue;
      }
      if (n->kind != ir::NodeKind::MapEntry || st.scope_of(id) != -1)
        continue;
      Program p;
      try {
        p = rt::compile_map_scope(sdfg, st, id);
      } catch (const Error&) {
        continue;  // the executor cannot run this map at any tier
      }
      EXPECT_TRUE(cg::plan_kernel(p).valid)
          << what << ": state " << s << " map " << id << " as emitted";
      rt::optimize_program(p);
      EXPECT_TRUE(cg::plan_kernel(p).valid)
          << what << ": state " << s << " map " << id << " optimized";
      ++checked;
    }
  }
  return checked;
}

// Tier 1 has a single emitter: it rests on the map compiler producing only
// canonical loop nests, which the bytecode optimizer preserves.  The
// optimizer finds its loops with the same rt::find_loops, so a program the
// planner rejected would also lose LICM and strength reduction.
TEST(KernelPlan, MapCompilerOutputIsAlwaysPlannable) {
  int checked = 0;
  auto check = [&](ir::SDFG& sdfg, const std::string& what) {
    checked += expect_all_maps_plannable(sdfg, what + " -O0");
    xf::auto_optimize(sdfg, ir::DeviceType::CPU);
    checked += expect_all_maps_plannable(sdfg, what + " auto-opt");
  };
  for (const kernels::Kernel& k : kernels::suite())
    check(*fe::compile_to_sdfg(k.source), k.name);
  for (uint64_t seed = 0; seed <= 500; ++seed) {
    std::unique_ptr<ir::SDFG> sdfg;
    try {
      sdfg = fe::compile_to_sdfg(fuzz::generate_program(seed));
    } catch (const Error&) {
      continue;  // rejected by the frontend: never reaches a tier
    }
    check(*sdfg, "fuzz seed " + std::to_string(seed));
  }
  EXPECT_GT(checked, 2000);
}

// ---------------------------------------------------------------------------
// Tiling edge cases: trip counts 0/1, non-divisible trips, epilogues.
// The native tier (plan codegen) must agree with the VM bit-for-bit
// within the usual tolerance for every shape.
// ---------------------------------------------------------------------------

class PlanTripCounts
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlanTripCounts, MatmulAgreesWithVmOnEdgeShapes) {
  auto [ni, nj, nk] = GetParam();
  sym::SymbolMap sizes{{"NI", ni}, {"NJ", nj}, {"NK", nk}};
  const kernels::Kernel& k = kernels::kernel("matmul");
  Bindings vm = k.init(sizes);
  {
    env::Override jit("DACEPP_JIT", "0");
    auto sdfg = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, vm, sizes);
  }
  Bindings native = k.init(sizes);
  {
    env::Override thr("DACEPP_JIT_THRESHOLD", "1");
    auto sdfg = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, native, sizes);
  }
  EXPECT_TRUE(rt::allclose(native.at("C"), vm.at("C"), 1e-9, 1e-11))
      << "NI=" << ni << " NJ=" << nj << " NK=" << nk << " max diff "
      << rt::max_abs_diff(native.at("C"), vm.at("C"));
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, PlanTripCounts,
    ::testing::Values(std::make_tuple(1, 1, 1),    // single iteration
                      std::make_tuple(1, 4, 3),    // jam exactly once
                      std::make_tuple(3, 5, 4),    // jam + epilogue
                      std::make_tuple(4, 4, 4),    // divisible everywhere
                      std::make_tuple(5, 7, 9),    // nothing divisible
                      std::make_tuple(17, 3, 8),   // jam never fires (nj<4)
                      std::make_tuple(2, 13, 1))); // one-trip inner loop

TEST(PlanTripCounts, ZeroTripInnerLoopLeavesOutputUntouched) {
  // k ranges over [0, NK-1) with NK = 1: zero inner trips, so C must
  // keep its initial pattern exactly (the sunk-combine guard).
  const char* src = R"(
@dace.program
def mm_edge(A: dace.float64[NI, NK], B: dace.float64[NK, NJ],
            C: dace.float64[NI, NJ]):
    for i, j, k in dace.map[0:NI, 0:NJ, 0:NK-1]:
        C[i, j] += A[i, k] * B[k, j]
)";
  sym::SymbolMap sizes{{"NI", 3}, {"NJ", 6}, {"NK", 1}};
  const kernels::Kernel& k = kernels::kernel("matmul");
  Bindings ref = k.init(sizes);
  Bindings got = k.init(sizes);
  {
    env::Override thr("DACEPP_JIT_THRESHOLD", "1");
    auto sdfg = fe::compile_to_sdfg(src);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, got, sizes);
  }
  EXPECT_TRUE(rt::allclose(got.at("C"), ref.at("C"), 0.0, 0.0))
      << "zero-trip inner loop modified C, max diff "
      << rt::max_abs_diff(got.at("C"), ref.at("C"));
}

class PlanUnrollEpilogue : public ::testing::TestWithParam<int> {};

TEST_P(PlanUnrollEpilogue, ElementwiseAgreesWithVmAtEveryTripCount) {
  int n = GetParam();
  const char* src = R"(
@dace.program
def axpy_edge(x: dace.float64[N], y: dace.float64[N]):
    for i in dace.map[0:N-1]:
        y[i] = y[i] + x[i] * 3.0
)";
  sym::SymbolMap sizes{{"N", n}};
  auto init = [&] {
    Bindings b;
    rt::Tensor x(ir::DType::f64, {n}), y(ir::DType::f64, {n});
    for (int i = 0; i < n; ++i) {
      x.set_flat(i, 0.25 * i - 1.0);
      y.set_flat(i, 1.5 - 0.125 * i);
    }
    b.emplace("x", std::move(x));
    b.emplace("y", std::move(y));
    return b;
  };
  Bindings vm = init();
  {
    env::Override jit("DACEPP_JIT", "0");
    auto sdfg = fe::compile_to_sdfg(src);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, vm, sizes);
  }
  Bindings native = init();
  {
    env::Override thr("DACEPP_JIT_THRESHOLD", "1");
    auto sdfg = fe::compile_to_sdfg(src);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    rt::execute(*sdfg, native, sizes);
  }
  EXPECT_TRUE(rt::allclose(native.at("y"), vm.at("y"), 0.0, 0.0))
      << "N=" << n << " max diff "
      << rt::max_abs_diff(native.at("y"), vm.at("y"));
}

// Trip counts 0, 1, just below/at/above the unroll width, and larger
// non-divisible counts (the map runs [0, N-1) iterations).
INSTANTIATE_TEST_SUITE_P(TripCounts, PlanUnrollEpilogue,
                         ::testing::Values(1, 2, 4, 5, 6, 9, 18));

// ---------------------------------------------------------------------------
// Chunked thread pool
// ---------------------------------------------------------------------------

struct RangeLog {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  std::atomic<int> empties{0};

  void record(int64_t lo, int64_t hi) {
    if (lo >= hi) ++empties;
    std::lock_guard<std::mutex> lk(mu);
    ranges.push_back({lo, hi});
  }

  int64_t covered() {
    std::lock_guard<std::mutex> lk(mu);
    int64_t total = 0;
    for (auto [lo, hi] : ranges) total += hi - lo;
    return total;
  }
};

TEST(ThreadPoolChunks, FewerItersThanWorkersWakesNoEmptyRanges) {
  rt::ThreadPool pool(8);
  RangeLog log;
  pool.parallel_for(3, 8,
                    [&](int64_t lo, int64_t hi) { log.record(lo, hi); });
  EXPECT_EQ(log.empties.load(), 0);
  EXPECT_EQ(log.ranges.size(), 3u);  // clamped to n, not the worker count
  EXPECT_EQ(log.covered(), 3);
}

TEST(ThreadPoolChunks, BalancedSplitSizesDifferByAtMostOne) {
  rt::ThreadPool pool(8);
  RangeLog log;
  pool.parallel_for(9, 4,
                    [&](int64_t lo, int64_t hi) { log.record(lo, hi); });
  EXPECT_EQ(log.empties.load(), 0);
  ASSERT_EQ(log.ranges.size(), 4u);
  EXPECT_EQ(log.covered(), 9);
  int64_t min_sz = 9, max_sz = 0;
  for (auto [lo, hi] : log.ranges) {
    min_sz = std::min(min_sz, hi - lo);
    max_sz = std::max(max_sz, hi - lo);
  }
  EXPECT_EQ(min_sz, 2);
  EXPECT_EQ(max_sz, 3);
}

TEST(ThreadPoolChunks, SingleChunkRunsInline) {
  rt::ThreadPool pool(8);
  RangeLog log;
  pool.parallel_for(100, 1,
                    [&](int64_t lo, int64_t hi) { log.record(lo, hi); });
  ASSERT_EQ(log.ranges.size(), 1u);
  EXPECT_EQ(log.ranges[0], (std::pair<int64_t, int64_t>{0, 100}));
}

TEST(ThreadPoolChunks, CostRule) {
  // Inline below 20 us of work, then one chunk per started 100 us,
  // never more than the items or the workers.
  rt::ThreadPool pool(4);
  EXPECT_EQ(pool.chunks_for(1000, 19e3), 1);
  EXPECT_EQ(pool.chunks_for(1000, 100e3), 1);
  EXPECT_EQ(pool.chunks_for(1000, 100.1e3), 2);
  EXPECT_EQ(pool.chunks_for(1000, 350e3), 4);
  EXPECT_EQ(pool.chunks_for(3, 10e6), 3);
  rt::ThreadPool one(1);
  for (double cost : {0.0, 19e3, 100.1e3, 350e3, 10e6})
    EXPECT_EQ(one.chunks_for(1000, cost), 1) << cost;
}

TEST(ThreadPoolChunks, ReportsSummedChunkTime) {
  // The return value is the work the chunks did, not the wall time of
  // the dispatch: four 2 ms chunks on four workers report >= 8 ms.
  rt::ThreadPool pool(4);
  int64_t work_ns = -1;
  pool.parallel_for(
      4, 4,
      [](int64_t, int64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      },
      &work_ns);
  EXPECT_GE(work_ns, 8000000);
}

TEST(ThreadPoolChunks, ChunkedReductionMatchesSerial) {
  const int64_t n = 10000;
  std::vector<double> xs(n);
  for (int64_t i = 0; i < n; ++i) xs[(size_t)i] = 0.5 * (i % 17) - 2.0;
  double serial = 0;
  for (double v : xs) serial += v;
  rt::ThreadPool pool(6);
  std::mutex mu;
  double sum = 0;
  pool.parallel_for(n, 5, [&](int64_t lo, int64_t hi) {
    double local = 0;
    for (int64_t i = lo; i < hi; ++i) local += xs[(size_t)i];
    std::lock_guard<std::mutex> lk(mu);
    sum += local;
  });
  EXPECT_NEAR(sum, serial, 1e-9);
}

}  // namespace
}  // namespace dace
