// Tiered map execution tests: the Tier-0 bytecode optimizer and the
// Tier-1 native promotion must be invisible except for speed.  Every
// kernel in the suite runs through three configurations -- unoptimized
// VM, optimized VM, and native -- and all must match the hand-written
// reference bit-for-bit within the usual tolerances.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "codegen/artifact_cache.hpp"
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
  for (int s : sdfg.state_ids()) {
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

TEST(TieredHelpers, FindTopMapSkipsRemovedStates) {
  // auto_optimize removes states, so state ids are sparse: state() of a
  // removed id must throw, and find_top_map must walk the live ids.  In
  // go_fast the only live state after the gap holds the maps; doitgen
  // has more live states than its first removed id.
  for (const char* name : {"doitgen", "go_fast"}) {
    SCOPED_TRACE(name);
    auto sdfg = fe::compile_to_sdfg(kernels::kernel(name).source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    int removed = 0;
    while (sdfg->state_alive(removed)) ++removed;
    ASSERT_LT(removed, sdfg->state_ids().back());
    try {
      (void)sdfg->state(removed);
      ADD_FAILURE() << "state(" << removed << ") of a removed id returned";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("id " + std::to_string(removed)),
                std::string::npos)
          << e.what();
    }
    int sid = -1;
    int entry = find_top_map(*sdfg, &sid);
    ASSERT_GE(entry, 0);
    const ir::State& st = sdfg->state(sid);
    EXPECT_EQ(st.node(entry)->kind, ir::NodeKind::MapEntry);
    EXPECT_EQ(st.scope_of(entry), -1);
  }
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

TEST(Tiering, CacheDirWithSpaceStillPromotes) {
  // The compiler command quotes its scratch paths.  A space in the
  // artifact store's path (or, with the store off, in TMPDIR's) must not
  // fail the build and pin the program to Tier 0.
  namespace fs = std::filesystem;
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  std::string root = (fs::temp_directory_path() /
                      ("dacepp tiering " + std::to_string(getpid())))
                         .string();
  fs::create_directories(root + "/tmp dir");
  // Each call compiles a map no earlier test built, so the build runs.
  auto launches = [](const char* scale) {
    std::string src = std::string(R"(
@dace.program
def spaced(x: dace.float64[N], y: dace.float64[N]):
    for i in dace.map[0:N]:
        y[i] = x[i] * )") + scale + " + 0.5\n";
    auto sdfg = fe::compile_to_sdfg(src);
    Bindings b;
    b.emplace("x", rt::Tensor(ir::DType::f64, {64}));
    b.emplace("y", rt::Tensor(ir::DType::f64, {64}));
    rt::Executor ex(*sdfg);
    ex.run(b, {{"N", 64}});
    return ex.native_launches();
  };
  {
    env::Override on("DACE_CACHE", "1");
    env::Override dir("DACE_CACHE_DIR", (root + "/store dir").c_str());
    cg::cache::ArtifactCache::reset_for_testing();
    EXPECT_GT(launches("7.25"), 0);
  }
  {
    env::Override off("DACE_CACHE", "0");
    env::Override tmp("TMPDIR", (root + "/tmp dir").c_str());
    cg::cache::ArtifactCache::reset_for_testing();
    EXPECT_GT(launches("7.5"), 0);
  }
  cg::cache::ArtifactCache::reset_for_testing();
  fs::remove_all(root);
}

TEST(Tiering, PromotionBuildsOnTheCallingThread) {
  // The launch that crosses the threshold waits for its build and runs
  // native code: no launch of the first run is interpreted.
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  auto sdfg = fe::compile_to_sdfg(R"(
@dace.program
def promote_now(x: dace.float64[N], y: dace.float64[N], z: dace.float64[N]):
    for i in dace.map[0:N]:
        y[i] = x[i] * 2.375 + 0.125
    for i in dace.map[0:N]:
        z[i] = y[i] - x[i] * 0.625
)");
  Bindings b;
  b.emplace("x", rt::Tensor::from_values({4}, {1, 2, 3, 4}));
  b.emplace("y", rt::Tensor(ir::DType::f64, {4}));
  b.emplace("z", rt::Tensor(ir::DType::f64, {4}));
  rt::Executor ex(*sdfg);
  ex.run(b, {{"N", 4}});
  EXPECT_EQ(ex.map_launches(), 2);
  EXPECT_EQ(ex.native_launches(), ex.map_launches());
  for (int64_t i = 0; i < 4; ++i) {
    double x = (double)(i + 1), y = x * 2.375 + 0.125;
    EXPECT_EQ(b.at("z").get_flat(i), y - x * 0.625);
  }
}

TEST(Tiering, ConcurrentPromotionsBuildOnce) {
  // Executors on four threads promote one program at the same time: one
  // of them runs the compiler, the others wait for its build, and every
  // launch runs native code.  The artifact store is off, so a build left
  // by an earlier process cannot stand in for the compiler run.
  env::Override thr("DACEPP_JIT_THRESHOLD", "1");
  env::Override off("DACE_CACHE", "0");
  cg::cache::ArtifactCache::reset_for_testing();
  const char* src = R"(
@dace.program
def promote_together(x: dace.float64[N], y: dace.float64[N]):
    for i in dace.map[0:N]:
        y[i] = x[i] * 4.875 - 0.5
)";
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<ir::SDFG>> sdfgs;
  for (int t = 0; t < kThreads; ++t) sdfgs.push_back(fe::compile_to_sdfg(src));
  uint64_t builds = cg::jit_compile_count();
  std::latch start(kThreads);
  std::vector<int64_t> launches(kThreads), native(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rt::Executor ex(*sdfgs[(size_t)t]);
      Bindings b;
      b.emplace("x", rt::Tensor(ir::DType::f64, {256}));
      b.emplace("y", rt::Tensor(ir::DType::f64, {256}));
      start.arrive_and_wait();
      for (int run = 0; run < 3; ++run) ex.run(b, {{"N", 256}});
      launches[(size_t)t] = ex.map_launches();
      native[(size_t)t] = ex.native_launches();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cg::jit_compile_count(), builds + 1);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(launches[(size_t)t], 3) << "thread " << t;
    EXPECT_EQ(native[(size_t)t], launches[(size_t)t]) << "thread " << t;
  }
  cg::cache::ArtifactCache::reset_for_testing();
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
  ASSERT_EQ(rt::request_native(p, {ir::DType::f64}, cfg), nullptr);

  // A different specialization: without the negative cache this would
  // run the broken compiler again.
  uint64_t builds = cg::jit_compile_count();
  EXPECT_EQ(rt::request_native(p, {ir::DType::f32}, cfg), nullptr);
  EXPECT_EQ(rt::request_native(p, {ir::DType::f32}, cfg), nullptr);
  EXPECT_EQ(cg::jit_compile_count(), builds);
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
// Operand table
// ---------------------------------------------------------------------------

// The probe gives the opcode under test a = 1, b = 2, c = 3 and imm = 4, so
// every field names a register of both banks; array slot 4 and symbol 4
// exist for the opcodes whose imm is a slot.  A jump's imm instead skips
// one marker instruction.  Registers 0..4 of each bank are loaded with
// distinct values and stored out afterwards.
constexpr int kProbeRegs = 5;

struct ProbeInit {
  int64_t i[kProbeRegs] = {7, 9, 11, 13, 15};
  double f[kProbeRegs] = {20.5, 22.5, 24.5, 26.5, 28.5};
};

Instr probe_instr(Op op, size_t at) {
  Instr in{.op = op, .a = 1, .b = 2, .c = 3, .imm = 4, .fimm = 99.25};
  if (op == Op::Jmp || op == Op::JGe) in.imm = (int64_t)at + 2;
  return in;
}

/// Slot of register `r` in ProbeOutcome::out.
size_t probe_slot(rt::Reg r) {
  return (size_t)r.index + (r.bank == rt::Bank::F ? kProbeRegs : 0);
}

struct ProbeOutcome {
  bool trapped = false;
  // i0..i4, f0..f4, the marker, then the five data arrays.
  std::vector<double> out;
  bool operator==(const ProbeOutcome& o) const {
    return trapped == o.trapped && out.size() == o.out.size() &&
           std::memcmp(out.data(), o.out.data(),
                       out.size() * sizeof(double)) == 0;
  }
};

ProbeOutcome run_probe(Op op, const ProbeInit& init) {
  Program p;
  p.n_iregs = kProbeRegs + 2;  // i5 marker, i6 store index
  p.n_fregs = kProbeRegs + 1;  // f5 int-to-float scratch
  p.arrays = {"s0", "s1", "s2", "s3", "s4", "out"};
  for (uint16_t k = 0; k < kProbeRegs; ++k) {
    p.code.push_back(Instr{.op = Op::IConst, .a = k, .imm = init.i[k]});
    p.code.push_back(Instr{.op = Op::FConst, .a = k, .fimm = init.f[k]});
  }
  p.code.push_back(probe_instr(op, p.code.size()));
  p.code.push_back(Instr{.op = Op::IConst, .a = 5, .imm = 1});  // marker
  auto store_out = [&](int64_t idx, uint16_t freg) {
    p.code.push_back(Instr{.op = Op::IConst, .a = 6, .imm = idx});
    p.code.push_back(Instr{.op = Op::Store, .a = freg, .b = 6, .imm = 5});
  };
  for (uint16_t k = 0; k <= kProbeRegs; ++k) {
    p.code.push_back(Instr{.op = Op::FFromI, .a = 5, .b = k});
    store_out(k == kProbeRegs ? 2 * kProbeRegs : k, 5);
  }
  for (uint16_t k = 0; k < kProbeRegs; ++k) store_out(kProbeRegs + k, k);
  p.code.push_back(Instr{.op = Op::Halt});

  std::vector<std::vector<double>> mem(6, std::vector<double>(64));
  for (size_t s = 0; s < 5; ++s)
    for (size_t e = 0; e < 64; ++e) mem[s][e] = 1000.0 + 64.0 * s + e;
  mem[5].assign(2 * kProbeRegs + 1, 0.0);
  std::vector<rt::ArrayRef> refs;
  for (auto& m : mem) refs.push_back({m.data(), ir::DType::f64});
  ProbeOutcome o;
  try {
    rt::vm_run(p, refs, {100, 101, 102, 103, 104}, 0, 0, nullptr);
  } catch (const Error&) {
    o.trapped = true;
    return o;
  }
  o.out = mem[5];
  for (size_t s = 0; s < 5; ++s)
    o.out.insert(o.out.end(), mem[s].begin(), mem[s].end());
  return o;
}

/// First disagreement between the VM running `op` once and the claim that
/// it writes exactly `defs` and reads nothing outside `uses`, or "".
std::string check_operand_roles(Op op, const std::vector<rt::Reg>& defs,
                                const std::vector<rt::Reg>& uses) {
  auto listed = [](const std::vector<rt::Reg>& v, rt::Reg r) {
    return std::find(v.begin(), v.end(), r) != v.end();
  };
  std::vector<rt::Reg> regs;
  for (int k = 0; k < kProbeRegs; ++k) {
    regs.push_back({rt::Bank::I, k});
    regs.push_back({rt::Bank::F, k});
  }
  auto value = [](const ProbeInit& in, rt::Reg r) {
    return r.bank == rt::Bank::I ? (double)in.i[r.index] : in.f[r.index];
  };
  const std::string name = rt::op_info(op).name;

  // Defs: with all registers distinct, the VM changes exactly them.
  ProbeInit base;
  ProbeOutcome o = run_probe(op, base);
  if (o.trapped) return name + ": traps on the probe values";
  for (rt::Reg r : regs) {
    double v = value(base, r);
    bool changed =
        std::memcmp(&o.out[probe_slot(r)], &v, sizeof(double)) != 0;
    if (changed != listed(defs, r))
      return name + ": VM " + (changed ? "writes" : "leaves") + " " +
             (r.bank == rt::Bank::I ? "i" : "f") + std::to_string(r.index);
  }

  // Uses: perturbing any other register changes nothing but itself.
  // Zeroing one float register at a time gives comparisons, selects and
  // logical ops an input on which each operand decides the result.
  std::vector<ProbeInit> bases(1);
  for (int k = 0; k < kProbeRegs; ++k) {
    bases.push_back(ProbeInit{});
    bases.back().f[k] = 0;
  }
  for (const ProbeInit& b : bases) {
    ProbeOutcome before = run_probe(op, b);
    for (rt::Reg r : regs) {
      if (listed(uses, r)) continue;
      double v = value(b, r);
      std::vector<double> perturbed = {v + 2, v - 2};
      if (r.bank == rt::Bank::I) {
        perturbed.push_back(v + 3);
        perturbed.push_back(v - 3);
      } else {
        perturbed.push_back(0);
      }
      for (double pv : perturbed) {
        ProbeInit b2 = b;
        if (r.bank == rt::Bank::I)
          b2.i[r.index] = (int64_t)pv;
        else
          b2.f[r.index] = pv;
        ProbeOutcome want = before;
        if (!want.trapped && !listed(defs, r)) want.out[probe_slot(r)] = pv;
        if (!(run_probe(op, b2) == want))
          return name + ": VM reads " + (r.bank == rt::Bank::I ? "i" : "f") +
                 std::to_string(r.index);
      }
    }
  }
  return "";
}

// rt::find_loops on a two-deep nest whose inner latch also steps an
// offset register, and on the jump graphs it must reject.  A JGe with no
// latch is accepted here: the planner rejects it, the optimizer ignores it.
TEST(Bytecode, FindLoopsReturnsTheNestOrNothing) {
  const std::vector<Instr> nest = {
      Instr{.op = Op::IConst, .a = 2, .imm = 0},
      Instr{.op = Op::IConst, .a = 3, .imm = 4},
      Instr{.op = Op::IConst, .a = 4, .imm = 1},
      Instr{.op = Op::IMov, .a = 5, .b = 2},
      Instr{.op = Op::JGe, .a = 5, .b = 3, .imm = 12},  // outer header
      Instr{.op = Op::IMov, .a = 6, .b = 2},
      Instr{.op = Op::JGe, .a = 6, .b = 3, .imm = 10},  // inner header
      Instr{.op = Op::IAdd, .a = 6, .b = 6, .c = 4},
      Instr{.op = Op::IAdd, .a = 7, .b = 7, .c = 4},
      Instr{.op = Op::Jmp, .imm = 6},  // inner latch
      Instr{.op = Op::IAdd, .a = 5, .b = 5, .c = 4},
      Instr{.op = Op::Jmp, .imm = 4},  // outer latch
      Instr{.op = Op::Halt},
  };
  auto loops = rt::find_loops(nest);
  ASSERT_TRUE(loops.has_value());
  ASSERT_EQ(loops->size(), 2u);
  const rt::Loop& outer = (*loops)[0];
  const rt::Loop& inner = (*loops)[1];
  EXPECT_EQ(outer.header, 4u);
  EXPECT_EQ(outer.latch, 11u);
  EXPECT_EQ(outer.latch_begin, 10u);
  EXPECT_EQ(outer.var, 5);
  EXPECT_EQ(outer.end_reg, 3);
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(inner.header, 6u);
  EXPECT_EQ(inner.latch, 9u);
  EXPECT_EQ(inner.latch_begin, 7u);
  EXPECT_EQ(inner.var, 6);
  EXPECT_EQ(inner.parent, 0);

  auto rejected = [&](size_t pc, int64_t imm) {
    std::vector<Instr> code = nest;
    code[pc].imm = imm;
    return !rt::find_loops(code).has_value();
  };
  EXPECT_TRUE(rejected(9, 11));  // forward Jmp
  EXPECT_TRUE(rejected(6, 11));  // header exits past its own latch
  EXPECT_TRUE(rejected(11, 6));  // second latch on the inner header
  const std::vector<Instr> overlap = {
      Instr{.op = Op::JGe, .a = 1, .b = 2, .imm = 3},
      Instr{.op = Op::JGe, .a = 3, .b = 4, .imm = 5},
      Instr{.op = Op::Jmp, .imm = 0},
      Instr{.op = Op::IAdd, .a = 1, .b = 1, .c = 2},
      Instr{.op = Op::Jmp, .imm = 1},
      Instr{.op = Op::Halt},
  };
  EXPECT_FALSE(rt::find_loops(overlap).has_value());
  auto stray = rt::find_loops({Instr{.op = Op::JGe, .a = 1, .b = 2, .imm = 1},
                               Instr{.op = Op::Halt}});
  ASSERT_TRUE(stray.has_value());
  EXPECT_TRUE(stray->empty());
}

// The operand table (rt::op_info, defs_of, uses_of) against the VM: every
// opcode with a visible effect writes exactly the registers its row lists
// as defs and reads none outside its uses.  Halt ends the program before
// anything can be stored out, so it is not probed.  Dropping any one def
// or use from a row must make the check fail.
TEST(Bytecode, OperandTableMatchesVm) {
  for (int i = 0; i < (int)Op::Halt; ++i) {
    Op op = (Op)i;
    ASSERT_EQ(rt::op_info(op).op, op);
    Instr in = probe_instr(op, 2 * kProbeRegs);
    rt::RegList d = rt::defs_of(in), u = rt::uses_of(in);
    std::vector<rt::Reg> defs(d.begin(), d.end()), uses(u.begin(), u.end());
    EXPECT_EQ(check_operand_roles(op, defs, uses), "");
    for (size_t k = 0; k < defs.size(); ++k) {
      std::vector<rt::Reg> dropped = defs;
      dropped.erase(dropped.begin() + (long)k);
      EXPECT_NE(check_operand_roles(op, dropped, uses), "")
          << rt::op_info(op).name << ": dropping def " << k << " passes";
    }
    for (size_t k = 0; k < uses.size(); ++k) {
      std::vector<rt::Reg> dropped = uses;
      dropped.erase(dropped.begin() + (long)k);
      EXPECT_NE(check_operand_roles(op, defs, dropped), "")
          << rt::op_info(op).name << ": dropping use " << k << " passes";
    }
  }
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
    pool.parallel_for(n, workers, [&](int64_t lo, int64_t hi) {
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
