// Write-conflict resolution on the CPU: which WCR stores of a split
// launch update atomically (the conflict rule, checked on compiled
// programs), the CPU map interchange that runs reductions innermost, a
// nested-scope reduction re-run on one executor against the eager
// interpreter, and the suite-wide invariant that no map pays a CAS loop
// per innermost iteration.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "codegen/kernel_plan.hpp"
#include "common/env.hpp"
#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "kernels/suite.hpp"
#include "runtime/bytecode_opt.hpp"
#include "runtime/eager_interpreter.hpp"
#include "runtime/executor.hpp"
#include "transforms/auto_optimize.hpp"
#include "transforms/map_transforms.hpp"

namespace dace {
namespace {

using ir::CodeExpr;
using ir::DType;
using ir::Memlet;
using ir::WCR;
using rt::Op;
using rt::Program;
using sym::Expr;
using sym::Range;
using sym::S;
using sym::Subset;

struct CompiledMap {
  std::string name;
  std::vector<std::string> params;
  Program prog;  // optimized, as the executor runs it
};

/// Every top-level map of `sdfg`, compiled and optimized.
std::vector<CompiledMap> compile_maps(const ir::SDFG& sdfg) {
  std::vector<CompiledMap> out;
  for (int s : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(s);
    for (int id : st.node_ids()) {
      const auto* me = st.node_as<const ir::MapEntry>(id);
      if (!me || st.scope_of(id) != -1) continue;
      Program p = rt::compile_map_scope(sdfg, st, id);
      rt::optimize_program(p);
      out.push_back({me->name, me->params, std::move(p)});
    }
  }
  return out;
}

/// Atomic flags of the StoreWcr ops of `p`, in program order.
std::vector<bool> wcr_flags(const Program& p) {
  std::vector<bool> flags;
  for (const rt::Instr& in : p.code)
    if (in.op == Op::StoreWcr) flags.push_back(in.flag != 0);
  return flags;
}

// ---------------------------------------------------------------------------
// The conflict rule
// ---------------------------------------------------------------------------

struct RuleCase {
  const char* name;
  std::string source;
  bool atomic;
};

// Sums over j of a map [i, j]: into row i, and into column j.
const char* kRowSum = R"(
@dace.program
def f(A: dace.float64[N, M], out: dace.float64[N]):
    for i, j in dace.map[0:N, 0:M]:
        out[i] += A[i, j]
)";
const char* kColumnSum = R"(
@dace.program
def f(A: dace.float64[N, M], out: dace.float64[M]):
    for i, j in dace.map[0:N, 0:M]:
        out[j] += A[i, j]
)";

std::vector<RuleCase> rule_cases() {
  return {
      {"out[i]", kRowSum, false},
      {"out[2*i + 1]", R"(
@dace.program
def f(A: dace.float64[N, M], out: dace.float64[2 * N + 1]):
    for i, j in dace.map[0:N, 0:M]:
        out[2 * i + 1] += A[i, j]
)",
       false},
      {"matmul C[i, j]", kernels::kernel("matmul").source, false},
      {"out[j] under split i", kColumnSum, true},
      {"scalar target", R"(
@dace.program
def f(A: dace.float64[N], out: dace.float64[N]):
    s = 0.0
    for i in dace.map[0:N]:
        s += A[i]
    out[0] = s
)",
       true},
      {"out[i % 4]", R"(
@dace.program
def f(A: dace.float64[N, M], out: dace.float64[4]):
    for i, j in dace.map[0:N, 0:M]:
        out[i % 4] += A[i, j]
)",
       true},
      {"out[i] and out[i + 1]", R"(
@dace.program
def f(A: dace.float64[N, M], B: dace.float64[N, M],
      out: dace.float64[N + 1]):
    for i, j in dace.map[0:N, 0:M]:
        out[i] += A[i, j]
        out[i + 1] += B[i, j]
)",
       true},
  };
}

// The maps run as written: CPU schedules only, no auto_optimize (whose
// interchange would make "out[j] under split i" split j instead).
TEST(WcrConflict, RuleOnCompiledPrograms) {
  for (const RuleCase& c : rule_cases()) {
    auto g = fe::compile_to_sdfg(c.source);
    xf::set_toplevel_schedules(*g, ir::Schedule::CPUParallel, true);
    std::vector<CompiledMap> maps = compile_maps(*g);
    ASSERT_EQ(maps.size(), 1u) << c.name;
    std::vector<bool> flags = wcr_flags(maps[0].prog);
    EXPECT_FALSE(flags.empty()) << c.name;
    for (bool atomic : flags) EXPECT_EQ(atomic, c.atomic) << c.name;
  }
}

// A map that is not split never needs atomics.
TEST(WcrConflict, SequentialMapIsPlain) {
  auto g = fe::compile_to_sdfg(kColumnSum);
  xf::set_toplevel_schedules(*g, ir::Schedule::Sequential, false);
  std::vector<CompiledMap> maps = compile_maps(*g);
  ASSERT_EQ(maps.size(), 1u);
  for (bool atomic : wcr_flags(maps[0].prog)) EXPECT_FALSE(atomic);
}

// ---------------------------------------------------------------------------
// WCR below the outermost scope
// ---------------------------------------------------------------------------

// LoopToMap parallelizes the i loop and keeps the j loop a sequential
// nested map.  out[j] does not depend on the split parameter i, so two
// chunks update the same elements.
const char* kTriangularSum = R"(
@dace.program
def tri(A: dace.float64[N, N], out: dace.float64[N]):
    for i in range(N):
        for j in range(i):
            out[j] += A[i, j]
)";

TEST(WcrConflict, NestedScopeStoreIsAtomic) {
  auto g = fe::compile_to_sdfg(kTriangularSum);
  xf::auto_optimize(*g, ir::DeviceType::CPU);
  std::vector<CompiledMap> maps = compile_maps(*g);
  ASSERT_EQ(maps.size(), 1u);
  EXPECT_EQ(maps[0].params, std::vector<std::string>{"i"});
  ASSERT_TRUE(maps[0].prog.splittable);
  std::vector<bool> flags = wcr_flags(maps[0].prog);
  ASSERT_FALSE(flags.empty());
  for (bool atomic : flags) EXPECT_TRUE(atomic);
}

// Every run on one executor, VM and native alike, must match the eager
// interpreter.  The inputs are multiples of 1/4, so every summation
// order gives the same bits and a lost update shows as a wrong element.
TEST(WcrConflict, NestedScopeMatchesEagerOnEveryRun) {
  const int64_t n = 1000;
  const sym::SymbolMap syms{{"N", n}};
  auto inputs = [&] {
    std::vector<double> a((size_t)(n * n));
    for (size_t k = 0; k < a.size(); ++k)
      a[k] = 0.25 * (double)(k % 13) - 1.0;
    rt::Bindings b;
    b.emplace("A", rt::Tensor::from_values({n, n}, a));
    b.emplace("out", rt::Tensor::from_values(
                         {n}, std::vector<double>((size_t)n, 0.0)));
    return b;
  };
  rt::Bindings want = inputs();
  fe::Module mod = fe::parse(kTriangularSum);
  rt::EagerInterpreter(mod.functions[0]).run(want, syms);

  auto g = fe::compile_to_sdfg(kTriangularSum);
  xf::auto_optimize(*g, ir::DeviceType::CPU);
  for (const char* jit : {"0", "1"}) {
    env::Override enable("DACEPP_JIT", jit);
    env::Override threshold("DACEPP_JIT_THRESHOLD", "1");
    rt::Executor ex(*g);
    for (int run = 0; run < 5; ++run) {
      rt::Bindings got = inputs();
      ex.run(got, syms);
      int64_t wrong = 0;
      for (int64_t k = 0; k < n; ++k)
        wrong += got.at("out").get_flat(k) != want.at("out").get_flat(k);
      EXPECT_EQ(wrong, 0) << "DACEPP_JIT=" << jit << ", run " << run;
    }
  }
}

// ---------------------------------------------------------------------------
// Map interchange
// ---------------------------------------------------------------------------

TEST(WcrInterchange, ResnetRunsItsReductionInnermostOnCpu) {
  auto g = fe::compile_to_sdfg(kernels::kernel("resnet").source);
  xf::auto_optimize(*g, ir::DeviceType::CPU);
  std::vector<CompiledMap> maps = compile_maps(*g);
  ASSERT_EQ(maps.size(), 1u);
  EXPECT_EQ(maps[0].params,
            (std::vector<std::string>{"__i0", "__i1", "dj"}));
  for (bool atomic : wcr_flags(maps[0].prog)) EXPECT_FALSE(atomic);
  std::string plan = cg::plan_kernel(maps[0].prog).describe();
  EXPECT_NE(plan.find("sink=1"), std::string::npos) << plan;

  // Interchanged once, the map is left alone.
  xf::PassReport again;
  xf::AutoOptOptions opts;
  opts.report = &again;
  xf::auto_optimize(*g, ir::DeviceType::CPU, opts);
  for (const auto& o : again.outcomes) EXPECT_FALSE(o.applied) << o.name;
}

// Fig. 8's resnet anomaly comes from the GPU's atomics: the GPU pipeline
// keeps the reduction outermost.
TEST(WcrInterchange, GpuKeepsResnetOrder) {
  auto g = fe::compile_to_sdfg(kernels::kernel("resnet").source);
  xf::auto_optimize(*g, ir::DeviceType::GPU);
  int found = 0;
  for (int s : g->state_ids()) {
    const ir::State& st = g->state(s);
    for (int id : st.node_ids()) {
      const auto* me = st.node_as<const ir::MapEntry>(id);
      if (!me || me->name != "loop_dj") continue;
      ++found;
      EXPECT_EQ(me->params,
                (std::vector<std::string>{"dj", "__i0", "__i1"}));
    }
  }
  EXPECT_EQ(found, 1);
}

/// Map [j, i] over `ranges` whose tasklet adds 1 into out[i].
std::unique_ptr<ir::SDFG> sum_into_out_i(std::vector<Range> ranges) {
  auto g = std::make_unique<ir::SDFG>("prog");
  g->add_symbol("N");
  g->add_array("out", DType::f64, {S("N")});
  g->add_arg("out");
  ir::State& st = g->add_state("main", true);
  int na = st.add_access("out");
  auto [me, mx] = st.add_map("m", {"j", "i"}, Subset(std::move(ranges)));
  int tl = st.add_tasklet("t", {}, CodeExpr::constant(1.0));
  st.add_edge(me, "", tl, "", Memlet());
  st.add_edge(tl, "__out", mx, "IN_out",
              Memlet("out", Subset::element({S("i")}), WCR::Sum));
  st.add_edge(mx, "OUT_out", na, "",
              Memlet("out", Subset::full({S("N")}), WCR::Sum));
  return g;
}

const ir::MapEntry& only_map(const ir::SDFG& g) {
  const ir::State& st = g.state(g.start_state());
  for (int id : st.node_ids())
    if (const auto* me = st.node_as<const ir::MapEntry>(id)) return *me;
  throw Error("no map");
}

TEST(WcrInterchange, MovesMissingFirstParameterInnermost) {
  auto g = sum_into_out_i({Range(Expr(0), S("N")), Range(Expr(0), S("N"))});
  EXPECT_TRUE(xf::interchange_wcr_maps(*g));
  EXPECT_EQ(only_map(*g).params, (std::vector<std::string>{"i", "j"}));
  EXPECT_FALSE(xf::interchange_wcr_maps(*g));
}

TEST(WcrInterchange, TriangularMapIsNotPermuted) {
  // i's range reads its sibling j.
  auto g = sum_into_out_i(
      {Range(Expr(0), S("N")), Range(Expr(0), S("j") + Expr(1))});
  EXPECT_FALSE(xf::interchange_wcr_maps(*g));
  EXPECT_EQ(only_map(*g).params, (std::vector<std::string>{"j", "i"}));
}

TEST(WcrInterchange, FirstParameterInEveryTargetIsNotPermuted) {
  auto g = fe::compile_to_sdfg(kRowSum);
  EXPECT_FALSE(xf::interchange_wcr_maps(*g));
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

// No suite map calls the CAS loop in an innermost loop, and the only
// atomic WCR store left is go_fast's tile writeback into its scalar,
// which every chunk really does share.
TEST(WcrConflict, SuiteKeepsAtomicsOutOfInnermostLoops) {
  std::vector<std::string> atomic_maps;
  for (const auto& k : kernels::suite()) {
    auto g = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*g, ir::DeviceType::CPU);
    for (const CompiledMap& m : compile_maps(*g)) {
      cg::KernelPlan plan = cg::plan_kernel(m.prog);
      ASSERT_TRUE(plan.valid) << k.name << "/" << m.name;
      for (const cg::PlanLoop& L : plan.loops) {
        if (!L.innermost()) continue;
        for (size_t pc = L.header + 1; pc < L.latch_begin; ++pc) {
          const rt::Instr& in = m.prog.code[pc];
          bool sunk =
              std::find(L.sinks.begin(), L.sinks.end(), pc) != L.sinks.end();
          EXPECT_FALSE(in.op == Op::StoreWcr && in.flag && !sunk)
              << k.name << "/" << m.name << " pc " << pc;
        }
      }
      std::vector<bool> flags = wcr_flags(m.prog);
      if (std::find(flags.begin(), flags.end(), true) != flags.end())
        atomic_maps.push_back(k.name + "/" + m.name);
    }
  }
  EXPECT_EQ(atomic_maps, std::vector<std::string>{"go_fast/loop_i_tiled"});
}

}  // namespace
}  // namespace dace
