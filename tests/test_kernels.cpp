// Kernel-suite integration tests: every kernel, written once in DaCeLang,
// must produce identical results through (a) the eager NumPy-style
// interpreter, (b) the direct -O0 SDFG translation, and (c) the
// auto-optimized CPU pipeline -- all validated against the hand-written
// C++ reference.
#include <gtest/gtest.h>

#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "kernels/suite.hpp"
#include "runtime/eager_interpreter.hpp"
#include "runtime/executor.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

using kernels::Kernel;
using rt::Bindings;

class KernelSuite : public ::testing::TestWithParam<std::string> {
 protected:
  const Kernel& k() const { return kernels::kernel(GetParam()); }
  const sym::SymbolMap& sizes() const { return k().presets.at("test"); }

  Bindings run_reference() const {
    Bindings b = k().init(sizes());
    k().reference(b, sizes());
    return b;
  }

  void compare(Bindings& got, Bindings& want) const {
    for (const auto& out : k().outputs) {
      EXPECT_TRUE(rt::allclose(got.at(out), want.at(out), 1e-9, 1e-11))
          << k().name << ": output '" << out << "' diverges, max diff "
          << rt::max_abs_diff(got.at(out), want.at(out));
    }
  }
};

TEST_P(KernelSuite, EagerInterpreterMatchesReference) {
  Bindings ref = run_reference();
  Bindings b = k().init(sizes());
  fe::Module mod = fe::parse(k().source);
  rt::EagerInterpreter interp(mod.functions[0]);
  interp.run(b, sizes());
  compare(b, ref);
  EXPECT_GT(interp.op_count(), 0);
}

TEST_P(KernelSuite, UnoptimizedSdfgMatchesReference) {
  Bindings ref = run_reference();
  Bindings b = k().init(sizes());
  auto sdfg = fe::compile_to_sdfg(k().source);
  rt::execute(*sdfg, b, sizes());
  compare(b, ref);
}

TEST_P(KernelSuite, AutoOptimizedMatchesReference) {
  Bindings ref = run_reference();
  Bindings b = k().init(sizes());
  auto sdfg = fe::compile_to_sdfg(k().source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::execute(*sdfg, b, sizes());
  compare(b, ref);
}

TEST_P(KernelSuite, RepeatedRunsOnOneExecutorMatchReference) {
  // An executor keeps its map programs and state schedules across runs;
  // every run on fresh inputs must still match the reference.
  Bindings ref = run_reference();
  auto sdfg = fe::compile_to_sdfg(k().source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  rt::Executor ex(*sdfg);
  for (int run = 0; run < 3; ++run) {
    Bindings b = k().init(sizes());
    ex.run(b, sizes());
    compare(b, ref);
  }
}

TEST_P(KernelSuite, AutoOptimizeReducesOrKeepsMapLaunches) {
  auto o0 = fe::compile_to_sdfg(k().source);
  auto opt = o0->clone();
  xf::auto_optimize(*opt, ir::DeviceType::CPU);
  Bindings b0 = k().init(sizes());
  Bindings b1 = k().init(sizes());
  rt::Executor e0(*o0), e1(*opt);
  e0.run(b0, sizes());
  e1.run(b1, sizes());
  EXPECT_LE(e1.map_launches(), e0.map_launches()) << k().name;
}

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const auto& k : kernels::suite()) names.push_back(k.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, KernelSuite, ::testing::ValuesIn(kernel_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dace
