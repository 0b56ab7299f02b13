// Code generation tests: structural checks on all flavors, and (when a
// host compiler is available) compile-and-execute equivalence of the
// generated CPU code against the interpreter for several kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "codegen/codegen.hpp"
#include "codegen/jit.hpp"
#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "gpu/cupy_like.hpp"
#include "gpu/gpu_executor.hpp"
#include "fpga/fpga_executor.hpp"
#include "kernels/suite.hpp"
#include "runtime/executor.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace {
namespace {

using rt::Bindings;
using rt::Tensor;

TEST(Codegen, CpuSourceHasStructure) {
  auto sdfg = fe::compile_to_sdfg(kernels::kernel("gemm").source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  std::string src = cg::generate(*sdfg, cg::Flavor::CPU);
  EXPECT_NE(src.find("extern \"C\" void gemm"), std::string::npos);
  EXPECT_NE(src.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_NE(src.find("MatMul library node"), std::string::npos);
}

// The line of `src` before the first line holding `needle`, trimmed.
std::string line_before(const std::string& src, const std::string& needle) {
  size_t at = src.find(needle);
  if (at == std::string::npos) return "<no line holds '" + needle + "'>";
  size_t end = src.rfind('\n', at);
  if (end == std::string::npos) return "";
  size_t begin = src.rfind('\n', end - 1);
  std::string line = src.substr(begin + 1, end - begin - 1);
  size_t first = line.find_first_not_of(' ');
  return first == std::string::npos ? "" : line.substr(first);
}

TEST(Codegen, CpuAtomicsFollowTheConflictRule) {
  // The AOT CPU text marks a WCR store atomic exactly where the executor's
  // conflict rule does: where two threads of a split of the first
  // parameter can update one element, nested scopes included.  A scope
  // with WCR writes is split over its first parameter only.
  auto cpu_text = [](const std::string& source) {
    auto sdfg = fe::compile_to_sdfg(source);
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    return cg::generate(*sdfg, cg::Flavor::CPU);
  };
  // Chunk-private: C[i, j] and out[__i0, __i1] under a split of i / __i0.
  std::string matmul = cpu_text(kernels::kernel("matmul").source);
  EXPECT_NE(matmul.find("C[((NJ * i) + j)] += "), std::string::npos);
  EXPECT_EQ(matmul.find("#pragma omp atomic"), std::string::npos);
  EXPECT_EQ(line_before(matmul, "for (long long i = "),
            "#pragma omp parallel for");
  std::string resnet = cpu_text(kernels::kernel("resnet").source);
  EXPECT_EQ(resnet.find("#pragma omp atomic"), std::string::npos);
  EXPECT_EQ(line_before(resnet, "for (long long __i0 = "),
            "#pragma omp parallel for");
  // out[j] in a sequential scope nested under a split i collides.
  std::string tri = cpu_text(R"(
@dace.program
def tri(A: dace.float64[N, N], out: dace.float64[N]):
    for i in range(N):
        for j in range(i):
            out[j] += A[i, j]
)");
  EXPECT_EQ(line_before(tri, "out[j] += "), "#pragma omp atomic");
  // go_fast's tile loop: its scalar transients belong to each iteration,
  // declared in the loop body and updated without atomics; the tile
  // writeback into `trace` can collide and stays atomic.
  std::string go_fast = cpu_text(kernels::kernel("go_fast").source);
  size_t tile_loop = go_fast.find("for (long long __tile_i = ");
  ASSERT_NE(tile_loop, std::string::npos);
  EXPECT_EQ(line_before(go_fast, "for (long long __tile_i = "),
            "#pragma omp parallel for");
  for (std::string s : {"__tmp_0", "__acc_trace_2"}) {
    std::string decl = "double " + s + "_v = 0.0; double* " + s;
    EXPECT_NE(go_fast.find(decl, tile_loop), std::string::npos) << s;
    EXPECT_NE(go_fast.find(s + "[0LL] = "), std::string::npos) << s;
  }
  EXPECT_NE(go_fast.find("__acc_trace_2[0LL] += "), std::string::npos);
  EXPECT_NE(line_before(go_fast, "__acc_trace_2[0LL] += "),
            "#pragma omp atomic");
  EXPECT_EQ(line_before(go_fast, "trace[0LL] += "), "#pragma omp atomic");
}

TEST(Codegen, CudaAndHlsFlavors) {
  auto sdfg = fe::compile_to_sdfg(kernels::kernel("jacobi_1d").source);
  auto gpu_sdfg = sdfg->clone();
  xf::auto_optimize(*gpu_sdfg, ir::DeviceType::GPU);
  std::string cuda = cg::generate(*gpu_sdfg, cg::Flavor::CUDA);
  EXPECT_NE(cuda.find("CUDA kernel"), std::string::npos);
  auto fpga_sdfg = sdfg->clone();
  xf::auto_optimize(*fpga_sdfg, ir::DeviceType::FPGA);
  std::string hls = cg::generate(*fpga_sdfg, cg::Flavor::HLS);
  EXPECT_NE(hls.find("#pragma HLS PIPELINE II=1"), std::string::npos);
}

class CodegenExec : public ::testing::TestWithParam<std::string> {};

TEST_P(CodegenExec, CompiledCodeMatchesInterpreter) {
  const auto& k = kernels::kernel(GetParam());
  const sym::SymbolMap& sizes = k.presets.at("test");
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);

  cg::CompiledProgram prog = cg::compile(*sdfg);
  if (!prog.valid()) GTEST_SKIP() << "no host compiler available";

  // Interpreter result.
  Bindings ref = k.init(sizes);
  rt::execute(*sdfg, ref, sizes);

  // Compiled result.
  Bindings b = k.init(sizes);
  std::vector<double*> args;
  for (const auto& an : sdfg->arg_names()) args.push_back(b.at(an).data());
  std::vector<long long> syms;
  for (const auto& s : cg::symbol_order(*sdfg)) syms.push_back(sizes.at(s));
  prog.fn()(args.data(), syms.data());

  for (const auto& o : k.outputs) {
    EXPECT_TRUE(rt::allclose(b.at(o), ref.at(o), 1e-9, 1e-11))
        << k.name << " output " << o;
  }
}

// The AOT Reduce folds max/min from the first element, as the executor's
// ops::max_all/min_all do, so infinities and NaNs give the same bits.
TEST(Codegen, ReduceMaxMinMatchExecutorBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> leading_nan = {nan, 1.0, 3.0, 2.0};
  for (const auto& [fn, inputs] :
       {std::pair<std::string, std::vector<std::vector<double>>>{
            "max", {{-inf, -inf, -inf, -inf}, leading_nan}},
        {"min", {{inf, inf, inf, inf}, leading_nan}}}) {
    auto sdfg = fe::compile_to_sdfg(
        "@dace.program\n"
        "def shift(x: dace.float64[N], out: dace.float64[N]):\n"
        "    m = np." + fn + "(x)\n"
        "    out[:] = x - m\n");
    xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
    cg::CompiledProgram prog = cg::compile(*sdfg);
    if (!prog.valid()) GTEST_SKIP() << "no host compiler available";
    for (const auto& x : inputs) {
      auto bind = [&] {
        Bindings b;
        b.emplace("x", Tensor::from_values({4}, x));
        b.emplace("out", Tensor(ir::DType::f64, {4}));
        return b;
      };
      Bindings ref = bind();
      rt::execute(*sdfg, ref, {{"N", 4}});
      Bindings b = bind();
      std::vector<double*> args;
      for (const auto& an : sdfg->arg_names()) args.push_back(b.at(an).data());
      std::vector<long long> syms(cg::symbol_order(*sdfg).size(), 4);
      prog.fn()(args.data(), syms.data());
      for (int i = 0; i < 4; ++i) {
        uint64_t got, want;
        std::memcpy(&got, b.at("out").data() + i, sizeof(got));
        std::memcpy(&want, ref.at("out").data() + i, sizeof(want));
        EXPECT_EQ(got, want) << fn << " x[0]=" << x[0] << " out[" << i
                             << "]: AOT " << b.at("out").data()[i]
                             << ", executor " << ref.at("out").data()[i];
      }
    }
  }
}

std::vector<std::string> all_kernel_names() {
  std::vector<std::string> names;
  for (const auto& k : kernels::suite()) names.push_back(k.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Kernels, CodegenExec,
                         ::testing::ValuesIn(all_kernel_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Device simulators
// ---------------------------------------------------------------------------

TEST(GpuSim, DaceBeatsEagerCupyOnStencil) {
  const auto& k = kernels::kernel("jacobi_1d");
  sym::SymbolMap sizes{{"N", 256}, {"TSTEPS", 12}};
  Bindings ref = k.init(sizes);
  k.reference(ref, sizes);

  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::GPU);
  Bindings b1 = k.init(sizes);
  gpu::GpuRunResult dace_res = gpu::run_gpu(*sdfg, b1, sizes);
  EXPECT_TRUE(rt::allclose(b1.at("A"), ref.at("A"), 1e-9, 1e-11));

  fe::Module m = fe::parse(k.source);
  Bindings b2 = k.init(sizes);
  gpu::GpuRunResult cupy_res = gpu::run_cupy(m.functions[0], b2, sizes);
  EXPECT_TRUE(rt::allclose(b2.at("A"), ref.at("A"), 1e-9, 1e-11));

  // Fusion: far fewer kernel launches, and faster simulated time.
  EXPECT_LT(dace_res.kernels, cupy_res.kernels);
  EXPECT_LT(dace_res.kernel_time_s, cupy_res.kernel_time_s);
}

TEST(GpuSim, ResnetAnomalyCupyWins) {
  // The WCR-atomics convolution (Section 3.4.2): CuPy's eager kernels
  // beat the auto-optimized WCR map on the device model.
  const auto& k = kernels::kernel("resnet");
  const sym::SymbolMap sizes = k.presets.at("paper");
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::GPU);
  Bindings b1 = k.init(sizes);
  gpu::GpuRunResult dace_res = gpu::run_gpu(*sdfg, b1, sizes);
  EXPECT_GT(dace_res.stats.wcr_stores, 0u);  // atomics present
  fe::Module m = fe::parse(k.source);
  Bindings b2 = k.init(sizes);
  gpu::GpuRunResult cupy_res = gpu::run_cupy(m.functions[0], b2, sizes);
  EXPECT_TRUE(rt::allclose(b1.at("out"), b2.at("out"), 1e-9, 1e-11));
  EXPECT_GT(dace_res.kernel_time_s, cupy_res.kernel_time_s);
}

TEST(FpgaSim, BothShellsComputeIdenticalResults) {
  const auto& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap sizes = k.presets.at("test");
  Bindings ref = k.init(sizes);
  k.reference(ref, sizes);
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::FPGA);
  for (const auto& model : {fpga::FpgaModel::intel(), fpga::FpgaModel::xilinx()}) {
    Bindings b = k.init(sizes);
    fpga::FpgaRunResult res = fpga::run_fpga(*sdfg, b, sizes, model);
    EXPECT_TRUE(rt::allclose(b.at("A"), ref.at("A"), 1e-9, 1e-11))
        << model.name;
    EXPECT_GT(res.time_s, 0.0);
    EXPECT_GT(res.units, 0);
  }
}

TEST(FpgaSim, IntelFasterOnStencils) {
  // Shift-register reuse: the Intel shell wins stencil kernels (Fig. 9).
  const auto& k = kernels::kernel("jacobi_2d");
  const sym::SymbolMap sizes = k.presets.at("fpga");
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::FPGA);
  Bindings b1 = k.init(sizes);
  double t_intel =
      fpga::run_fpga(*sdfg, b1, sizes, fpga::FpgaModel::intel()).time_s;
  Bindings b2 = k.init(sizes);
  double t_xilinx =
      fpga::run_fpga(*sdfg, b2, sizes, fpga::FpgaModel::xilinx()).time_s;
  EXPECT_LT(t_intel, t_xilinx);
}

}  // namespace
}  // namespace dace
