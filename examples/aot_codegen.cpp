// Ahead-of-time compilation (Section 3.3): generate backend source code
// for all three targets from one annotated program; if a host compiler is
// present, build and execute the CPU code (the sdfgcc workflow).
#include <cstdio>

#include "codegen/codegen.hpp"
#include "codegen/jit.hpp"
#include "common/obs.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "transforms/auto_optimize.hpp"

int main() {
  using namespace dace;
  const auto& k = kernels::kernel("jacobi_1d");

  for (auto [dev, flavor, label] :
       {std::tuple{ir::DeviceType::CPU, cg::Flavor::CPU, "CPU (C++/OpenMP)"},
        std::tuple{ir::DeviceType::GPU, cg::Flavor::CUDA, "GPU (CUDA)"},
        std::tuple{ir::DeviceType::FPGA, cg::Flavor::HLS, "FPGA (HLS)"}}) {
    auto sdfg = fe::compile_to_sdfg(k.source);
    xf::auto_optimize(*sdfg, dev);
    std::string src = cg::generate(*sdfg, flavor);
    printf("=== %s: %zu lines ===\n", label,
           (size_t)std::count(src.begin(), src.end(), '\n'));
    if (flavor == cg::Flavor::CPU) {
      printf("%s\n", src.c_str());
    } else {
      // Print the first 20 lines of the device flavors.
      size_t pos = 0;
      for (int i = 0; i < 20 && pos != std::string::npos; ++i) {
        size_t next = src.find('\n', pos);
        printf("%s\n", src.substr(pos, next - pos).c_str());
        pos = next == std::string::npos ? next : next + 1;
      }
      printf("...\n");
    }
  }

  // AOT compile and execute the CPU backend.
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  int64_t t0 = obs::now_ns();
  cg::CompiledProgram prog = cg::compile(*sdfg);
  double build_ms = (double)(obs::now_ns() - t0) / 1e6;
  if (!prog.valid()) {
    printf("no host compiler found; skipping JIT execution\n");
    return 0;
  }
  printf("build took %.1f ms\n", build_ms);
  const sym::SymbolMap sizes = k.presets.at("test");
  rt::Bindings b = k.init(sizes);
  rt::Bindings ref = k.init(sizes);
  k.reference(ref, sizes);
  std::vector<double*> args;
  for (const auto& an : sdfg->arg_names()) args.push_back(b.at(an).data());
  std::vector<long long> syms;
  for (const auto& s : cg::symbol_order(*sdfg)) syms.push_back(sizes.at(s));
  prog.fn()(args.data(), syms.data());
  double err = rt::max_abs_diff(b.at("A"), ref.at("A"));
  printf("compiled result max error vs reference: %.3e %s\n", err,
         err < 1e-9 ? "[OK]" : "[MISMATCH]");
  return err < 1e-9 ? 0 : 1;
}
