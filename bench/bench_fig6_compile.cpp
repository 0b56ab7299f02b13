// Figure 6: distributions of DaCe's total compilation times per device.
//
// For each suite kernel and device target, measures the full pipeline:
// parse -> lower -> dataflow coarsening + auto-optimization -> backend
// code generation, plus (CPU) a real host-compiler invocation, mirroring
// the paper's "parsing + auto-optimizing + compiling" total.  FPGA
// synthesis/place-and-route is excluded exactly as in the paper (it
// dwarfs and hides the DaCe-side overhead being reported).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "codegen/codegen.hpp"
#include "codegen/jit.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "transforms/auto_optimize.hpp"

using namespace dace;

int main() {
  // Fig. 6 reports *compiler* time; a warm artifact cache would replace
  // the host-compiler invocation with a dlopen and skew the distribution.
  setenv("DACE_CACHE", "0", 1);
  printf("=== Figure 6: total compilation time distributions ===\n");
  struct Sample {
    std::string kernel;
    double seconds;
  };
  std::map<std::string, std::vector<Sample>> dist;
  for (const auto& k : kernels::suite()) {
    for (auto dev : {ir::DeviceType::CPU, ir::DeviceType::GPU,
                     ir::DeviceType::FPGA}) {
      if (dev == ir::DeviceType::GPU && !k.gpu) continue;
      if (dev == ir::DeviceType::FPGA && !k.fpga) continue;
      int64_t t0 = obs::now_ns();
      auto sdfg = fe::compile_to_sdfg(k.source);
      xf::auto_optimize(*sdfg, dev);
      switch (dev) {
        case ir::DeviceType::CPU:
          (void)cg::compile(*sdfg);
          break;
        case ir::DeviceType::GPU:
          (void)cg::generate(*sdfg, cg::Flavor::CUDA);
          break;
        case ir::DeviceType::FPGA:
          (void)cg::generate(*sdfg, cg::Flavor::HLS);
          break;
      }
      double total = (double)(obs::now_ns() - t0) / 1e9;
      bench::JsonReport::global().record(
          "fig6." + k.name + "." + ir::device_name(dev), total * 1e9);
      dist[ir::device_name(dev)].push_back({k.name, total});
    }
  }
  for (auto& [dev, samples] : dist) {
    std::vector<double> ts;
    for (const auto& s : samples) ts.push_back(s.seconds);
    std::sort(ts.begin(), ts.end());
    auto q = [&](double f) { return ts[(size_t)(f * (ts.size() - 1))]; };
    double frac15 = 0;
    for (double t : ts) frac15 += (t < 15.0);
    frac15 /= (double)ts.size();
    printf("%-5s n=%2zu  min=%s  median=%s  p90=%s  max=%s  (<15s: %.0f%%)\n",
           dev.c_str(), ts.size(), bench::fmt_time(ts.front()).c_str(),
           bench::fmt_time(q(0.5)).c_str(), bench::fmt_time(q(0.9)).c_str(),
           bench::fmt_time(ts.back()).c_str(), 100 * frac15);
    auto worst = std::max_element(
        samples.begin(), samples.end(),
        [](const Sample& a, const Sample& b) { return a.seconds < b.seconds; });
    printf("      slowest kernel: %s\n", worst->kernel.c_str());
  }
  printf("\npaper reference: 90%% of CPU and GPU codes compile in under "
         "15 s\n(single outlier above one minute); DaCe overhead is "
         "negligible next to FPGA synthesis.\n");
  return 0;
}
