// GPUTransformSDFG (Section 3.1): prepare an SDFG for the (simulated)
// GPU device.  Top-level maps have already been scheduled GPU_Device by
// the auto-optimizer; this pass moves transient containers to device
// global memory.  Host<->device transfers for arguments are charged by
// the GPU executor at kernel-argument granularity (gpu/gpu_executor.cpp),
// mirroring the copy nodes GPUTransformSDFG inserts in DaCe.
#include "transforms/auto_optimize.hpp"

namespace dace::xf {

bool gpu_transform_sdfg(ir::SDFG& sdfg) {
  std::vector<std::string> names;
  for (const auto& [name, d] : sdfg.arrays()) {
    if (d.transient && !d.is_stream && !d.is_scalar()) names.push_back(name);
  }
  bool changed = false;
  for (const auto& name : names) {
    ir::DataDesc& d = sdfg.array(name);
    if (d.storage == ir::Storage::Default ||
        d.storage == ir::Storage::CPUStack) {
      d.storage = ir::Storage::GPUGlobal;
      changed = true;
    }
  }
  return changed;
}

}  // namespace dace::xf
