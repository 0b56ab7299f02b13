// FPGATransformSDFG + StreamingComposition (Sections 3.1, 3.4).
//
// Containers move to device DRAM (FPGA_Global); the streaming-composition
// pass of the paper -- separate pipelined units connected through FIFO
// streams, memory read/written in bursts -- is realized by the FPGA
// executor (fpga/fpga_executor.cpp), which decomposes every pipeline map
// into burst readers, a processing element, and burst writers with an
// initiation-interval cost model.  This pass performs the IR-side part:
// storage assignment and marking maps as FPGA pipelines.
#include "transforms/auto_optimize.hpp"

namespace dace::xf {

bool fpga_transform_sdfg(ir::SDFG& sdfg) {
  std::vector<std::string> names;
  for (const auto& [name, d] : sdfg.arrays()) {
    if (d.transient && !d.is_stream && !d.is_scalar()) names.push_back(name);
  }
  bool changed = false;
  for (const auto& name : names) {
    ir::DataDesc& d = sdfg.array(name);
    if (d.storage == ir::Storage::Default) {
      // Small constant-size buffers fit on-chip; everything else streams
      // from DRAM.
      auto n = d.num_elements();
      d.storage = (n.is_constant() && n.constant() <= 4096)
                      ? ir::Storage::FPGALocal
                      : ir::Storage::FPGAGlobal;
      changed = true;
    }
  }
  return changed;
}

}  // namespace dace::xf
