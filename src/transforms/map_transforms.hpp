// Map-scope restructuring transformations (Section 3.1 passes 1 and 3).
#pragma once

#include "transforms/pass.hpp"

namespace dace::xf {

/// Collapse one pair of perfectly nested maps into a multidimensional map
/// (increases parallelism; a by-product is larger GPU kernels).
bool map_collapse(ir::SDFG& sdfg);

/// Tile one parallel map whose only output is a WCR write to a scalar:
/// each tile accumulates privately in a register and commits once,
/// drastically reducing atomic updates (Section 3.1 pass 3).
bool tile_wcr_map(ir::SDFG& sdfg, int64_t tile_size = 1024);

/// Reorder the parameters of every top-level map whose first parameter
/// is missing from one of its WCR targets: parameters that index every
/// WCR target go first, the rest innermost (resnet's [dj, i0, i1] becomes
/// [i0, i1, dj]).  A split launch then gives each chunk its own target
/// elements, and the reduction runs innermost, where Tier-1 keeps it in
/// a register.  Maps with a nested map or a range that reads a sibling
/// parameter are left alone.  Returns true if any map changed.
bool interchange_wcr_maps(ir::SDFG& sdfg);

/// Set every top-level map's schedule (CPU_Multicore / GPU_Device /
/// FPGA_Pipeline) and mark CPU maps for OpenMP collapse; returns true if
/// any map changed.
bool set_toplevel_schedules(ir::SDFG& sdfg, ir::Schedule schedule,
                            bool omp_collapse);

}  // namespace dace::xf
