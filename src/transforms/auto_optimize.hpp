// The automatic optimization heuristics of Section 3.1 ("-O3").
//
// Pipeline: dataflow coarsening (simplify) -> map-scope cleanup
// (degenerate map removal, repeated LoopToMap, map collapsing) -> greedy
// subgraph fusion -> WCR map tiling (tiles of 1024) -> transient
// allocation mitigation -> device-specific scheduling ({CPU,GPU,FPGA}
// specialization).  Every pass reports whether it changed the graph, so
// only the passes that did pay the pipeline's commit gate.
#pragma once

#include <optional>
#include <vector>

#include "ir/sdfg.hpp"
#include "transforms/pass.hpp"

namespace dace::xf {

struct AutoOptOptions {
  bool fusion = true;    // greedy subgraph fusion
  bool tile_wcr = true;  // tile WCR maps
  bool transient_mitigation = true;
  /// Run the semantic analyzer after every pass (Pipeline verify mode);
  /// unset = follow DACE_VERIFY_PASSES.
  std::optional<bool> verify;
  /// Extra passes appended after the standard ones, before device
  /// specialization (fault-injection hook for the pipeline tests and the
  /// differential fuzzer).
  std::vector<Pass> extra_passes;
  /// When set, receives the per-pass transactional report (which passes
  /// committed, which were rolled back and why, first broken pass).
  PassReport* report = nullptr;
};

/// Run the full heuristic pipeline for the given device.  The pipeline is
/// transactional (Pipeline::run_transactional): a pass that throws or
/// breaks the graph's structure -- or, in verify mode, its semantics --
/// is rolled back and recorded, and the graph left in `sdfg` is the best
/// verified one -- auto_optimize never fails because one transformation
/// does.
void auto_optimize(ir::SDFG& sdfg, ir::DeviceType device,
                   const AutoOptOptions& opts = {});

}  // namespace dace::xf
