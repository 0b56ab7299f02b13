// Dataflow-coarsening transformations (Section 2.4).
//
// The direct frontend translation is control-centric (one state per
// operation, "-O0").  This pass coarsens dataflow: state fusion merges
// states whose access sets cannot race (checked with symbolic set
// intersection), redundant-copy removal deletes materialize-then-copy
// patterns, nested-SDFG inlining flattens calls, and dead state/dataflow
// elimination cleans up.  simplify() runs all of them to fixpoint.
#pragma once

#include "transforms/pass.hpp"

namespace dace::xf {

/// Merge one fusable state pair (Fig. 4); returns true if fused.
bool state_fusion(ir::SDFG& sdfg);

/// Remove one producer -> transient -> identity-copy -> target pattern by
/// writing the producer output directly into the target (Fig. 11's
/// shared-memory analogue; also the paper's redundant copy removal).
bool redundant_copy_removal(ir::SDFG& sdfg);

/// Remove states unreachable from the start state.
bool dead_state_elimination(ir::SDFG& sdfg);

/// Remove edgeless access nodes and unreferenced transient containers.
bool dead_dataflow_elimination(ir::SDFG& sdfg);

/// Inline one nested SDFG whose callee is a single-state dataflow graph.
bool inline_nested_sdfg(ir::SDFG& sdfg);

/// Remove maps whose every dimension has extent 1, substituting the
/// parameter values ("degenerate maps", Section 3.1 map-scope cleanup).
bool trivial_map_elimination(ir::SDFG& sdfg);

/// Full coarsening pass to fixpoint; returns true if the graph changed.
bool simplify(ir::SDFG& sdfg);

}  // namespace dace::xf
