// Kernel planning for Tier-1 map codegen (the shape-specialization layer
// between the bytecode program and C++ emission).
//
// plan_kernel() takes the canonical loop nest the map compiler emits from
// rt::find_loops (runtime/bytecode.hpp), which the Tier-0 optimizer also
// uses, over the *optimized* instruction stream -- multi-increment
// latches included -- and decides a KernelPlan the emitter executes:
//
//   - structured `for` emission for the whole nest,
//   - WCR sinking: an innermost StoreWcr whose address is loop-invariant
//     accumulates into a scalar register and combines once after the
//     loop (one atomic per output element instead of one per iteration),
//   - unroll-and-jam register tiling of the loop enclosing a sunk
//     accumulator (matmul-shaped nests get `jam` parallel accumulators
//     in registers; map semantics make iterations reorderable),
//   - innermost unrolling by the vector width with a scalar epilogue for
//     non-divisible trip counts.
//
// The plan is a pure function of the Program, so Program::hash already
// keys the native cache.  A program the planner cannot structure has no
// Tier-1 form and stays on the Tier-0 VM.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "runtime/bytecode.hpp"

namespace dace::cg {

/// One loop of the nest (as rt::find_loops found it; `parent` indexes
/// KernelPlan::loops), plus the decisions made for it.
struct PlanLoop : rt::Loop {
  int64_t const_step = 0;  // > 0 when the step is a known constant
  std::vector<int> children;
  bool has_guard = false;  // a Guard op exists inside (header, latch)

  // Decisions ---------------------------------------------------------------
  int unroll = 1;              // innermost sequential unroll factor
  int jam = 1;                 // unroll-and-jam factor (this = jam loop)
  std::vector<size_t> sinks;   // pcs of StoreWcr ops sunk to accumulators
  // Registers private to one jam lane: everything written in the direct
  // body (bank 'i' or 'f', register index).  Lanes >= 1 get fresh names.
  std::vector<std::pair<char, int>> renames;

  bool innermost() const { return children.empty(); }
};

struct KernelPlan {
  bool valid = false;           // nest reconstructed; structured emission ok
  std::vector<PlanLoop> loops;  // sorted by header pc

  /// Index of the loop whose header is at `pc`, or -1.
  int loop_at(size_t pc) const {
    for (size_t i = 0; i < loops.size(); ++i)
      if (loops[i].header == pc) return (int)i;
    return -1;
  }

  /// True when the plan goes beyond plain structured emission.
  bool any_transform() const {
    for (const PlanLoop& l : loops)
      if (l.unroll > 1 || l.jam > 1 || !l.sinks.empty()) return true;
    return false;
  }

  /// Largest jam and unroll factors and total sunk stores over the nest.
  struct Summary {
    int jam = 1;
    int unroll = 1;
    size_t sinks = 0;
  };
  Summary summary() const;

  /// Compact human-readable summary, e.g. "loops=3 jam=4 unroll=4 sink=1".
  std::string describe() const;
};

/// Reconstruct the loop nest of a map-scope program and plan its Tier-1
/// emission.  Returns an invalid plan (valid == false) when the control
/// flow is not a properly nested canonical loop forest; such a program
/// has no Tier-1 source (generate_map_source returns "").
KernelPlan plan_kernel(const rt::Program& prog);

}  // namespace dace::cg
