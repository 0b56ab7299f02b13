// Tier-0 bytecode optimizer.
//
// Runs after compile_map_scope and rewrites the register program in
// place: constant folding and copy propagation, loop-invariant code
// motion, strength reduction of per-iteration memlet offset polynomials
// into induction-variable increments, and dead-register elimination.
// The passes rely on two structural properties of compiled map scopes --
// every register is defined before it is used on all executed paths, and
// the only control flow is properly nested counted loops (rt::find_loops;
// a program it rejects gets no loop passes) -- and are conservative
// everywhere else.  Operand roles come from the operand table
// (rt::defs_of, rt::uses_of).  Loads and stores are never moved or
// removed, so VMStats load/store/WCR counts are identical before and
// after optimization.
#pragma once

#include "runtime/bytecode.hpp"

namespace dace::rt {

struct OptStats {
  int folded = 0;        // instructions turned into constants/moves
  int hoisted = 0;       // instructions moved to a loop preheader
  int strength_reduced = 0;  // offset chains turned into IV increments
  int eliminated = 0;    // dead instructions removed
};

/// Optimize `prog` in place. Returns per-pass counters (for tests and
/// the microbenchmarks). Idempotent: a second call is a no-op.
OptStats optimize_program(Program& prog);

/// False when DACEPP_BC_OPT=0 (Tier 0 then runs the unoptimized bytecode
/// exactly as compiled).
bool bytecode_opt_enabled();

}  // namespace dace::rt
