// Abstract interpretation over the SDFG state machine.
//
// A monotone dataflow framework that propagates symbol facts from
// interstate edge assignments and conditions, in the spirit of the
// paper's symbolic memlet analysis: states are program points, the
// abstract domain is a per-symbol interval of symbolic expressions, and
// widening at interstate back-edges guarantees termination.  Three
// concrete analyses are built on top:
//
//   1. value ranges   -- per-state symbol intervals, per-memlet access
//                        range verdicts (in-range / unknown / violating);
//   2. stride classes -- unit / constant / affine / unknown stride of a
//                        memlet along a map parameter, per dimension and
//                        for the flattened row-major address;
//   3. element liveness -- per-element extension of defuse.cpp: dead
//                        writes and reads of never-written elements,
//                        proved with symbolic subset disjointness under
//                        the interval environment.
//
// Consumers: Tier-1 codegen (bounds-check elision, __restrict__,
// stride-1 vectorizable innermost loops), LoopToMap (independence
// proofs beyond the global ">= 1" convention), and sdfg-lint (A2xx
// diagnostics).  All verdicts are three-valued and conservative; a
// "proven" answer is a promise strong enough for codegen to act on and
// for the differential fuzzer to cross-validate dynamically.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "ir/sdfg.hpp"
#include "symbolic/subset.hpp"
#include "symbolic/symbolic.hpp"

namespace dace::analysis::absint {

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

/// Inclusive interval with symbolic endpoints; a missing endpoint is
/// unbounded.  Top (both missing) means "no information".
struct Interval {
  std::optional<sym::Expr> lo, hi;

  static Interval top() { return {}; }
  static Interval exact(sym::Expr e) { return {e, e}; }
  static Interval at_least(sym::Expr e) { return {std::move(e), std::nullopt}; }

  bool equals(const Interval& o) const;
  std::string to_string() const;
};

/// Abstract environment: symbol name -> interval.  Symbols absent from
/// the environment follow the repo-wide ">= 1" size convention *unless*
/// they are interstate-assigned (assigned symbols are always present,
/// top when unknown -- see SymbolRanges).
using Env = std::map<std::string, Interval>;

/// Convex join (control-flow merge): keeps an endpoint only when one
/// side's bound provably dominates the other; drops it otherwise.
Interval join(const Interval& a, const Interval& b);

/// Widening: keeps only the endpoints that did not change between
/// iterates, guaranteeing fixpoint termination on back-edges.
Interval widen(const Interval& older, const Interval& newer);

/// Interval arithmetic evaluation of `e` under `env`.  Unmapped symbols
/// default to [1, +inf) per the global size convention.
Interval eval_interval(const sym::Expr& e, const Env& env);

// ---------------------------------------------------------------------------
// Provers
// ---------------------------------------------------------------------------

/// Best-effort proof that `e >= 0` for every valuation admitted by
/// `env`.  Symbols with a known interval are substituted by their
/// worst-case endpoint (chosen by the sign of their affine coefficient);
/// the residue is discharged by the global ">= 1" prover, but only when
/// every remaining env-bound symbol provably satisfies that convention
/// -- so map parameters starting at 0 and widened loop variables never
/// leak into the unsound fallback.  When `e` and every endpoint the
/// proof consults are affine, the proof runs on integer coefficients
/// and returns exactly the verdict of the expression-tree path.
bool proves_nonneg(const sym::Expr& e, const Env& env);

namespace detail {
/// The two paths of proves_nonneg.  The expression-tree path decides
/// every claim; the affine path returns its verdict, or nullopt when
/// something it consults is not affine or a coefficient would leave
/// [-2^61, 2^61], and proves_nonneg then asks the tree path.
bool proves_nonneg_expr(const sym::Expr& e, const Env& env);
std::optional<bool> proves_nonneg_linear(const sym::Expr& e, const Env& env);
}  // namespace detail

/// Three-valued comparison: true = a <= b proven, false = a > b proven,
/// nullopt = unknown.
std::optional<bool> prove_le(const sym::Expr& a, const sym::Expr& b,
                             const Env& env);

/// Three-valued verdict of a static claim.
enum class Verdict { Proven, Unknown, Refuted };

/// Does `subset` stay within `shape` (0 <= begin and last < shape per
/// dimension) for every valuation admitted by `env`?  Proven means every
/// admitted execution is in range; Refuted means every admitted
/// execution violates some dimension.
Verdict subset_in_range(const sym::Subset& subset,
                        const std::vector<sym::Expr>& shape, const Env& env);

/// Disjointness with environment facts: falls back to the global
/// Subset::disjoint first, then tries to separate some dimension using
/// interval reasoning (a.end <= b.begin or b.end <= a.begin under env).
std::optional<bool> proves_disjoint(const sym::Subset& a, const sym::Subset& b,
                                    const Env& env);

// ---------------------------------------------------------------------------
// Symbol-range fixpoint over the state machine
// ---------------------------------------------------------------------------

/// Per-state symbol intervals, computed by a worklist fixpoint over the
/// interstate CFG: edge assignments transfer (RHS evaluated in the
/// source environment), edge conditions refine (x < e tightens x's
/// interval on the true branch), joins merge at confluence points and
/// widening kicks in after a few visits of a back-edge target.
class SymbolRanges {
 public:
  static SymbolRanges compute(const ir::SDFG& sdfg);

  /// Environment holding at the *entry* of a state.  Unreachable states
  /// map to an all-top environment over the assigned symbols.
  const Env& at(int state_id) const;

  /// Symbols assigned anywhere on an interstate edge (these do not obey
  /// the ">= 1" free-symbol convention).
  const std::set<std::string>& assigned_symbols() const { return assigned_; }

  std::string to_string() const;

 private:
  std::map<int, Env> envs_;
  Env fallback_;  // all assigned symbols -> top
  std::set<std::string> assigned_;
};

/// Environment for reasoning about a dataflow edge: the state-entry
/// environment extended with the enclosing map parameters' iteration
/// intervals ([begin, last] per parameter, outermost first).
Env edge_env(const ir::State& st, const ir::Edge& e, const Env& state_env);

// ---------------------------------------------------------------------------
// Stride / contiguity classification
// ---------------------------------------------------------------------------

enum class StrideClass {
  Zero,      // invariant in the parameter
  Unit,      // stride exactly 1
  Constant,  // known constant stride != 0, 1
  Affine,    // linear in the parameter with a symbolic coefficient
  Unknown,   // nonlinear or not analyzable
};
const char* stride_class_name(StrideClass c);

struct StrideInfo {
  StrideClass cls = StrideClass::Unknown;
  std::optional<int64_t> stride;  // set for Zero/Unit/Constant
};

/// Stride of a scalar index expression with respect to `param`:
/// idx(param + 1) - idx(param), classified.
StrideInfo stride_of(const sym::Expr& index, const std::string& param);

/// Stride of the flattened row-major address of `subset` into an array
/// with the given shape, with respect to `param`.  This is the quantity
/// that decides contiguity of the innermost loop.
StrideInfo flat_stride(const std::vector<sym::Expr>& shape,
                       const sym::Subset& subset, const std::string& param);

// ---------------------------------------------------------------------------
// Codegen-facing facts
// ---------------------------------------------------------------------------

/// Facts about one map scope that Tier-1 codegen consumes.
struct MapFacts {
  /// State-edge indices whose memlet is proven in-range for every
  /// iteration (bounds checks can be elided).
  std::set<size_t> inrange_edges;
  /// Every non-empty memlet in the scope is proven in-range.
  bool all_in_range = false;
  /// Every array memlet adjacent to the scope's tasklets is unit- or
  /// zero-stride in the innermost parameter (flattened address).
  bool innermost_contiguous = false;
  /// Innermost loop is safe to vectorize: contiguous, no WCR writes,
  /// and every container that is both read and written in the scope is
  /// accessed at identical addresses (no loop-carried flow dependence).
  bool vectorizable = false;
};

/// Analyze one map scope under the given state-entry environment.
MapFacts analyze_map(const ir::SDFG& sdfg, const ir::State& st, int entry,
                     const Env& state_env);

/// DACE_ABSINT knob: Off ("0"/"off") disables all absint-driven codegen
/// (guards, restrict, vectorization hints) and restores pre-absint
/// behavior; On ("1", default) emits guards only for unproven accesses;
/// All ("all") guards every access, used by the fuzzer to cross-validate
/// "proven in-range" verdicts dynamically.  mode() throws dace::Error on
/// any other value.
enum class Mode { Off, On, All };
Mode mode();

// ---------------------------------------------------------------------------
// Lint entry point (A2xx diagnostics)
// ---------------------------------------------------------------------------

/// Run the absint lint analyses over `sdfg` and every nested SDFG,
/// appending Diagnostics with analysis names:
///   "range"    (A201) memlet not provably in range / provably violating
///   "deadwrite" (A202) write to a transient element never read afterwards
///   "uninit-elem" (A203) read of a transient element no prior write covers
///   "stride"   (A204) non-contiguous innermost access in a parallel map
void lint(const ir::SDFG& sdfg, AnalysisReport& report);

}  // namespace dace::analysis::absint
