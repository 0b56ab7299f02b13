// Transformation framework (Section 2.4 / 3.1).
//
// Transformations match a subgraph pattern and, when safe (checked with
// symbolic set operations), rewrite the graph.  They only modify or remove
// elements, so repeated application terminates.  apply_repeated() runs a
// transformation to fixpoint, mirroring the paper's dataflow-coarsening
// pass; auto_optimize.hpp chains them into the -O3-equivalent pipeline.
//
// Pipeline sequences named passes and runs each one transactionally: a
// pass rewrites a snapshot, which is committed only if the pass reports a
// change and the snapshot survives the commit gate.  In verify mode
// (set_verify(true) or DACE_VERIFY_PASSES=1) the gate also runs the
// semantic analyzer (analysis/analysis.hpp) -- the verify-after-every-
// transformation discipline of the paper's correctness story, and the one
// recovery path for a pass that breaks semantics but not structure: that
// pass is rolled back and named, with its new error-severity finding
// (race, out-of-bounds memlet, uninitialized read), in the PassReport.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "ir/sdfg.hpp"

namespace dace::xf {

/// A transformation: scans the SDFG and applies itself at most once.
/// Returns true if the graph changed.
using Transformation = std::function<bool(ir::SDFG&)>;

/// Apply `t` until fixpoint; returns the number of applications.
int apply_repeated(ir::SDFG& sdfg, const Transformation& t,
                   int max_iterations = 10000);

/// A named pipeline stage.
struct Pass {
  std::string name;
  Transformation apply;
};

/// Outcome of one pass in a transactional pipeline run.
struct PassOutcome {
  std::string name;
  bool applied = false;      // the pass reported a change
  bool committed = false;    // the change was kept
  bool rolled_back = false;  // graph restored to the pre-pass snapshot
  bool timed_out = false;    // exceeded DACE_XF_PASS_TIMEOUT
  double ms = 0.0;           // wall-clock time of the pass body
  std::string error;         // why the pass was rolled back (empty if ok)
};

/// Report of a transactional pipeline run: one outcome per pass, plus the
/// name of the first pass that failed its own transaction.
struct PassReport {
  std::vector<PassOutcome> outcomes;
  int committed = 0;
  int rolled_back = 0;
  std::string first_broken_pass;  // empty if every pass committed
  std::string pipeline;

  bool all_committed() const { return rolled_back == 0; }
  /// Human-readable per-pass table.
  std::string summary() const;
};

/// An ordered sequence of passes with optional verify-after-every-pass.
class Pipeline {
 public:
  explicit Pipeline(std::string name) : name_(std::move(name)) {}

  /// Append a pass that runs once.
  Pipeline& add(const std::string& name, Transformation t);
  /// Append a pass that runs `t` to fixpoint (apply_repeated).
  Pipeline& add_fixpoint(const std::string& name, Transformation t);

  /// Force verify mode on or off (overrides the environment).
  void set_verify(bool v) { verify_ = v; }
  /// Effective verify mode: explicit setting, else DACE_VERIFY_PASSES.
  bool verify() const;

  /// Run all passes in order.  Every pass executes against a deep-clone
  /// snapshot.  A pass that reports no change is neither gated nor
  /// committed; one that does is committed only if the snapshot survives
  /// structural validation and a serializer round-trip (plus, in verify
  /// mode, the semantic analyzer: findings present *before* the pipeline
  /// are the baseline, taken only in verify mode, and a new error-severity
  /// finding fails the gate).  A pass that throws, fails the gate, or
  /// exceeds the per-pass timeout (DACE_XF_PASS_TIMEOUT, milliseconds) is
  /// rolled back and recorded in the report; the pipeline continues
  /// degraded with the remaining passes.  Never throws on pass failure --
  /// the graph left in `sdfg` is always the best verified one.
  PassReport run_transactional(ir::SDFG& sdfg) const;

  /// Per-pass timeout in milliseconds from DACE_XF_PASS_TIMEOUT (0 = off).
  static int pass_timeout_ms();

 private:
  std::string name_;
  std::vector<Pass> passes_;
  std::optional<bool> verify_;
};

// -- shared graph-surgery helpers -------------------------------------------

/// Rename map parameters of a scope: substitutes the symbols in all memlet
/// subsets and tasklet code inside the scope and updates the entry.
void rename_map_params(ir::State& st, int entry,
                       const std::vector<std::string>& new_params);

/// True if a tasklet is the identity function of its single input.
bool is_identity_tasklet(const ir::Tasklet& t);

/// All states (ids) in which a container is referenced by an access node
/// or memlet.
std::vector<int> states_using(const ir::SDFG& sdfg, const std::string& name);

/// True if `name` is referenced anywhere (access node, memlet, library
/// attribute) in the SDFG.
bool container_referenced(const ir::SDFG& sdfg, const std::string& name);

}  // namespace dace::xf
