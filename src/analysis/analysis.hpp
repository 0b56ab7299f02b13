// SDFG semantic analysis (the "sanitizer").
//
// Structural validation (ir/validate.cpp) guarantees a graph is well
// formed; the analyses here check that it *means* what the paper's SDFG
// semantics require (Section 2.3): map iterations are parallel only if
// their write memlets are provably disjoint or carry WCR, every memlet
// must stay within its container's shape, and the state machine must
// define data before it is used.  All three are best-effort symbolic
// analyses with three-valued verdicts -- provably wrong graphs produce
// errors, unprovable ones produce warnings, provably safe ones stay
// silent -- so they can run after every transformation pass
// (xf::Pipeline verify mode, DACE_VERIFY_PASSES=1) without drowning the
// pipeline in noise.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "ir/sdfg.hpp"

namespace dace::analysis {

enum class Severity { Warning, Error };

inline const char* severity_name(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

/// One finding of one analysis, with enough context to locate and fix it.
struct Diagnostic {
  Severity severity = Severity::Warning;
  std::string analysis;   // "race" | "bounds" | "defuse"
  std::string sdfg;       // SDFG name (nested SDFGs are analyzed too)
  int state = -1;         // state id, -1 if interstate/global
  int node = -1;          // node id within the state, -1 if none
  std::string container;  // affected data container, may be empty
  std::string memlet;     // offending memlet (printed), may be empty
  std::string message;    // what is wrong
  std::string hint;       // how to fix it, may be empty

  std::string to_string() const;
  /// Stable identity used by Pipeline verify mode to tell pre-existing
  /// findings from ones a pass introduced (node ids shift under graph
  /// surgery, so they are excluded).
  std::string fingerprint() const;
};

/// Shared result sink of all analyses.
class AnalysisReport {
 public:
  void add(Diagnostic d) { diags_.push_back(std::move(d)); }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  int num_errors() const;
  int num_warnings() const;
  bool has_errors() const { return num_errors() > 0; }
  bool empty() const { return diags_.empty(); }

  /// Fingerprints of all error diagnostics (see Diagnostic::fingerprint).
  std::set<std::string> error_fingerprints() const;

  /// Human-readable rendering, one line per finding plus a summary.
  std::string to_string() const;

 private:
  std::vector<Diagnostic> diags_;
};

// -- individual analyses -----------------------------------------------------

/// Race detector: for every map scope, instantiates each write memlet at
/// two distinct symbolic iteration points (i vs i + d*step with a fresh
/// d >= 1) and classifies each pair of writes leaving the scope as
/// safe / WCR-resolved / provable race (error) / unknown (warning).
/// Covers tasklet outputs, nested maps and library nodes (anything that
/// writes through the map exit).
void detect_races(const ir::SDFG& sdfg, AnalysisReport& report);

/// Bounds checker: proves each memlet subset lies within its container's
/// shape (0 <= begin and last-accessed < shape[d]).  Map parameters are
/// substituted by the corners of their iteration ranges, so a provable
/// out-of-bounds corner is a real access of a real iteration (error);
/// unprovable bounds degrade to warnings.
void check_bounds(const ir::SDFG& sdfg, AnalysisReport& report);

/// Interstate def-use analysis: reaching definitions per container over
/// the state machine.  Reads of never-written transients are errors,
/// reads that are uninitialized on some-but-not-all paths and writes
/// that are never read (dead writes) are warnings.
void analyze_defuse(const ir::SDFG& sdfg, AnalysisReport& report);

/// Run all three analyses on the SDFG and, recursively, on every nested
/// SDFG it contains.
AnalysisReport analyze(const ir::SDFG& sdfg);

/// True if DACE_VERIFY_PASSES=1: transformation pipelines verify after
/// every pass and the executor analyzes before the first run.  Throws
/// dace::Error on a value other than 0 or 1.
bool verify_env();

}  // namespace dace::analysis
