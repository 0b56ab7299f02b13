// Structured diagnostics: every frontend / lowering / loader error becomes a
// Diagnostic{code, severity, line, col, span, message, notes} collected into a
// DiagSink.  Sinks render human-readable reports with source-line carets and
// machine-readable JSON.  See docs/DIAGNOSTICS.md for the error-code
// catalogue and the recovery model.
#pragma once

#include <string>
#include <vector>

#include "common/common.hpp"

namespace dace::diag {

enum class Severity { Note, Warning, Error };

const char* severity_name(Severity s);

/// One located finding. Lines and columns are 1-based; 0 means "unknown".
/// `span` is the length in source columns the diagnostic covers (>= 1 when
/// the column is known), used to extend the caret under the offending text.
struct Diagnostic {
  std::string code;      // stable machine code, e.g. "E201" (see catalogue)
  Severity severity = Severity::Error;
  int line = 0;          // 1-based; 0 = no location
  int col = 0;           // 1-based; 0 = no column
  int span = 1;          // caret width in columns
  std::string message;   // human-readable, no location prefix
  std::vector<std::string> notes;  // follow-up hints, rendered indented

  /// "file:line:col: error: [E201] message" (omitting unknown parts).
  std::string format(const std::string& file = "") const;
  /// Single JSON object (stable key order, escaped strings).
  std::string to_json() const;
};

/// Collects diagnostics for one compilation unit. Attach the source text to
/// get caret rendering; errors accumulate so one run reports *all* findings.
class DiagSink {
 public:
  DiagSink() = default;

  /// Attach the source being compiled; enables `line | caret` rendering.
  void set_source(std::string name, std::string text);

  Diagnostic& report(Diagnostic d);
  Diagnostic& error(std::string code, int line, int col, std::string message,
                    int span = 1);
  Diagnostic& warning(std::string code, int line, int col, std::string message,
                      int span = 1);
  Diagnostic& note(std::string code, int line, int col, std::string message,
                   int span = 1);

  bool has_errors() const;
  size_t error_count() const;
  bool empty() const { return diags_.empty(); }
  size_t size() const { return diags_.size(); }
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  void clear() { diags_.clear(); }

  /// Human-readable report: one block per diagnostic with the offending
  /// source line and a caret under the column (tabs preserved for
  /// alignment), notes indented beneath.
  std::string render() const;
  /// `{"source": ..., "diagnostics": [...]}` for --json consumers.
  std::string to_json() const;

 private:
  std::string source_name_;
  std::vector<std::string> source_lines_;
  bool have_source_ = false;
  std::vector<Diagnostic> diags_;
};

/// Error subtype that carries its structured diagnostic, so call sites that
/// `catch (const dace::Error&)` keep working while richer consumers can
/// recover the code/line/col.
class DiagError : public dace::Error {
 public:
  DiagError(Diagnostic d, std::string rendered)
      : dace::Error(std::move(rendered)), diagnostic_(std::move(d)) {}
  const Diagnostic& diagnostic() const { return diagnostic_; }

 private:
  Diagnostic diagnostic_;
};

/// Build a DiagError from a sink: message is the full rendered report,
/// the carried diagnostic is the sink's first error (or first entry).
DiagError diag_error(const DiagSink& sink);

/// Escape a string for embedding in a JSON document.
std::string json_escape(const std::string& s);

}  // namespace dace::diag
