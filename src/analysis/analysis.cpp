// AnalysisReport plumbing and the all-analyses entry point.
#include "analysis/analysis.hpp"

#include <sstream>

#include "common/env.hpp"
#include "common/obs.hpp"

namespace dace::analysis {

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << severity_name(severity) << " [" << analysis << "] " << sdfg;
  if (state >= 0) os << " state " << state;
  if (node >= 0) os << " node " << node;
  if (!container.empty()) os << " '" << container << "'";
  os << ": " << message;
  if (!memlet.empty()) os << " (memlet " << memlet << ")";
  if (!hint.empty()) os << "\n    hint: " << hint;
  return os.str();
}

std::string Diagnostic::fingerprint() const {
  std::ostringstream os;
  os << severity_name(severity) << "|" << analysis << "|" << sdfg << "|"
     << container << "|" << memlet << "|" << message;
  return os.str();
}

int AnalysisReport::num_errors() const {
  int n = 0;
  for (const auto& d : diags_) n += d.severity == Severity::Error;
  return n;
}

int AnalysisReport::num_warnings() const {
  int n = 0;
  for (const auto& d : diags_) n += d.severity == Severity::Warning;
  return n;
}

std::set<std::string> AnalysisReport::error_fingerprints() const {
  std::set<std::string> out;
  for (const auto& d : diags_) {
    if (d.severity == Severity::Error) out.insert(d.fingerprint());
  }
  return out;
}

std::string AnalysisReport::to_string() const {
  std::ostringstream os;
  for (const auto& d : diags_) os << d.to_string() << "\n";
  os << num_errors() << " error(s), " << num_warnings() << " warning(s)\n";
  return os.str();
}

namespace {

void analyze_into(const ir::SDFG& sdfg, AnalysisReport& report) {
  {
    OBS_SPAN("analysis", "race");
    detect_races(sdfg, report);
  }
  {
    OBS_SPAN("analysis", "bounds");
    check_bounds(sdfg, report);
  }
  {
    OBS_SPAN("analysis", "defuse");
    analyze_defuse(sdfg, report);
  }
  for (int sid : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(sid);
    for (int nid : st.node_ids()) {
      if (const auto* nn = st.node_as<ir::NestedSDFGNode>(nid)) {
        if (nn->sdfg) analyze_into(*nn->sdfg, report);
      }
    }
  }
}

}  // namespace

AnalysisReport analyze(const ir::SDFG& sdfg) {
  AnalysisReport report;
  analyze_into(sdfg, report);
  return report;
}

bool verify_env() { return env::flag("DACE_VERIFY_PASSES", false); }

}  // namespace dace::analysis
