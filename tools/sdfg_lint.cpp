// sdfg-lint: offline static analyzer for SDFGs.
//
// Runs the analysis/ sanitizer (race detector, memlet bounds checker,
// interstate def-use) over graphs stored on disk, without executing them.
//
// Usage:
//   sdfg-lint [--werror] [--json] FILE...
//   sdfg-lint --emit-sample=race|clean
//   sdfg-lint --selftest
//
// Each FILE is either an SDFG serialization produced by SDFG::save()
// (detected by a leading '(') or a DaCeLang source, which is compiled
// through the frontend first.  All findings are structured diagnostics
// (common/diag.hpp) with stable codes: frontend/loader errors keep their
// E1xx-E4xx codes (with source-line carets for DaCeLang inputs), and the
// analyses report A101 (race), A102 (bounds), A103 (def-use).  The
// abstract-interpretation lints (analysis/absint.hpp) add three-valued
// verdicts on top: A201 (possible/proven out-of-range access), A202
// (dead element write), A203 (read of a never-written element), A204
// (non-contiguous innermost access in a hot map).  DACE_ABSINT=0
// disables the A2xx analyses.  --json emits one machine-readable report
// per file.  --werror also fails on warnings.  --emit-sample prints a
// serialized example graph (racy or clean); --selftest round-trips both
// samples through the serializer, checks the analyzer classifies them
// correctly, and verifies every A1xx/A2xx code survives into the JSON
// rendering on a zoo of minimal trigger graphs.
//
// Exit codes: 0 = clean, 1 = findings, 2 = parse/load failure,
// 64 = usage error (including a malformed DACE_ABSINT).
#include <cctype>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint.hpp"
#include "analysis/analysis.hpp"
#include "common/diag.hpp"
#include "frontend/lowering.hpp"
#include "ir/sdfg.hpp"

namespace {

using dace::analysis::AnalysisReport;
using namespace dace::ir;
namespace diag = dace::diag;

/// A one-state, one-map SDFG: every iteration writes A[0] (racy) or A[i]
/// (clean).  The racy variant is the canonical write-conflict the race
/// detector must prove.
std::unique_ptr<SDFG> build_sample(bool racy) {
  using dace::sym::Expr;
  using dace::sym::Range;
  using dace::sym::S;
  using dace::sym::Subset;

  auto g = std::make_unique<SDFG>(racy ? "sample_racy" : "sample_clean");
  g->add_symbol("N");
  g->add_array("A", DType::f64, {S("N")});
  g->add_arg("A");
  State& st = g->add_state("main", true);
  int na = st.add_access("A");
  auto [me, mx] = st.add_map("m", {"i"},
                             Subset({Range(Expr(int64_t{0}), S("N"))}));
  int tl = st.add_tasklet("t", {}, CodeExpr::constant(1.0));
  Subset target = racy ? Subset::element({Expr(int64_t{0})})
                       : Subset::element({S("i")});
  st.add_edge(me, "", tl, "", Memlet());
  st.add_edge(tl, "__out", mx, "IN_A", Memlet("A", target));
  st.add_edge(mx, "OUT_A", na, "", Memlet("A", Subset::full({S("N")})));
  return g;
}

/// Minimal trigger graphs for the stable analysis codes: each entry
/// produces at least one finding with every listed code.  Used by
/// --selftest to pin the code table and the JSON rendering.
struct ZooEntry {
  std::unique_ptr<SDFG> g;
  std::vector<const char*> codes;
};

std::vector<ZooEntry> build_code_zoo() {
  using dace::sym::Expr;
  using dace::sym::Range;
  using dace::sym::S;
  using dace::sym::Subset;
  std::vector<ZooEntry> zoo;

  // A101: every iteration writes A[0].
  zoo.push_back({build_sample(true), {"A101"}});

  // A102 + A201: map over [0, N) writes A[i+1]; the last iteration walks
  // off the end, which both the corner checker and the interval prover
  // refute.
  {
    auto g = std::make_unique<SDFG>("oob");
    g->add_symbol("N");
    g->add_array("A", DType::f64, {S("N")});
    g->add_arg("A");
    State& st = g->add_state("main", true);
    int na = st.add_access("A");
    auto [me, mx] = st.add_map("m", {"i"},
                               Subset({Range(Expr(int64_t{0}), S("N"))}));
    int tl = st.add_tasklet("t", {}, CodeExpr::constant(1.0));
    st.add_edge(me, "", tl, "", Memlet());
    st.add_edge(tl, "__out", mx, "IN_A",
                Memlet("A", Subset::element({S("i") + Expr(int64_t{1})})));
    st.add_edge(mx, "OUT_A", na, "", Memlet("A", Subset::full({S("N")})));
    zoo.push_back({std::move(g), {"A102", "A201"}});
  }

  // A202 / A203: state 0 writes tmp[0] and tmp[2:N); the consumer reads
  // one element.  Reading tmp[0] leaves [2, N) element-dead (A202);
  // reading tmp[1] hits a gap no write covers (A203).  Both are
  // invisible to the container-level A103 def-use.
  for (int read : {0, 1}) {
    auto g = std::make_unique<SDFG>(read == 0 ? "deadwrite" : "uninit_elem");
    g->add_symbol("N");
    g->add_array("out", DType::f64, {S("N")});
    g->add_arg("out");
    g->add_array("tmp", DType::f64, {S("N")}, /*transient=*/true);
    State& s0 = g->add_state("produce", true);
    int t1 = s0.add_tasklet("t1", {}, CodeExpr::constant(1.0));
    int t2 = s0.add_tasklet("t2", {}, CodeExpr::constant(2.0));
    int a0 = s0.add_access("tmp");
    s0.add_edge(t1, "__out", a0, "",
                Memlet("tmp", Subset::element({Expr(int64_t{0})})));
    s0.add_edge(t2, "__out", a0, "",
                Memlet("tmp", Subset({Range(Expr(int64_t{2}), S("N"))})));
    State& s1 = g->add_state("consume");
    int a1 = s1.add_access("tmp");
    int b1 = s1.add_access("out");
    int tc = s1.add_tasklet("c", {"x"}, CodeExpr::input("x"));
    s1.add_edge(a1, "", tc, "x",
                Memlet("tmp", Subset::element({Expr(int64_t{read})})));
    s1.add_edge(tc, "__out", b1, "",
                Memlet("out", Subset::element({Expr(int64_t{0})})));
    g->add_interstate_edge(0, 1);
    zoo.push_back({std::move(g), {read == 0 ? "A202" : "A203"}});
  }

  // A103: a transient read that no state ever writes (whole-container
  // def-use violation).
  {
    auto g = std::make_unique<SDFG>("uninit");
    g->add_symbol("N");
    g->add_array("out", DType::f64, {S("N")});
    g->add_arg("out");
    g->add_array("tmp", DType::f64, {S("N")}, /*transient=*/true);
    State& st = g->add_state("main", true);
    int a = st.add_access("tmp");
    int b = st.add_access("out");
    int tl = st.add_tasklet("c", {"x"}, CodeExpr::input("x"));
    st.add_edge(a, "", tl, "x",
                Memlet("tmp", Subset::element({Expr(int64_t{0})})));
    st.add_edge(tl, "__out", b, "",
                Memlet("out", Subset::element({Expr(int64_t{0})})));
    zoo.push_back({std::move(g), {"A103"}});
  }

  // A204: transposed read inside a parallel map -- the innermost
  // parameter strides by M instead of 1.
  {
    auto g = std::make_unique<SDFG>("transposed");
    g->add_symbol("N");
    g->add_symbol("M");
    g->add_array("A", DType::f64, {S("N"), S("M")});
    g->add_array("B", DType::f64, {S("N"), S("M")});
    g->add_arg("A");
    g->add_arg("B");
    State& st = g->add_state("main", true);
    int na = st.add_access("A");
    int nb = st.add_access("B");
    auto [me, mx] = st.add_map(
        "m", {"i", "j"},
        Subset({Range(Expr(int64_t{0}), S("N")),
                Range(Expr(int64_t{0}), S("M"))}),
        Schedule::CPUParallel);
    int tl = st.add_tasklet("t", {"x"}, CodeExpr::input("x"));
    st.add_edge(na, "", me, "IN_A", Memlet("A", Subset::full({S("N"), S("M")})));
    st.add_edge(me, "OUT_A", tl, "x",
                Memlet("A", Subset::element({S("j"), S("i")})));
    st.add_edge(tl, "__out", mx, "IN_B",
                Memlet("B", Subset::element({S("i"), S("j")})));
    st.add_edge(mx, "OUT_B", nb, "",
                Memlet("B", Subset::full({S("N"), S("M")})));
    zoo.push_back({std::move(g), {"A204"}});
  }
  return zoo;
}

/// Stable machine code of an analysis finding.
const char* analysis_code(const std::string& analysis) {
  if (analysis == "race") return "A101";
  if (analysis == "bounds") return "A102";
  if (analysis == "defuse") return "A103";
  if (analysis == "range") return "A201";
  if (analysis == "deadwrite") return "A202";
  if (analysis == "uninit-elem") return "A203";
  if (analysis == "stride") return "A204";
  return "A100";
}

/// Classic analyses plus (unless DACE_ABSINT=0) the absint lints.
AnalysisReport run_analyses(const SDFG& g) {
  AnalysisReport report = dace::analysis::analyze(g);
  if (dace::analysis::absint::mode() != dace::analysis::absint::Mode::Off)
    dace::analysis::absint::lint(g, report);
  return report;
}

/// Convert the analyzer's findings into structured diagnostics.  SDFGs
/// have no source lines, so the location is carried in notes.
void report_analysis(const AnalysisReport& report, diag::DiagSink& sink) {
  for (const auto& d : report.diagnostics()) {
    diag::Diagnostic out;
    out.code = analysis_code(d.analysis);
    out.severity = d.severity == dace::analysis::Severity::Error
                       ? diag::Severity::Error
                       : diag::Severity::Warning;
    out.message = "[" + d.analysis + "] " + d.message;
    std::string where = "in sdfg '" + d.sdfg + "'";
    if (d.state >= 0) where += ", state " + std::to_string(d.state);
    if (d.node >= 0) where += ", node " + std::to_string(d.node);
    out.notes.push_back(where);
    if (!d.container.empty()) out.notes.push_back("container '" + d.container + "'");
    if (!d.memlet.empty()) out.notes.push_back("memlet " + d.memlet);
    if (!d.hint.empty()) out.notes.push_back("hint: " + d.hint);
    sink.report(std::move(out));
  }
}

/// Load a graph from file contents: serialized SDFGs start with '(';
/// anything else is treated as DaCeLang source.  Failures land in `sink`
/// as located diagnostics; returns nullptr.
std::unique_ptr<SDFG> load_any(const std::string& text,
                               diag::DiagSink& sink) {
  size_t i = 0;
  while (i < text.size() && std::isspace((unsigned char)text[i])) ++i;
  if (i < text.size() && text[i] == '(') return load_sdfg(text, sink);
  return dace::fe::compile_to_sdfg(text, sink);
}

int selftest() {
  for (bool racy : {true, false}) {
    auto g = build_sample(racy);
    g->validate();
    std::unique_ptr<SDFG> reloaded = load_sdfg(g->save());
    if (reloaded->dump() != g->dump()) {
      std::cerr << "selftest: serializer round-trip mismatch for "
                << g->name() << "\n";
      return 2;
    }
    AnalysisReport report = dace::analysis::analyze(*reloaded);
    if (racy != report.has_errors()) {
      std::cerr << "selftest: expected " << (racy ? "errors" : "no errors")
                << " for " << g->name() << ", got:\n"
                << report.to_string();
      return 2;
    }
    // The structured rendering must carry the stable code.
    diag::DiagSink sink;
    report_analysis(report, sink);
    if (racy && sink.render().find("A101") == std::string::npos) {
      std::cerr << "selftest: race finding lost its A101 code:\n"
                << sink.render();
      return 2;
    }
    // Malformed input must produce a located E4xx diagnostic, not a
    // crash or an unlocated throw.
    diag::DiagSink bad;
    if (load_sdfg("(sdfg \"x\" (array", bad) != nullptr ||
        !bad.has_errors() || bad.diagnostics()[0].code.rfind("E4", 0) != 0) {
      std::cerr << "selftest: truncated input not diagnosed with E4xx\n";
      return 2;
    }
  }

  // Code-table golden check: every stable A1xx/A2xx code must appear in
  // the JSON rendering of its zoo graph, with the absint lints forced on
  // (the environment gate is for the CLI path, not the selftest).
  std::string all_json = "[";
  bool first = true;
  for (const auto& entry : build_code_zoo()) {
    entry.g->validate();
    AnalysisReport report = dace::analysis::analyze(*entry.g);
    dace::analysis::absint::lint(*entry.g, report);
    diag::DiagSink sink;
    report_analysis(report, sink);
    if (!first) all_json += ",";
    first = false;
    all_json += sink.to_json();
    for (const char* code : entry.codes) {
      if (sink.render().find(code) == std::string::npos) {
        std::cerr << "selftest: graph '" << entry.g->name()
                  << "' did not produce a " << code << " finding:\n"
                  << sink.render();
        return 2;
      }
    }
  }
  all_json += "]";
  for (const char* code :
       {"A101", "A102", "A103", "A201", "A202", "A203", "A204"}) {
    if (all_json.find(code) == std::string::npos) {
      std::cerr << "selftest: code " << code
                << " missing from the JSON rendering\n";
      return 2;
    }
  }

  std::cout << "selftest: ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool werror = false;
  bool json = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--werror") {
      werror = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--selftest") {
      return selftest();
    } else if (arg.rfind("--emit-sample=", 0) == 0) {
      std::string kind = arg.substr(14);
      if (kind != "race" && kind != "clean") {
        std::cerr << "sdfg-lint: unknown sample '" << kind << "'\n";
        return 64;
      }
      std::cout << build_sample(kind == "race")->save();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: sdfg-lint [--werror] [--json] FILE...\n"
                << "       sdfg-lint --emit-sample=race|clean\n"
                << "       sdfg-lint --selftest\n"
                << "exit codes: 0 clean, 1 findings, 2 parse failure, "
                   "64 usage\n";
      return 0;
    } else if (arg.rfind("-", 0) == 0) {
      std::cerr << "sdfg-lint: unknown option '" << arg << "'\n";
      return 64;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "sdfg-lint: no input files (try --help)\n";
    return 64;
  }
  try {
    dace::analysis::absint::mode();  // a malformed DACE_ABSINT is misuse
  } catch (const dace::Error& e) {
    std::cerr << "sdfg-lint: " << e.what() << "\n";
    return 64;
  }

  bool findings = false;
  bool parse_failure = false;
  std::ostringstream json_out;
  json_out << "[";
  bool first_json = true;

  for (const auto& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "sdfg-lint: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    diag::DiagSink sink;
    sink.set_source(path, buf.str());

    std::unique_ptr<SDFG> g = load_any(buf.str(), sink);
    if (g) {
      try {
        g->validate();
      } catch (const dace::Error& e) {
        sink.error("E410", 0, 0,
                   std::string("graph failed validation: ") + e.what());
        g.reset();
      }
    }
    if (!g) {
      parse_failure = true;
    } else {
      report_analysis(run_analyses(*g), sink);
    }

    if (json) {
      if (!first_json) json_out << ",";
      first_json = false;
      json_out << sink.to_json();
    } else if (!sink.empty()) {
      std::cout << sink.render();
    }
    if (sink.has_errors() || (werror && !sink.empty())) findings = true;
  }
  if (json) {
    json_out << "]";
    std::cout << json_out.str() << "\n";
  }
  if (parse_failure) return 2;
  return findings ? 1 : 0;
}
