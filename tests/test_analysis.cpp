// Semantic analysis tests: race detector, bounds checker, interstate
// def-use, Pipeline verify mode, and the save/load serializer that feeds
// the sdfg-lint tool.
#include "analysis/analysis.hpp"

#include <gtest/gtest.h>

#include "common/obs.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "testing/fuzzgen.hpp"
#include "transforms/auto_optimize.hpp"
#include "transforms/pass.hpp"

namespace dace {
namespace {

using analysis::AnalysisReport;
using analysis::Severity;
using ir::CodeExpr;
using ir::DType;
using ir::Memlet;
using ir::SDFG;
using ir::State;
using ir::WCR;
using sym::Expr;
using sym::Range;
using sym::S;
using sym::Subset;

/// Map over i in [0, N) whose tasklet writes A[target] with the given
/// WCR -- the minimal graph the race detector reasons about.
std::unique_ptr<SDFG> map_writing(const Subset& target, WCR wcr) {
  auto g = std::make_unique<SDFG>("prog");
  g->add_symbol("N");
  g->add_array("A", DType::f64, {S("N")});
  g->add_arg("A");
  State& st = g->add_state("main", true);
  int na = st.add_access("A");
  auto [me, mx] = st.add_map("m", {"i"}, Subset({Range(Expr(0), S("N"))}));
  int tl = st.add_tasklet("t", {}, CodeExpr::constant(1.0));
  st.add_edge(me, "", tl, "", Memlet());
  st.add_edge(tl, "__out", mx, "IN_A", Memlet("A", target, wcr));
  st.add_edge(mx, "OUT_A", na, "", Memlet("A", Subset::full({S("N")})));
  return g;
}

int count(const AnalysisReport& r, const std::string& analysis, Severity sev) {
  int n = 0;
  for (const auto& d : r.diagnostics()) {
    n += d.analysis == analysis && d.severity == sev;
  }
  return n;
}

// -- race detector -----------------------------------------------------------

TEST(RaceDetector, EveryIterationWritesSameElement) {
  auto g = map_writing(Subset::element({Expr(0)}), WCR::None);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "race", Severity::Error), 1) << r.to_string();
  EXPECT_TRUE(r.has_errors());
}

TEST(RaceDetector, WcrResolvesTheConflict) {
  auto g = map_writing(Subset::element({Expr(0)}), WCR::Sum);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "race", Severity::Error), 0) << r.to_string();
  EXPECT_EQ(count(r, "race", Severity::Warning), 0) << r.to_string();
}

TEST(RaceDetector, DisjointWritesAreSilent) {
  auto g = map_writing(Subset::element({S("i")}), WCR::None);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_TRUE(r.empty()) << r.to_string();
}

TEST(RaceDetector, StridedWritesAreSilent) {
  // A[2i] over i in [0, N): lattice writes, pairwise disjoint.
  auto g = map_writing(Subset::element({S("i") * Expr(2)}), WCR::None);
  g->array("A").shape = {S("N") * Expr(2)};
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "race", Severity::Error), 0) << r.to_string();
  EXPECT_EQ(count(r, "race", Severity::Warning), 0) << r.to_string();
}

TEST(RaceDetector, UnprovableDisjointnessWarns) {
  // A[i mod 7]: neither a provable race nor provably disjoint.
  auto g = map_writing(Subset::element({mod(S("i"), Expr(7))}), WCR::None);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "race", Severity::Error), 0) << r.to_string();
  EXPECT_EQ(count(r, "race", Severity::Warning), 1) << r.to_string();
}

TEST(RaceDetector, MixedWcrAndPlainWriteIsFlagged) {
  // Two writes to the same element, one resolved, one not: still a race.
  auto g = map_writing(Subset::element({Expr(0)}), WCR::Sum);
  State& st = g->state(0);
  int tl2 = st.add_tasklet("t2", {}, CodeExpr::constant(2.0));
  st.add_edge(1, "", tl2, "", Memlet());  // node 1 is the map entry
  st.add_edge(tl2, "__out", 2, "IN_A",
              Memlet("A", Subset::element({Expr(0)}), WCR::None));
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "race", Severity::Error), 1) << r.to_string();
}

// -- bounds checker ----------------------------------------------------------

TEST(BoundsChecker, ProvableOutOfBoundsIsError) {
  // A[i+1] with i up to N-1 accesses A[N]: provably out of bounds.
  auto g = map_writing(Subset::element({S("i") + Expr(1)}), WCR::None);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "bounds", Severity::Error), 1) << r.to_string();
}

TEST(BoundsChecker, NegativeIndexIsError) {
  auto g = map_writing(Subset::element({S("i") - Expr(1)}), WCR::None);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "bounds", Severity::Error), 1) << r.to_string();
}

TEST(BoundsChecker, InBoundsIsSilent) {
  auto g = map_writing(Subset::element({S("i")}), WCR::None);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "bounds", Severity::Error), 0) << r.to_string();
  EXPECT_EQ(count(r, "bounds", Severity::Warning), 0) << r.to_string();
}

TEST(BoundsChecker, UnprovableBoundWarns) {
  // A[i+M-1] with a free symbol M (>= 1 by the engine's assumption):
  // neither provably out of bounds nor provably inside without a
  // relation between M and N.
  auto g = map_writing(Subset::element({S("i") + S("M") - Expr(1)}),
                       WCR::None);
  g->add_symbol("M");
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "bounds", Severity::Error), 0) << r.to_string();
  EXPECT_GE(count(r, "bounds", Severity::Warning), 1) << r.to_string();
}

// -- interstate def-use ------------------------------------------------------

/// Two-state SDFG: state 0 (start) optionally writes transient `t`,
/// state 1 copies t into the output.
std::unique_ptr<SDFG> transient_read(bool written_before) {
  auto g = std::make_unique<SDFG>("prog");
  g->add_symbol("N");
  g->add_array("out", DType::f64, {S("N")});
  g->add_arg("out");
  g->add_array("t", DType::f64, {S("N")}, /*transient=*/true);
  State& s0 = g->add_state("init", true);
  if (written_before) {
    int src = s0.add_access("out");
    int dst = s0.add_access("t");
    s0.add_edge(src, "", dst, "", Memlet("t", Subset::full({S("N")})));
  }
  State& s1 = g->add_state("use");
  int src = s1.add_access("t");
  int dst = s1.add_access("out");
  s1.add_edge(src, "", dst, "", Memlet("out", Subset::full({S("N")})));
  g->add_interstate_edge(0, 1);
  return g;
}

TEST(DefUse, ReadOfNeverWrittenTransientIsError) {
  auto g = transient_read(false);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "defuse", Severity::Error), 1) << r.to_string();
}

TEST(DefUse, InitializedTransientIsSilent) {
  auto g = transient_read(true);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "defuse", Severity::Error), 0) << r.to_string();
}

TEST(DefUse, SomePathInitializationWarns) {
  // Diamond: start -> {writes t | empty} -> read t.
  auto g = transient_read(false);
  State& s2 = g->add_state("maybe_init");
  int src = s2.add_access("out");
  int dst = s2.add_access("t");
  s2.add_edge(src, "", dst, "", Memlet("t", Subset::full({S("N")})));
  // start(0) branches to maybe_init(2) and directly to use(1).
  g->add_interstate_edge(0, 2);
  g->add_interstate_edge(2, 1);
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "defuse", Severity::Error), 0) << r.to_string();
  EXPECT_EQ(count(r, "defuse", Severity::Warning), 1) << r.to_string();
}

TEST(DefUse, DeadWriteWarns) {
  auto g = std::make_unique<SDFG>("prog");
  g->add_symbol("N");
  g->add_array("out", DType::f64, {S("N")});
  g->add_arg("out");
  g->add_array("t", DType::f64, {S("N")}, /*transient=*/true);
  State& st = g->add_state("main", true);
  int src = st.add_access("out");
  int dst = st.add_access("t");
  st.add_edge(src, "", dst, "", Memlet("t", Subset::full({S("N")})));
  AnalysisReport r = analysis::analyze(*g);
  EXPECT_EQ(count(r, "defuse", Severity::Warning), 1) << r.to_string();
}

// -- pipeline verify mode ----------------------------------------------------

// A pass that adds a new error-severity finding is rolled back
// (TransactionalPipeline.VerifyModeCatchesSemanticBreakImmediately); these
// pin the other side of the gate.

TEST(PipelineVerify, PreexistingFindingsAreBaseline) {
  // The input graph already races; a pass that does not make things
  // worse must not be blamed for it.
  auto g = map_writing(Subset::element({Expr(0)}), WCR::None);
  xf::Pipeline pipe("test");
  pipe.add("noop-change", [](ir::SDFG& sdfg) {
    sdfg.state(0).set_label("renamed");
    return true;
  });
  pipe.set_verify(true);
  xf::PassReport report = pipe.run_transactional(*g);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].committed) << report.summary();
  EXPECT_EQ(report.rolled_back, 0);
  EXPECT_EQ(g->state(0).label(), "renamed");
}

TEST(PipelineVerify, CleanPipelineReportsNoErrors) {
  auto g = map_writing(Subset::element({S("i")}), WCR::None);
  xf::Pipeline pipe("test");
  pipe.add("rename", [](ir::SDFG& sdfg) {
    sdfg.state(0).set_label("renamed");
    return true;
  });
  pipe.set_verify(true);
  xf::PassReport report = pipe.run_transactional(*g);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].committed) << report.summary();
  EXPECT_TRUE(report.all_committed());
  EXPECT_TRUE(report.first_broken_pass.empty());
  EXPECT_FALSE(analysis::analyze(*g).has_errors());
}

// Verify mode is the baseline analysis' only reader, so a plain run must
// not pay for it.  Spans are matched by name: loop_to_map's absint.*
// spans share the `analysis` category.
TEST(PipelineVerify, BaselineAnalysisOnlyInVerifyMode) {
  for (bool verify : {false, true}) {
    auto g = fe::compile_to_sdfg(kernels::kernel("jacobi_2d").source);
    xf::PassReport report;
    xf::AutoOptOptions opts;
    opts.verify = verify;
    opts.report = &report;
    obs::set_enabled(true);
    obs::clear();
    xf::auto_optimize(*g, ir::DeviceType::CPU, opts);
    int races = 0, applied = 0;
    for (const auto& e : obs::snapshot())
      races += std::string(e.cat) == "analysis" && e.name == "race";
    obs::clear();
    obs::set_enabled(false);
    for (const auto& o : report.outcomes) applied += o.applied;
    ASSERT_EQ(report.rolled_back, 0) << report.summary();
    EXPECT_GT(applied, 0);
    EXPECT_EQ(races, verify ? 1 + applied : 0) << report.summary();
  }
}

// Verify mode is the pipeline's one recovery path; on the suite and the
// fuzz corpus it rolls nothing back and commits what plain mode commits.
TEST(PipelineVerify, VerifyModeCommitsThePlainGraph) {
  std::vector<std::string> sources;
  for (const auto& k : kernels::suite()) sources.push_back(k.source);
  for (uint64_t seed = 0; seed < 100; ++seed)
    sources.push_back(fuzz::generate_program(seed));
  for (const auto& source : sources) {
    auto plain = fe::compile_to_sdfg(source);
    auto verified = plain->clone();
    xf::AutoOptOptions opts;
    opts.verify = false;
    xf::auto_optimize(*plain, ir::DeviceType::CPU, opts);
    xf::PassReport report;
    opts.verify = true;
    opts.report = &report;
    xf::auto_optimize(*verified, ir::DeviceType::CPU, opts);
    EXPECT_EQ(report.rolled_back, 0) << source << report.summary();
    EXPECT_EQ(verified->save(), plain->save()) << source;
  }
}

// -- whole-suite integration -------------------------------------------------

class AnalysisSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(AnalysisSuite, FrontendOutputHasNoErrors) {
  const kernels::Kernel& k = kernels::kernel(GetParam());
  auto sdfg = fe::compile_to_sdfg(k.source);
  AnalysisReport r = analysis::analyze(*sdfg);
  EXPECT_FALSE(r.has_errors()) << k.name << ":\n" << r.to_string();
}

TEST_P(AnalysisSuite, VerifiedAutoOptimizeSucceeds) {
  const kernels::Kernel& k = kernels::kernel(GetParam());
  auto sdfg = fe::compile_to_sdfg(k.source);
  xf::AutoOptOptions opts;
  opts.verify = true;  // analyzer runs after every pass
  EXPECT_NO_THROW(xf::auto_optimize(*sdfg, ir::DeviceType::CPU, opts))
      << k.name;
}

TEST_P(AnalysisSuite, SerializerRoundTrips) {
  const kernels::Kernel& k = kernels::kernel(GetParam());
  auto sdfg = fe::compile_to_sdfg(k.source);
  EXPECT_EQ(ir::load_sdfg(sdfg->save())->dump(), sdfg->dump()) << k.name;
  // Optimized graphs exercise strided/tiled subsets and library nodes.
  xf::auto_optimize(*sdfg, ir::DeviceType::CPU);
  EXPECT_EQ(ir::load_sdfg(sdfg->save())->dump(), sdfg->dump()) << k.name;
}

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const auto& k : kernels::suite()) names.push_back(k.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, AnalysisSuite,
                         ::testing::ValuesIn(kernel_names()),
                         [](const auto& info) { return info.param; });

// -- structural validation additions -----------------------------------------

TEST(Validate, WcrOnReadMemletRejected) {
  auto g = map_writing(Subset::element({S("i")}), WCR::None);
  State& st = g->state(0);
  // Forge a read edge out of the map entry that carries WCR.
  int na2 = st.add_access("A");
  st.add_edge(na2, "", 1, "IN_r", Memlet("A", Subset::full({S("N")})));
  st.add_edge(1, "OUT_r", 3, "x",
              Memlet("A", Subset::element({S("i")}), WCR::Sum));
  EXPECT_THROW(g->validate(), Error);
}

TEST(Validate, MapExitConnectorPairingEnforced) {
  auto g = map_writing(Subset::element({S("i")}), WCR::None);
  State& st = g->state(0);
  // An IN_B arriving at the exit with no matching OUT_B leaving it.
  int tl2 = st.add_tasklet("t2", {}, ir::CodeExpr::constant(0.0));
  st.add_edge(1, "", tl2, "", Memlet());
  st.add_edge(tl2, "__out", 2, "IN_B",
              Memlet("A", Subset::element({S("i")})));
  EXPECT_THROW(g->validate(), Error);
}

}  // namespace
}  // namespace dace
