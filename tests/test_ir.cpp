#include "ir/sdfg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/diag.hpp"
#include "frontend/lowering.hpp"
#include "kernels/suite.hpp"
#include "testing/fuzzgen.hpp"
#include "transforms/auto_optimize.hpp"

namespace dace::ir {
namespace {

using sym::Expr;
using sym::Range;
using sym::S;
using sym::Subset;

// Build: out[i] = a[i] * 2 over a map, the canonical single-map state.
std::unique_ptr<SDFG> make_scale_sdfg() {
  auto sdfg = std::make_unique<SDFG>("scale");
  sdfg->add_array("a", DType::f64, {S("N")});
  sdfg->add_array("out", DType::f64, {S("N")});
  sdfg->add_arg("a");
  sdfg->add_arg("out");
  State& st = sdfg->add_state("main", true);
  int na = st.add_access("a");
  int no = st.add_access("out");
  auto [me, mx] = st.add_map("m", {"i"}, Subset({Range(Expr(0), S("N"))}));
  CodeExpr code = CodeExpr::binary(CodeOp::Mul, CodeExpr::input("x"),
                                   CodeExpr::constant(2.0));
  int tl = st.add_tasklet("t", {"x"}, code);
  st.add_edge(na, "", me, "IN_a", Memlet("a", Subset::full({S("N")})));
  st.add_edge(me, "OUT_a", tl, "x",
              Memlet("a", Subset::element({S("i")})));
  st.add_edge(tl, "__out", mx, "IN_out",
              Memlet("out", Subset::element({S("i")})));
  st.add_edge(mx, "OUT_out", no, "",
              Memlet("out", Subset::full({S("N")})));
  return sdfg;
}

TEST(IR, BuildAndValidate) {
  auto sdfg = make_scale_sdfg();
  EXPECT_NO_THROW(sdfg->validate());
  EXPECT_EQ(sdfg->num_states(), 1);
  auto fs = sdfg->free_symbols();
  EXPECT_TRUE(fs.count("N"));
  EXPECT_FALSE(fs.count("i"));  // bound by the map
}

TEST(IR, TopologicalOrder) {
  auto sdfg = make_scale_sdfg();
  const State& st = sdfg->state(0);
  auto order = st.topological_order();
  EXPECT_EQ(order.size(), 5u);
  // access(a) before entry before tasklet before exit before access(out).
  auto pos = [&](int id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(2), pos(4));
  EXPECT_LT(pos(4), pos(3));
  EXPECT_LT(pos(3), pos(1));
}

TEST(IR, ScopeQueries) {
  auto sdfg = make_scale_sdfg();
  const State& st = sdfg->state(0);
  // Node 2 = map entry, 3 = exit, 4 = tasklet.
  auto scope = st.scope_nodes(2);
  EXPECT_EQ(scope.size(), 1u);
  EXPECT_EQ(scope[0], 4);
  EXPECT_EQ(st.scope_of(4), 2);
  EXPECT_EQ(st.scope_of(0), -1);
}

TEST(IR, CycleDetection) {
  SDFG sdfg("cyc");
  sdfg.add_array("a", DType::f64, {Expr(4)});
  State& st = sdfg.add_state("s", true);
  int t1 = st.add_tasklet("t1", {"x"}, CodeExpr::input("x"));
  int t2 = st.add_tasklet("t2", {"x"}, CodeExpr::input("x"));
  st.add_edge(t1, "__out", t2, "x", Memlet("a", Subset::element({Expr(0)})));
  st.add_edge(t2, "__out", t1, "x", Memlet("a", Subset::element({Expr(0)})));
  EXPECT_THROW(st.topological_order(), Error);
}

TEST(IR, ValidationCatchesUnknownContainer) {
  SDFG sdfg("bad");
  State& st = sdfg.add_state("s", true);
  st.add_access("ghost");
  EXPECT_THROW(sdfg.validate(), Error);
}

TEST(IR, ValidationCatchesRankMismatch) {
  SDFG sdfg("bad2");
  sdfg.add_array("a", DType::f64, {S("N"), S("N")});
  State& st = sdfg.add_state("s", true);
  int na = st.add_access("a");
  int tl = st.add_tasklet("t", {"x"}, CodeExpr::input("x"));
  int no = st.add_access("a");
  st.add_edge(na, "", tl, "x", Memlet("a", Subset::element({Expr(0)})));
  st.add_edge(tl, "__out", no, "", Memlet("a", Subset::element({Expr(0)})));
  EXPECT_THROW(sdfg.validate(), Error);
}

TEST(IR, ValidationCatchesUnboundTaskletInput) {
  SDFG sdfg("bad3");
  sdfg.add_array("a", DType::f64, {Expr(4)});
  State& st = sdfg.add_state("s", true);
  int tl = st.add_tasklet("t", {"x"}, CodeExpr::input("x"));
  int no = st.add_access("a");
  st.add_edge(tl, "__out", no, "", Memlet("a", Subset::element({Expr(0)})));
  EXPECT_THROW(sdfg.validate(), Error);
}

/// The message of the error `validate()` throws, or "" when it passes.
std::string validation_error(const SDFG& sdfg) {
  try {
    sdfg.validate();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// A range with step 0 has no size, so validate() rejects it, naming the
// map or memlet -- symbolic bounds included.
TEST(IR, ValidationRejectsZeroStep) {
  auto map_sdfg = make_scale_sdfg();
  map_sdfg->state(0).node_as<MapEntry>(2)->range.range(0).step = Expr(0);
  EXPECT_NE(validation_error(*map_sdfg).find("map 'm' has step 0 in "
                                             "dimension 0"),
            std::string::npos)
      << validation_error(*map_sdfg);

  auto memlet_sdfg = make_scale_sdfg();
  for (auto& e : memlet_sdfg->state(0).edges()) {
    if (e.dst_conn == "x")
      e.memlet.subset.range(0) = Range(Expr(0), Expr(4), Expr(0));
  }
  EXPECT_NE(validation_error(*memlet_sdfg).find("memlet a[0:4:0] has step 0 "
                                                "in dimension 0"),
            std::string::npos)
      << validation_error(*memlet_sdfg);

  // A symbolic step is left to the analyses.
  auto strided = make_scale_sdfg();
  strided->state(0).node_as<MapEntry>(2)->range.range(0).step = S("K");
  EXPECT_EQ(validation_error(*strided), "");
}

TEST(IR, CloneIsDeep) {
  auto sdfg = make_scale_sdfg();
  auto copy = sdfg->clone();
  copy->state(0).node_as<Tasklet>(4)->name = "renamed";
  EXPECT_EQ(sdfg->state(0).node_as<Tasklet>(4)->name, "t");
  EXPECT_EQ(copy->state(0).node_as<Tasklet>(4)->name, "renamed");
  EXPECT_NO_THROW(copy->validate());
}

TEST(IR, InterstateEdgesAndStateOrder) {
  SDFG sdfg("cfg");
  sdfg.add_state("a", true);
  sdfg.add_state("b");
  sdfg.add_state("c");
  sdfg.add_interstate_edge(0, 1);
  sdfg.add_interstate_edge(1, 2, CodeExpr::binary(CodeOp::Lt,
                                                  CodeExpr::symbol("i"),
                                                  CodeExpr::constant(5)));
  auto order = sdfg.state_order();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(sdfg.free_symbols().count("i"));
}

TEST(IR, AddStateBetweenRedirects) {
  SDFG sdfg("mid");
  sdfg.add_state("a", true);
  sdfg.add_state("b");
  sdfg.add_interstate_edge(0, 1);
  sdfg.add_state_between(0, 1, "mid");
  auto order = sdfg.state_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
}

TEST(IR, AccessSets) {
  auto sdfg = make_scale_sdfg();
  auto sets = sdfg->state(0).access_sets();
  EXPECT_TRUE(sets.reads.count("a"));
  EXPECT_TRUE(sets.writes.count("out"));
  EXPECT_FALSE(sets.writes.count("a"));
}

TEST(IR, RenameArray) {
  auto sdfg = make_scale_sdfg();
  sdfg->rename_array("a", "input");
  EXPECT_TRUE(sdfg->has_array("input"));
  EXPECT_FALSE(sdfg->has_array("a"));
  EXPECT_NO_THROW(sdfg->validate());
  EXPECT_EQ(sdfg->arg_names()[0], "input");
}

TEST(IR, DumpAndDotAreStable) {
  auto sdfg = make_scale_sdfg();
  std::string d1 = sdfg->dump();
  std::string d2 = sdfg->clone()->dump();
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1.find("map_entry"), std::string::npos);
  std::string dot = sdfg->to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(IR, UniqueNames) {
  SDFG sdfg("names");
  auto& d1 = sdfg.add_temp("tmp", DType::f64, {Expr(4)});
  auto& d2 = sdfg.add_temp("tmp", DType::f64, {Expr(4)});
  EXPECT_NE(d1.name, d2.name);
}

TEST(IR, PersistentLifetimeAndStorageInDump) {
  SDFG sdfg("attrs");
  auto& d = sdfg.add_array("buf", DType::f32, {S("N")}, true);
  d.lifetime = Lifetime::Persistent;
  d.storage = Storage::GPUGlobal;
  sdfg.add_state("s", true);
  std::string dump = sdfg.dump();
  EXPECT_NE(dump.find("persistent"), std::string::npos);
  EXPECT_NE(dump.find("GPU_Global"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hardened loader: malformed serializations yield located E4xx
// diagnostics -- never an abort, never an unlocated throw.

/// Assert load_sdfg rejects `text` with the given code and a real
/// location, through both the throwing and the sink-based entry points.
void expect_load_error(const std::string& text, const std::string& code) {
  try {
    load_sdfg(text);
    FAIL() << "expected " << code << " for: " << text.substr(0, 60);
  } catch (const diag::DiagError& e) {
    EXPECT_EQ(e.diagnostic().code, code) << e.what();
    EXPECT_GT(e.diagnostic().line, 0);
    EXPECT_GT(e.diagnostic().col, 0);
    EXPECT_NE(std::string(e.what()).find("[" + code + "]"),
              std::string::npos);
  }
  diag::DiagSink sink;
  EXPECT_EQ(load_sdfg(text, sink), nullptr);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].code, code);
}

TEST(Serialize, TruncatedInputIsE401) {
  std::string good = make_scale_sdfg()->save();
  expect_load_error(good.substr(0, good.size() - 3), "E401");
  expect_load_error("(sdfg \"unterminated", "E401");
}

TEST(Serialize, WrongTokenIsE402WithLocation) {
  try {
    load_sdfg("(sdfg broken)");
    FAIL();
  } catch (const diag::DiagError& e) {
    EXPECT_EQ(e.diagnostic().code, "E402");
    EXPECT_EQ(e.diagnostic().line, 1);
    EXPECT_EQ(e.diagnostic().col, 7);  // the 'b'
  }
}

/// 1-based line:col of byte `at` of `text`.
std::pair<int, int> line_col(const std::string& text, size_t at) {
  size_t nl = text.rfind('\n', at);
  int line = 1 + (int)std::count(text.begin(), text.begin() + at, '\n');
  return {line, (int)(nl == std::string::npos ? at + 1 : at - nl)};
}

TEST(Serialize, OverflowingNumberIsE404) {
  std::string bad = make_scale_sdfg()->save();
  size_t at = bad.find("(c 0)");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 5, "(c 99999999999999999999999)");
  expect_load_error(bad, "E404");
  try {
    load_sdfg(bad);
  } catch (const diag::DiagError& e) {
    auto [line, col] = line_col(bad, at + 3);  // the integer itself
    EXPECT_EQ(e.diagnostic().line, line);
    EXPECT_EQ(e.diagnostic().col, col);
    EXPECT_NE(std::string(e.what()).find(
                  "expected integer, got '99999999999999999999999'"),
              std::string::npos)
        << e.what();
  }
}

// Integers follow strtoll: an optional sign, then decimal digits.
TEST(Serialize, IntegersAcceptASignedDecimal) {
  std::string text = make_scale_sdfg()->save();
  size_t at = text.find("(c 0)");
  ASSERT_NE(at, std::string::npos);
  for (const char* ok : {"+0", "-0", "+7", "-7", "007"}) {
    std::string t = text, want = text;
    t.replace(at, 5, std::string("(c ") + ok + ")");
    want.replace(at, 5, "(c " + std::to_string(std::stoll(ok)) + ")");
    EXPECT_EQ(load_sdfg(t)->save(), want) << ok;
  }
  for (const char* bad : {"+", "-", "+-7", "-+7", "++7", "7x", "0x7", "7.0"}) {
    std::string t = text;
    t.replace(at, 5, std::string("(c ") + bad + ")");
    expect_load_error(t, "E404");
  }
  std::string plus = text;
  size_t start = plus.find("(start 0)");
  ASSERT_NE(start, std::string::npos);
  plus.replace(start, 9, "(start +0)");
  EXPECT_EQ(load_sdfg(plus)->save(), text);
}

// Quoted strings unescape \" and \\ (and drop the backslash before any
// other byte); save() escapes them back.
TEST(Serialize, EscapedStringsRoundTrip) {
  auto g = make_scale_sdfg();
  g->state(0).set_label("say \"hi\" \\ bye");
  std::string text = g->save();
  EXPECT_NE(text.find("\"say \\\"hi\\\" \\\\ bye\""), std::string::npos)
      << text;
  auto reloaded = load_sdfg(text);
  EXPECT_EQ(reloaded->state(0).label(), "say \"hi\" \\ bye");
  EXPECT_EQ(reloaded->save(), text);
  EXPECT_EQ(reloaded->dump(), g->dump());

  // A backslash before any other byte is dropped.
  std::string t = text;
  ASSERT_EQ(t.find("(sdfg \"scale\""), 0u);
  t.replace(0, 13, "(sdfg \"sc\\ale\\\\\"");
  EXPECT_EQ(load_sdfg(t)->name(), "scale\\");
  // An escaped quote does not close the string.
  expect_load_error("(sdfg \"scale\\\"", "E401");
}

// Every tasklet op survives save -> load, and an unknown op name is E403.
TEST(Serialize, EveryCodeOpRoundTrips) {
  CodeExpr x = CodeExpr::input("x");
  CodeExpr e = CodeExpr::binary(CodeOp::Add, x, CodeExpr::symbol("N"));
  e = CodeExpr::binary(CodeOp::Mul, e, CodeExpr::constant(2.5));
  for (CodeOp op : {CodeOp::Sub, CodeOp::Div, CodeOp::Pow, CodeOp::Mod,
                    CodeOp::Min, CodeOp::Max, CodeOp::Lt, CodeOp::Le,
                    CodeOp::Gt, CodeOp::Ge, CodeOp::Eq, CodeOp::Ne,
                    CodeOp::And, CodeOp::Or})
    e = CodeExpr::binary(op, e, x);
  for (CodeOp op : {CodeOp::Neg, CodeOp::Abs, CodeOp::Exp, CodeOp::Log,
                    CodeOp::Sqrt, CodeOp::Sin, CodeOp::Cos, CodeOp::Tanh,
                    CodeOp::Floor, CodeOp::Not})
    e = CodeExpr::unary(op, e);
  e = CodeExpr::select(e, x, CodeExpr::constant(-0.5));

  auto g = make_scale_sdfg();
  g->state(0).node_as<Tasklet>(4)->code = e;
  std::string text = g->save();
  auto reloaded = load_sdfg(text);
  EXPECT_EQ(reloaded->save(), text);
  EXPECT_EQ(reloaded->dump(), g->dump());
  std::set<CodeOp> seen;
  std::function<void(const CodeExpr&)> walk = [&](const CodeExpr& c) {
    seen.insert(c.op());
    for (const auto& a : c.args()) walk(a);
  };
  walk(reloaded->state(0).node_as<Tasklet>(4)->code);
  EXPECT_EQ(seen.size(), 30u);

  size_t at = text.find("(tanh ");
  ASSERT_NE(at, std::string::npos);
  expect_load_error(text.replace(at, 6, "(tanhh "), "E403");
}

TEST(Serialize, RunawayNestingIsE404) {
  std::string bomb;
  for (int i = 0; i < 300; ++i) bomb += "(neg ";
  expect_load_error("(sdfg \"x\" (state 0 \"s\" (node 0 (tasklet \"t\" "
                    "\"__out\" (ins) " + bomb,
                    "E404");
}

TEST(Serialize, DuplicateArrayNameIsE405) {
  std::string bad = make_scale_sdfg()->save();
  size_t at = bad.find("(arg \"a\")");
  ASSERT_NE(at, std::string::npos);
  bad.insert(at, "(array \"a\" float64 0 Default Scope 0 0 "
                 "(shape (s \"N\")))\n  ");
  expect_load_error(bad, "E405");
}

TEST(Serialize, DanglingEdgeEndpointIsE406) {
  std::string bad = make_scale_sdfg()->save();
  size_t at = bad.find("(edge 2 ");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 8, "(edge 9 ");
  expect_load_error(bad, "E406");
}

TEST(Serialize, DuplicateNodeIdIsE407) {
  std::string bad = make_scale_sdfg()->save();
  size_t at = bad.find("(node 2 ");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 8, "(node 1 ");
  expect_load_error(bad, "E407");
}

TEST(Serialize, TrailingInputIsE408) {
  expect_load_error(make_scale_sdfg()->save() + "\n(sdfg \"again\")",
                    "E408");
}

TEST(Serialize, NonexistentStartStateIsE409) {
  std::string bad = make_scale_sdfg()->save();
  size_t at = bad.find("(start 0)");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 9, "(start 7)");
  expect_load_error(bad, "E409");
}

// Hand-written input need not be canonical: the loader canonicalizes
// every sum and product it reads.
TEST(Serialize, LoaderCanonicalizesExpressions) {
  std::string text = make_scale_sdfg()->save();
  size_t at = text.find("(shape (s \"N\"))");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 15, "(shape (add (s \"N\") (c 1) (s \"N\")))");
  at = text.find("(shape (s \"N\"))");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 15, "(shape (mul (s \"N\") (add) (c 3)))");
  auto g = load_sdfg(text);
  EXPECT_EQ(g->array("a").shape[0].to_string(), "2*N + 1");
  EXPECT_EQ(g->array("out").shape[0].to_string(), "0");
  text = make_scale_sdfg()->save();
  at = text.find("(shape (s \"N\"))");
  text.replace(at, 15, "(shape (mul (c 2) (mul) (s \"N\") (s \"N\")))");
  EXPECT_EQ(load_sdfg(text)->array("a").shape[0].to_string(), "2*N*N");
}

// The commit gate checks a graph by comparing the dump of
// load_sdfg(save()) with its own.  On the suite and the fuzz corpus the
// round trip must reproduce both texts exactly.
TEST(Serialize, CorpusRoundTripIsByteStable) {
  auto check = [](const SDFG& g, const std::string& what) {
    std::string text = g.save();
    auto reloaded = load_sdfg(text);
    EXPECT_EQ(reloaded->save(), text) << what;
    EXPECT_EQ(reloaded->dump(), g.dump()) << what;
  };
  for (const auto& k : kernels::suite()) {
    auto g = fe::compile_to_sdfg(k.source);
    check(*g, k.name + " lowered");
    for (auto dev : {DeviceType::CPU, DeviceType::GPU, DeviceType::FPGA}) {
      auto h = g->clone();
      xf::auto_optimize(*h, dev);
      check(*h, k.name + " " + device_name(dev));
    }
  }
  for (uint64_t seed = 0; seed < 200; ++seed) {
    auto g = fe::compile_to_sdfg(fuzz::generate_program(seed));
    check(*g, "seed " + std::to_string(seed) + " lowered");
    xf::auto_optimize(*g, DeviceType::CPU);
    check(*g, "seed " + std::to_string(seed) + " CPU");
  }
}

TEST(Serialize, GoodGraphStillRoundTrips) {
  auto g = make_scale_sdfg();
  auto reloaded = load_sdfg(g->save());
  EXPECT_EQ(reloaded->dump(), g->dump());
  diag::DiagSink sink;
  auto via_sink = load_sdfg(g->save(), sink);
  ASSERT_NE(via_sink, nullptr);
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(via_sink->dump(), g->dump());
}

}  // namespace
}  // namespace dace::ir
