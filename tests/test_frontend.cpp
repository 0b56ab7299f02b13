#include <gtest/gtest.h>

#include "frontend/lexer.hpp"
#include "frontend/lowering.hpp"
#include "frontend/parser.hpp"
#include "runtime/eager_interpreter.hpp"
#include "runtime/executor.hpp"

namespace dace::fe {
namespace {

TEST(Lexer, BasicTokens) {
  auto toks = tokenize("x = a + 3.5\n");
  ASSERT_GE(toks.size(), 6u);
  EXPECT_EQ(toks[0].kind, Tok::Name);
  EXPECT_EQ(toks[0].text, "x");
  EXPECT_EQ(toks[1].text, "=");
  EXPECT_EQ(toks[4].kind, Tok::Number);
  EXPECT_DOUBLE_EQ(toks[4].num, 3.5);
}

TEST(Lexer, IndentationBlocks) {
  auto toks = tokenize("a\n  b\n  c\nd\n");
  int indents = 0, dedents = 0;
  for (const auto& t : toks) {
    indents += (t.kind == Tok::Indent);
    dedents += (t.kind == Tok::Dedent);
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(Lexer, BracketsSuppressNewlines) {
  auto toks = tokenize("f(a,\n  b)\n");
  int newlines = 0;
  for (const auto& t : toks) newlines += (t.kind == Tok::Newline);
  EXPECT_EQ(newlines, 1);
}

TEST(Lexer, CommentsSkipped) {
  auto toks = tokenize("# header\nx = 1  # trailing\n");
  EXPECT_EQ(toks[0].text, "x");
}

TEST(Parser, FunctionWithAnnotations) {
  Module m = parse(R"(
@dace.program
def axpy(alpha: dace.float64, x: dace.float64[N], y: dace.float64[N]):
    y[:] = alpha * x + y
)");
  ASSERT_EQ(m.functions.size(), 1u);
  const Function& f = m.functions[0];
  EXPECT_EQ(f.name, "axpy");
  ASSERT_EQ(f.params.size(), 3u);
  EXPECT_TRUE(f.params[0].shape.empty());
  ASSERT_EQ(f.params[1].shape.size(), 1u);
  EXPECT_EQ(f.params[1].shape[0].to_string(), "N");
  ASSERT_EQ(f.body.size(), 1u);
  EXPECT_EQ(f.body[0]->kind, StKind::Assign);
}

TEST(Parser, DecoratorKeywords) {
  Module m = parse(R"(
@dace.program(auto_optimize=True, device=DeviceType.GPU)
def f(x: dace.float64[N]):
    x[:] = x + 1.0
)");
  EXPECT_TRUE(m.functions[0].auto_optimize);
  ASSERT_TRUE(m.functions[0].device.has_value());
  EXPECT_EQ(*m.functions[0].device, ir::DeviceType::GPU);
}

TEST(Parser, OperatorPrecedence) {
  ExprPtr e = parse_expression("a + b * c");
  ASSERT_EQ(e->kind, ExKind::BinOp);
  EXPECT_EQ(e->name, "+");
  EXPECT_EQ(e->args[1]->name, "*");
  ExprPtr m = parse_expression("alpha * A @ B");
  // '*' and '@' share precedence, left-assoc: (alpha * A) @ B.
  EXPECT_EQ(m->name, "@");
  EXPECT_EQ(m->args[0]->name, "*");
}

TEST(Parser, PowerIsRightAssociative) {
  ExprPtr e = parse_expression("a ** b ** c");
  EXPECT_EQ(e->name, "**");
  EXPECT_EQ(e->args[1]->name, "**");
}

TEST(Parser, Slices) {
  ExprPtr e = parse_expression("A[1:-1, i, :]");
  ASSERT_EQ(e->kind, ExKind::Subscript);
  ASSERT_EQ(e->slices.size(), 3u);
  EXPECT_FALSE(e->slices[0].is_index);
  EXPECT_TRUE(e->slices[1].is_index);
  EXPECT_FALSE(e->slices[2].is_index);
  EXPECT_EQ(e->slices[2].begin, nullptr);
  EXPECT_EQ(e->slices[2].end, nullptr);
}

TEST(Parser, DottedNamesAndCalls) {
  ExprPtr e = parse_expression("np.sum(A, axis=0)");
  ASSERT_EQ(e->kind, ExKind::Call);
  EXPECT_EQ(e->base->name, "np.sum");
  ASSERT_EQ(e->kwargs.size(), 1u);
  EXPECT_EQ(e->kwargs[0].first, "axis");
}

TEST(Parser, ForLoopAndIf) {
  Module m = parse(R"(
@dace.program
def f(A: dace.float64[N], TSTEPS: dace.int32):
    for t in range(1, TSTEPS):
        A[:] = A + 1.0
    if N > 4:
        A[:] = A * 2.0
    else:
        A[:] = A * 3.0
)");
  const auto& body = m.functions[0].body;
  ASSERT_EQ(body.size(), 2u);
  EXPECT_EQ(body[0]->kind, StKind::For);
  EXPECT_EQ(body[1]->kind, StKind::If);
  EXPECT_EQ(body[1]->orelse.size(), 1u);
}

TEST(Parser, DaceMapLoop) {
  Module m = parse(R"(
@dace.program
def f(A: dace.float64[M, N], B: dace.float64[N, M]):
    for i, j in dace.map[0:M, 0:N]:
        A[i, j] = B[j, i]
)");
  const auto& st = m.functions[0].body[0];
  EXPECT_EQ(st->kind, StKind::For);
  EXPECT_EQ(st->loop_vars, (std::vector<std::string>{"i", "j"}));
  EXPECT_EQ(st->iter->kind, ExKind::Subscript);
}

TEST(Parser, RejectsReturn) {
  EXPECT_THROW(parse(R"(
@dace.program
def f(A: dace.float64[N]):
    return A
)"),
               Error);
}

TEST(Parser, ReportsLineNumbers) {
  try {
    parse("@dace.program\ndef f(A: dace.badtype):\n    pass\n");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dace.badtype"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

TEST(Lowering, GemmProducesLibraryAndMaps) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def gemm(alpha: dace.float64, beta: dace.float64, C: dace.float64[NI, NJ],
         A: dace.float64[NI, NK], B: dace.float64[NK, NJ]):
    C[:] = alpha * A @ B + beta * C
)");
  EXPECT_NO_THROW(sdfg->validate());
  // Direct translation: one state per operation (alpha*A, @, beta*C, +,
  // assignment) plus init.
  EXPECT_GE(sdfg->num_states(), 5);
  int libs = 0, maps = 0;
  for (int sid : sdfg->state_ids()) {
    for (int nid : sdfg->state(sid).node_ids()) {
      libs += sdfg->state(sid).node(nid)->kind == ir::NodeKind::Library;
      maps += sdfg->state(sid).node(nid)->kind == ir::NodeKind::MapEntry;
    }
  }
  EXPECT_EQ(libs, 1);
  EXPECT_GE(maps, 4);
  // Integer scalar argument is absent; float scalars are containers.
  EXPECT_TRUE(sdfg->has_array("alpha"));
  EXPECT_TRUE(sdfg->free_symbols().count("NI"));
}

TEST(Lowering, RangeLoopBecomesGuardedStates) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], TSTEPS: dace.int32):
    for t in range(1, TSTEPS):
        A[:] = A + 1.0
)");
  EXPECT_NO_THROW(sdfg->validate());
  EXPECT_TRUE(sdfg->symbols().count("t"));
  // At least one conditional interstate edge exists (the guard).
  int conditional = 0;
  for (const auto& e : sdfg->interstate_edges())
    conditional += e.condition.valid();
  EXPECT_GE(conditional, 2);  // enter and exit conditions
  // TSTEPS is a symbol, not a container.
  EXPECT_FALSE(sdfg->has_array("TSTEPS"));
  EXPECT_TRUE(sdfg->free_symbols().count("TSTEPS"));
}

TEST(Lowering, WcrDetectionInMapBody) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(alpha: dace.float64, C: dace.float64[NI, NJ]):
    for i, j in dace.map[0:NI, 0:NJ]:
        alpha += C[i, j]
)");
  EXPECT_NO_THROW(sdfg->validate());
  bool found_wcr = false;
  for (int sid : sdfg->state_ids()) {
    for (const auto& e : sdfg->state(sid).edges())
      found_wcr |= e.memlet.wcr == ir::WCR::Sum;
  }
  EXPECT_TRUE(found_wcr);
}

TEST(Lowering, NoWcrWhenIndicesCoverParams) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[M, N]):
    for i, j in dace.map[0:M, 0:N]:
        A[i, j] += 1.0
)");
  EXPECT_NO_THROW(sdfg->validate());
  for (int sid : sdfg->state_ids()) {
    for (const auto& e : sdfg->state(sid).edges())
      EXPECT_EQ(e.memlet.wcr, ir::WCR::None);
  }
}

TEST(Lowering, NegativeSliceBoundsUseSymbolicSizes) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N], B: dace.float64[N]):
    B[1:-1] = A[1:-1] * 2.0
)");
  EXPECT_NO_THROW(sdfg->validate());
  // Find a memlet with end N-1.
  bool found = false;
  for (int sid : sdfg->state_ids()) {
    for (const auto& e : sdfg->state(sid).edges()) {
      if (e.memlet.empty() || e.memlet.subset.dims() != 1) continue;
      if (e.memlet.subset.range(0).end.to_string() == "N - 1") found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lowering, AllocationCallsCreateTransients) {
  auto sdfg = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N, M]):
    tmp = np.zeros((N, M), dtype=A.dtype)
    A[:] = tmp
)");
  EXPECT_NO_THROW(sdfg->validate());
  ASSERT_TRUE(sdfg->has_array("tmp"));
  EXPECT_TRUE(sdfg->array("tmp").transient);
  EXPECT_EQ(sdfg->array("tmp").dtype, ir::DType::f64);
}

TEST(Lowering, UnknownNameFailsWithLocation) {
  try {
    compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = bogus + 1.0
)");
    FAIL() << "expected lowering error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(Lowering, PythonRestrictionControlDependentVariables) {
  // Section 2.5 restriction (3): control-dependent variable state.
  EXPECT_THROW(compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    if N > 5:
        y = np.zeros((5,), dtype=np.float64)
    A[0:5] = y
)"),
               Error);
}

// ---------------------------------------------------------------------------
// Golden diagnostics: the recovering entry points must surface *every*
// finding in one run, with accurate codes and line:col, and never abort.

TEST(Diagnostics, MultipleErrorsReportedInOneRun) {
  diag::DiagSink sink;
  Module m = parse(R"(
@dace.program
def f(A: dace.badtype[N], B: dace.mystery[N]):
    A[:] = B[:]
)",
                   sink);
  // Both bad annotations are reported; parsing recovered past each.
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.diagnostics()[0].code, "E206");
  EXPECT_EQ(sink.diagnostics()[1].code, "E206");
  EXPECT_EQ(sink.diagnostics()[0].line, 3);
  EXPECT_EQ(sink.diagnostics()[1].line, 3);
  EXPECT_LT(sink.diagnostics()[0].col, sink.diagnostics()[1].col);
  // Recovery assumed float64 and kept the function.
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].params.size(), 2u);
}

TEST(Diagnostics, CaretPointsAtOffendingColumn) {
  diag::DiagSink sink;
  sink.set_source("test.py", "x = a $ b\n");
  tokenize("x = a $ b\n", sink);
  ASSERT_TRUE(sink.has_errors());
  const auto& d = sink.diagnostics()[0];
  EXPECT_EQ(d.code, "E101");
  EXPECT_EQ(d.line, 1);
  EXPECT_EQ(d.col, 7);  // the '$'
  // Rendered caret sits under column 7: 4-space gutter + 6 pad + '^'.
  EXPECT_NE(sink.render().find("\n          ^"), std::string::npos);
}

TEST(Diagnostics, InconsistentIndentRecovered) {
  diag::DiagSink sink;
  Module m = parse(R"(
@dace.program
def f(A: dace.float64[N]):
    if N > 2:
        A[0] = 1.0
      A[1] = 2.0
    A[2] = 3.0
)",
                   sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].code, "E102");
  EXPECT_EQ(sink.diagnostics()[0].line, 6);
  // The lexer recovered: the function survived with a parsed body.
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_FALSE(m.functions[0].body.empty());
}

TEST(Diagnostics, UnterminatedSliceHasCodeAndLocation) {
  diag::DiagSink sink;
  parse(R"(
@dace.program
def f(A: dace.float64[N]):
    A[0:
)",
        sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].code, "E210");
  // Points at the end of input, just past the open slice on line 4.
  EXPECT_GE(sink.diagnostics()[0].line, 4);
  EXPECT_NE(sink.diagnostics()[0].message.find("slice"), std::string::npos);
}

TEST(Diagnostics, ShapeMismatchThroughSinkNeverThrows) {
  diag::DiagSink sink;
  auto g = compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N, M], B: dace.float64[N]):
    A[:] = B[:]
)",
                           sink);
  EXPECT_EQ(g, nullptr);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].code, "E303");
  EXPECT_EQ(sink.diagnostics()[0].line, 4);
}

TEST(Diagnostics, JsonOutputIsStructured) {
  diag::DiagSink sink;
  sink.set_source("prog.py", "x ? y\n");
  tokenize("x ? y\n", sink);
  ASSERT_TRUE(sink.has_errors());
  std::string js = sink.to_json();
  EXPECT_NE(js.find("\"source\": \"prog.py\""), std::string::npos);
  EXPECT_NE(js.find("\"code\": \"E101\""), std::string::npos);
  EXPECT_NE(js.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(js.find("\"severity\": \"error\""), std::string::npos);
}

TEST(Diagnostics, ThrowingPathCarriesRenderedReport) {
  try {
    compile_to_sdfg(R"(
@dace.program
def f(A: dace.float64[N]):
    A[:] = missing_name * 2.0
)");
    FAIL() << "expected diagnostic error";
  } catch (const Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("[E301]"), std::string::npos);
    EXPECT_NE(msg.find("missing_name"), std::string::npos);
    EXPECT_NE(msg.find("4:"), std::string::npos);  // line 4
  }
}

// -- loop and slice steps ------------------------------------------------------

/// Code of the diagnostic lowering `src` stops at, or "<none>".
std::string lowering_error(const std::string& src) {
  diag::DiagSink sink;
  auto g = compile_to_sdfg(src, sink);
  if (g || sink.diagnostics().empty()) return "<none>";
  return sink.diagnostics()[0].code;
}

/// Runs `src` in the eager interpreter on A = B = zeros(8).
void run_eager(const std::string& src,
               const sym::SymbolMap& syms = {{"N", 8}}) {
  rt::Bindings b;
  b.emplace("A", rt::Tensor::from_values({8}, std::vector<double>(8, 0.0)));
  b.emplace("B", rt::Tensor::from_values({8}, std::vector<double>(8, 0.0)));
  Module mod = parse(src);
  rt::EagerInterpreter(mod.functions[0]).run(b, syms);
}

TEST(Steps, EmptyMapRunsNoIteration) {
  // dace.map[M:N] at M = N runs nothing in the eager oracle, as in the
  // executor; the oracle used to run the body once, at i = N.
  const std::string src = R"(
@dace.program
def tail(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[M:N]:
        B[i] = A[i] + 1.0
)";
  const sym::SymbolMap syms{{"N", 8}, {"M", 8}};
  EXPECT_NO_THROW(run_eager(src, syms));
  rt::Bindings b;
  b.emplace("A", rt::Tensor::from_values({8}, std::vector<double>(8, 0.0)));
  b.emplace("B", rt::Tensor::from_values({8}, std::vector<double>(8, 0.0)));
  rt::execute(*compile_to_sdfg(src), b, syms);
  for (int64_t k = 0; k < 8; ++k) EXPECT_EQ(b.at("B").get_flat(k), 0.0);
}

TEST(Steps, NegativeRangeStepIsRejected) {
  // The loop guard is `i < end`, so a downward range would run nothing.
  const std::string src = R"(
@dace.program
def rev(A: dace.float64[N], B: dace.float64[N]):
    for i in range(N - 1, -1, -1):
        B[i] = A[i]
)";
  EXPECT_EQ(lowering_error(src), "E309");
  EXPECT_THROW(run_eager(src), Error);
}

TEST(Steps, NegativeMapStepIsRejected) {
  const std::string src = R"(
@dace.program
def rev(A: dace.float64[N], B: dace.float64[N]):
    for i in dace.map[N-1:-1:-1]:
        B[i] = A[i]
)";
  EXPECT_EQ(lowering_error(src), "E307");
  EXPECT_THROW(run_eager(src), Error);
}

TEST(Steps, NegativeSliceStepIsRejected) {
  // Not a broadcast mismatch (E303): the step itself is invalid.
  const std::string src = R"(
@dace.program
def rev(A: dace.float64[N], B: dace.float64[N]):
    B[:] = A[::-1]
)";
  EXPECT_EQ(lowering_error(src), "E304");
  EXPECT_THROW(run_eager(src), Error);
}

}  // namespace
}  // namespace dace::fe
