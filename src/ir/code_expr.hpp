// Tasklet code expressions.
//
// Tasklets are stateless computations (Section 2.3); their code is a small
// scalar expression over named input connectors and SDFG symbols.  The same
// AST doubles as the condition language on interstate edges.  CodeExpr is
// immutable with value semantics, like sym::Expr.
#pragma once

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/common.hpp"
#include "symbolic/symbolic.hpp"

namespace dace::ir {

enum class CodeOp {
  Const,   // double literal
  Input,   // value read from an input connector
  Sym,     // SDFG symbol (integer, converted to double)
  Add, Sub, Mul, Div, Pow, Mod,
  Min, Max,
  Neg, Abs, Exp, Log, Sqrt, Sin, Cos, Tanh, Floor,
  Lt, Le, Gt, Ge, Eq, Ne,   // comparisons: 1.0 / 0.0
  And, Or, Not,
  Select,  // args: cond, iftrue, iffalse
};

class CodeExpr;

namespace detail {
struct CodeNode {
  CodeOp op = CodeOp::Const;
  double value = 0.0;
  std::string name;  // Input / Sym
  std::vector<CodeExpr> args;
};
}  // namespace detail

class CodeExpr {
 public:
  /// Default-constructed expressions are invalid (used for "no condition"
  /// on interstate edges); use constant() for a literal zero.
  CodeExpr() = default;
  explicit CodeExpr(double v);

  static CodeExpr constant(double v) { return CodeExpr(v); }
  static CodeExpr input(const std::string& name);
  static CodeExpr symbol(const std::string& name);
  static CodeExpr unary(CodeOp op, CodeExpr a);
  static CodeExpr binary(CodeOp op, CodeExpr a, CodeExpr b);
  static CodeExpr select(CodeExpr cond, CodeExpr t, CodeExpr f);

  CodeOp op() const { return node_->op; }
  double value() const { return node_->value; }
  const std::string& name() const { return node_->name; }
  const std::vector<CodeExpr>& args() const { return node_->args; }

  bool valid() const { return node_ != nullptr; }

  /// All input-connector names referenced.
  void free_inputs(std::set<std::string>& out) const;
  std::set<std::string> free_inputs() const;
  /// All symbol names referenced.
  void free_symbols(std::set<std::string>& out) const;

  /// Replace Input(name) references by other expressions (for tasklet
  /// chaining during fusion).
  CodeExpr subs_inputs(const std::map<std::string, CodeExpr>& m) const;
  /// Replace Sym(name) references by symbolic expressions converted to
  /// code form (used when inlining nested SDFGs).
  CodeExpr subs_symbols(const std::map<std::string, CodeExpr>& m) const;

  /// Interpret with the given input values and symbol bindings. Slow path;
  /// hot loops use the bytecode compiler in runtime/bytecode.hpp.
  double eval(const std::map<std::string, double>& inputs,
              const sym::SymbolMap& syms) const;

  /// Count of operation nodes (used by cost models).
  int op_count() const;

  std::string to_string() const;

 private:
  explicit CodeExpr(std::shared_ptr<const detail::CodeNode> n)
      : node_(std::move(n)) {}
  std::shared_ptr<const detail::CodeNode> node_;
};

/// Convert a symbolic integer expression to a CodeExpr over symbols.
CodeExpr to_code(const sym::Expr& e);

/// Inverse direction, when representable: integer ops over symbols and
/// constants (Div becomes floor division, matching to_code's image).
/// Used to recover loop bounds and interstate conditions symbolically.
std::optional<sym::Expr> code_to_sym(const CodeExpr& e);

// Operator sugar for building tasklet code.
inline CodeExpr operator+(const CodeExpr& a, const CodeExpr& b) {
  return CodeExpr::binary(CodeOp::Add, a, b);
}
inline CodeExpr operator-(const CodeExpr& a, const CodeExpr& b) {
  return CodeExpr::binary(CodeOp::Sub, a, b);
}
inline CodeExpr operator*(const CodeExpr& a, const CodeExpr& b) {
  return CodeExpr::binary(CodeOp::Mul, a, b);
}
inline CodeExpr operator/(const CodeExpr& a, const CodeExpr& b) {
  return CodeExpr::binary(CodeOp::Div, a, b);
}
inline CodeExpr operator-(const CodeExpr& a) {
  return CodeExpr::unary(CodeOp::Neg, a);
}

}  // namespace dace::ir
