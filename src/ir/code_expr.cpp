#include "ir/code_expr.hpp"

#include <cstdio>

namespace dace::ir {

using detail::CodeNode;

namespace {
std::shared_ptr<const CodeNode> make_node(CodeOp op, double v,
                                          std::string name,
                                          std::vector<CodeExpr> args) {
  auto n = std::make_shared<CodeNode>();
  n->op = op;
  n->value = v;
  n->name = std::move(name);
  n->args = std::move(args);
  return n;
}
}  // namespace

CodeExpr::CodeExpr(double v)
    : node_(make_node(CodeOp::Const, v, {}, {})) {}

CodeExpr CodeExpr::input(const std::string& name) {
  return CodeExpr(make_node(CodeOp::Input, 0, name, {}));
}

CodeExpr CodeExpr::symbol(const std::string& name) {
  return CodeExpr(make_node(CodeOp::Sym, 0, name, {}));
}

CodeExpr CodeExpr::unary(CodeOp op, CodeExpr a) {
  return CodeExpr(make_node(op, 0, {}, {std::move(a)}));
}

CodeExpr CodeExpr::binary(CodeOp op, CodeExpr a, CodeExpr b) {
  return CodeExpr(make_node(op, 0, {}, {std::move(a), std::move(b)}));
}

CodeExpr CodeExpr::select(CodeExpr cond, CodeExpr t, CodeExpr f) {
  return CodeExpr(make_node(CodeOp::Select, 0, {},
                            {std::move(cond), std::move(t), std::move(f)}));
}

void CodeExpr::free_inputs(std::set<std::string>& out) const {
  if (!node_) return;
  if (node_->op == CodeOp::Input) out.insert(node_->name);
  for (const auto& a : node_->args) a.free_inputs(out);
}

std::set<std::string> CodeExpr::free_inputs() const {
  std::set<std::string> out;
  free_inputs(out);
  return out;
}

void CodeExpr::free_symbols(std::set<std::string>& out) const {
  if (!node_) return;
  if (node_->op == CodeOp::Sym) out.insert(node_->name);
  for (const auto& a : node_->args) a.free_symbols(out);
}

CodeExpr CodeExpr::subs_inputs(const std::map<std::string, CodeExpr>& m) const {
  if (!node_) return *this;
  if (node_->op == CodeOp::Input) {
    auto it = m.find(node_->name);
    if (it != m.end()) return it->second;
    return *this;
  }
  if (node_->args.empty()) return *this;
  std::vector<CodeExpr> args;
  args.reserve(node_->args.size());
  for (const auto& a : node_->args) args.push_back(a.subs_inputs(m));
  return CodeExpr(make_node(node_->op, node_->value, node_->name,
                            std::move(args)));
}

CodeExpr CodeExpr::subs_symbols(
    const std::map<std::string, CodeExpr>& m) const {
  if (!node_) return *this;
  if (node_->op == CodeOp::Sym) {
    auto it = m.find(node_->name);
    if (it != m.end()) return it->second;
    return *this;
  }
  if (node_->args.empty()) return *this;
  std::vector<CodeExpr> args;
  args.reserve(node_->args.size());
  for (const auto& a : node_->args) args.push_back(a.subs_symbols(m));
  return CodeExpr(make_node(node_->op, node_->value, node_->name,
                            std::move(args)));
}

double CodeExpr::eval(const std::map<std::string, double>& inputs,
                      const sym::SymbolMap& syms) const {
  DACE_CHECK(node_ != nullptr, "code: evaluating empty expression");
  auto arg = [&](size_t i) { return node_->args[i].eval(inputs, syms); };
  switch (node_->op) {
    case CodeOp::Const: return node_->value;
    case CodeOp::Input: {
      auto it = inputs.find(node_->name);
      DACE_CHECK(it != inputs.end(), "code: unbound input ", node_->name);
      return it->second;
    }
    case CodeOp::Sym: {
      auto it = syms.find(node_->name);
      DACE_CHECK(it != syms.end(), "code: unbound symbol ", node_->name);
      return static_cast<double>(it->second);
    }
    case CodeOp::Add: return arg(0) + arg(1);
    case CodeOp::Sub: return arg(0) - arg(1);
    case CodeOp::Mul: return arg(0) * arg(1);
    case CodeOp::Div: return arg(0) / arg(1);
    case CodeOp::Pow: return std::pow(arg(0), arg(1));
    case CodeOp::Mod: {
      double a = arg(0), b = arg(1);
      double r = std::fmod(a, b);
      if (r != 0 && ((r < 0) != (b < 0))) r += b;
      return r;
    }
    case CodeOp::Min: return std::min(arg(0), arg(1));
    case CodeOp::Max: return std::max(arg(0), arg(1));
    case CodeOp::Neg: return -arg(0);
    case CodeOp::Abs: return std::abs(arg(0));
    case CodeOp::Exp: return std::exp(arg(0));
    case CodeOp::Log: return std::log(arg(0));
    case CodeOp::Sqrt: return std::sqrt(arg(0));
    case CodeOp::Sin: return std::sin(arg(0));
    case CodeOp::Cos: return std::cos(arg(0));
    case CodeOp::Tanh: return std::tanh(arg(0));
    case CodeOp::Floor: return std::floor(arg(0));
    case CodeOp::Lt: return arg(0) < arg(1) ? 1.0 : 0.0;
    case CodeOp::Le: return arg(0) <= arg(1) ? 1.0 : 0.0;
    case CodeOp::Gt: return arg(0) > arg(1) ? 1.0 : 0.0;
    case CodeOp::Ge: return arg(0) >= arg(1) ? 1.0 : 0.0;
    case CodeOp::Eq: return arg(0) == arg(1) ? 1.0 : 0.0;
    case CodeOp::Ne: return arg(0) != arg(1) ? 1.0 : 0.0;
    case CodeOp::And: return (arg(0) != 0 && arg(1) != 0) ? 1.0 : 0.0;
    case CodeOp::Or: return (arg(0) != 0 || arg(1) != 0) ? 1.0 : 0.0;
    case CodeOp::Not: return arg(0) == 0 ? 1.0 : 0.0;
    case CodeOp::Select: return arg(0) != 0 ? arg(1) : arg(2);
  }
  throw err("code: unreachable op");
}

int CodeExpr::op_count() const {
  if (!node_) return 0;
  int n = 1;
  for (const auto& a : node_->args) n += a.op_count();
  return n;
}

namespace {
const char* binop_token(CodeOp op) {
  switch (op) {
    case CodeOp::Add: return "+";
    case CodeOp::Sub: return "-";
    case CodeOp::Mul: return "*";
    case CodeOp::Div: return "/";
    case CodeOp::Lt: return "<";
    case CodeOp::Le: return "<=";
    case CodeOp::Gt: return ">";
    case CodeOp::Ge: return ">=";
    case CodeOp::Eq: return "==";
    case CodeOp::Ne: return "!=";
    case CodeOp::And: return "and";
    case CodeOp::Or: return "or";
    default: return nullptr;
  }
}

const char* func_token(CodeOp op) {
  switch (op) {
    case CodeOp::Pow: return "pow";
    case CodeOp::Mod: return "mod";
    case CodeOp::Min: return "min";
    case CodeOp::Max: return "max";
    case CodeOp::Abs: return "abs";
    case CodeOp::Exp: return "exp";
    case CodeOp::Log: return "log";
    case CodeOp::Sqrt: return "sqrt";
    case CodeOp::Sin: return "sin";
    case CodeOp::Cos: return "cos";
    case CodeOp::Tanh: return "tanh";
    case CodeOp::Floor: return "floor";
    case CodeOp::Not: return "not";
    case CodeOp::Select: return "select";
    default: return nullptr;
  }
}

// A constant prints as `ostream << double` does: %g at precision 6.
void print(const CodeExpr& e, std::string& out) {
  switch (e.op()) {
    case CodeOp::Const: {
      char buf[32];
      out.append(buf, std::snprintf(buf, sizeof buf, "%g", e.value()));
      return;
    }
    case CodeOp::Input: out += e.name(); return;
    case CodeOp::Sym: out += e.name(); return;
    case CodeOp::Neg:
      out += "(-";
      print(e.args()[0], out);
      out += ')';
      return;
    default: break;
  }
  if (const char* tok = binop_token(e.op())) {
    out += '(';
    print(e.args()[0], out);
    out += ' ';
    out += tok;
    out += ' ';
    print(e.args()[1], out);
    out += ')';
    return;
  }
  if (const char* fn = func_token(e.op())) {
    out += fn;
    out += '(';
    for (size_t i = 0; i < e.args().size(); ++i) {
      if (i) out += ", ";
      print(e.args()[i], out);
    }
    out += ')';
    return;
  }
  out += '?';
}
}  // namespace

std::string CodeExpr::to_string() const {
  if (!node_) return "<none>";
  std::string out;
  print(*this, out);
  return out;
}

namespace {
CodeExpr sym_to_code(const sym::Expr& e) {
  using sym::ExprKind;
  switch (e.kind()) {
    case ExprKind::Const:
      return CodeExpr::constant(static_cast<double>(e.constant()));
    case ExprKind::Symbol:
      return CodeExpr::symbol(e.symbol_name());
    case ExprKind::Add: {
      auto ops = e.operands();
      CodeExpr acc = sym_to_code(ops[0]);
      for (size_t i = 1; i < ops.size(); ++i)
        acc = CodeExpr::binary(CodeOp::Add, acc, sym_to_code(ops[i]));
      return acc;
    }
    case ExprKind::Mul: {
      auto ops = e.operands();
      CodeExpr acc = sym_to_code(ops[0]);
      for (size_t i = 1; i < ops.size(); ++i)
        acc = CodeExpr::binary(CodeOp::Mul, acc, sym_to_code(ops[i]));
      return acc;
    }
    case ExprKind::FloorDiv: {
      auto ops = e.operands();
      return CodeExpr::unary(
          CodeOp::Floor,
          CodeExpr::binary(CodeOp::Div, sym_to_code(ops[0]),
                           sym_to_code(ops[1])));
    }
    case ExprKind::Mod: {
      auto ops = e.operands();
      return CodeExpr::binary(CodeOp::Mod, sym_to_code(ops[0]),
                              sym_to_code(ops[1]));
    }
    case ExprKind::Min: {
      auto ops = e.operands();
      return CodeExpr::binary(CodeOp::Min, sym_to_code(ops[0]),
                              sym_to_code(ops[1]));
    }
    case ExprKind::Max: {
      auto ops = e.operands();
      return CodeExpr::binary(CodeOp::Max, sym_to_code(ops[0]),
                              sym_to_code(ops[1]));
    }
  }
  throw err("to_code: unsupported symbolic form: ", e.to_string());
}
}  // namespace

CodeExpr to_code(const sym::Expr& e) { return sym_to_code(e); }

std::optional<sym::Expr> code_to_sym(const CodeExpr& e) {
  using sym::Expr;
  if (!e.valid()) return std::nullopt;
  switch (e.op()) {
    case CodeOp::Const: {
      double v = e.value();
      if (v != (double)(int64_t)v) return std::nullopt;
      return Expr((int64_t)v);
    }
    case CodeOp::Sym:
      return Expr::symbol(e.name());
    case CodeOp::Add:
    case CodeOp::Sub:
    case CodeOp::Mul:
    case CodeOp::Div:
    case CodeOp::Mod:
    case CodeOp::Min:
    case CodeOp::Max: {
      auto a = code_to_sym(e.args()[0]);
      auto b = code_to_sym(e.args()[1]);
      if (!a || !b) return std::nullopt;
      switch (e.op()) {
        case CodeOp::Add: return *a + *b;
        case CodeOp::Sub: return *a - *b;
        case CodeOp::Mul: return *a * *b;
        // Integer context: symbol-valued division on interstate edges is
        // floor division (mirrors to_code emitting Floor(Div(a, b))).
        case CodeOp::Div: return sym::floordiv(*a, *b);
        case CodeOp::Mod: return sym::mod(*a, *b);
        case CodeOp::Min: return sym::min(*a, *b);
        default: return sym::max(*a, *b);
      }
    }
    case CodeOp::Neg: {
      auto a = code_to_sym(e.args()[0]);
      if (!a) return std::nullopt;
      return -*a;
    }
    case CodeOp::Floor: {
      // Integer expressions are already floored; Floor(Div(a, b)) is the
      // round-trip image of sym::floordiv.
      return code_to_sym(e.args()[0]);
    }
    default:
      return std::nullopt;
  }
}

}  // namespace dace::ir
