// SDFG rendering and serialization: Graphviz for human inspection, a
// stable text dump for golden tests, and a reloadable S-expression
// format (save / load_sdfg) for offline tools such as sdfg-lint.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/diag.hpp"
#include "ir/sdfg.hpp"

namespace dace::ir {

namespace {

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

const char* node_shape(NodeKind k) {
  switch (k) {
    case NodeKind::Access: return "ellipse";
    case NodeKind::Tasklet: return "octagon";
    case NodeKind::MapEntry: return "trapezium";
    case NodeKind::MapExit: return "invtrapezium";
    case NodeKind::Library: return "folder";
    case NodeKind::NestedSDFG: return "box";
  }
  return "box";
}

}  // namespace

std::string SDFG::to_dot() const {
  std::ostringstream os;
  os << "digraph " << quote(name_) << " {\n";
  os << "  compound=true;\n";
  for (int sid : state_ids()) {
    const State& st = state(sid);
    os << "  subgraph cluster_s" << sid << " {\n";
    os << "    label=" << quote(st.label()) << ";\n";
    os << "    style=filled; color=lightblue;\n";
    for (int nid : st.node_ids()) {
      const Node* n = st.node(nid);
      os << "    s" << sid << "n" << nid << " [label="
         << quote(n->label()) << ", shape=" << node_shape(n->kind) << "];\n";
    }
    // A state needs at least one node for cluster edges to anchor.
    if (st.node_ids().empty()) {
      os << "    s" << sid << "anchor [label=\"\", shape=point];\n";
    }
    for (const auto& e : st.edges()) {
      os << "    s" << sid << "n" << e.src << " -> s" << sid << "n" << e.dst
         << " [label=" << quote(e.memlet.to_string());
      if (e.memlet.wcr != WCR::None) os << ", style=dashed";
      os << "];\n";
    }
    os << "  }\n";
  }
  for (const auto& e : istate_edges_) {
    auto anchor = [&](int sid) {
      const State& st = state(sid);
      auto ids = st.node_ids();
      std::ostringstream a;
      if (ids.empty()) {
        a << "s" << sid << "anchor";
      } else {
        a << "s" << sid << "n" << ids.front();
      }
      return a.str();
    };
    os << "  " << anchor(e.src) << " -> " << anchor(e.dst)
       << " [ltail=cluster_s" << e.src << ", lhead=cluster_s" << e.dst
       << ", color=blue, label=" << quote(e.to_string()) << "];\n";
  }
  os << "}\n";
  return os.str();
}

std::string SDFG::dump() const {
  std::ostringstream os;
  os << "sdfg " << name_ << "\n";
  for (const auto& [name, d] : arrays_) {
    os << "  " << (d.transient ? "transient " : "array ") << name << ": "
       << dtype_name(d.dtype) << "[";
    for (size_t i = 0; i < d.shape.size(); ++i) {
      if (i) os << ", ";
      os << d.shape[i].to_string();
    }
    os << "]";
    if (d.storage != Storage::Default) os << " @" << storage_name(d.storage);
    if (d.lifetime == Lifetime::Persistent) os << " persistent";
    if (d.is_stream) os << " stream(" << d.stream_depth << ")";
    os << "\n";
  }
  for (int sid : state_order()) {
    const State& st = state(sid);
    os << "  state " << sid << " '" << st.label() << "'"
       << (sid == start_state_ ? " (start)" : "") << "\n";
    for (int nid : st.node_ids()) {
      const Node* n = st.node(nid);
      os << "    n" << nid << ": ";
      switch (n->kind) {
        case NodeKind::Access: os << "access "; break;
        case NodeKind::Tasklet: os << "tasklet "; break;
        case NodeKind::MapEntry: os << "map_entry "; break;
        case NodeKind::MapExit: os << "map_exit "; break;
        case NodeKind::Library: os << "library "; break;
        case NodeKind::NestedSDFG: os << "nested "; break;
      }
      os << n->label();
      if (const auto* t = dynamic_cast<const Tasklet*>(n)) {
        os << " :: " << t->output << " = " << t->code.to_string();
      } else if (const auto* m = dynamic_cast<const MapEntry*>(n)) {
        os << " :: " << schedule_name(m->schedule);
      } else if (const auto* l = dynamic_cast<const LibraryNode*>(n)) {
        os << " :: impl=" << l->implementation;
      }
      os << "\n";
    }
    for (const auto& e : st.edges()) {
      os << "    n" << e.src;
      if (!e.src_conn.empty()) os << "." << e.src_conn;
      os << " -> n" << e.dst;
      if (!e.dst_conn.empty()) os << "." << e.dst_conn;
      os << " : " << e.memlet.to_string() << "\n";
    }
  }
  for (const auto& e : istate_edges_) {
    os << "  edge " << e.src << " -> " << e.dst;
    std::string s = e.to_string();
    if (!s.empty()) os << " [" << s << "]";
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Reloadable serialization (S-expression text)
// ---------------------------------------------------------------------------
//
// Grammar (whitespace-separated; strings are double-quoted with \-escapes):
//   sdfg    := (sdfg "name" (symbols "s"*) array* (arg "a")* (start N)
//               state* iedge*)
//   array   := (array "name" dtype transient storage lifetime stream depth
//               (shape expr*))
//   state   := (state ID "label" node* edge*)
//   node    := (node ID nodebody)
//   edge    := (edge SRC "conn" DST "conn" memlet)
//   memlet  := none | (m "data" wcr dynamic (subset range*))
//   iedge   := (iedge SRC DST cond (assign "sym" expr)*)
//   range   := (r expr expr expr)
//   expr    := (c N) | (s "name") | (add expr+) | (mul expr+)
//            | (fdiv e e) | (emod e e) | (emin e e) | (emax e e)
//   code    := none | (num F) | (in "name") | (sym "name") | (OP code*)

namespace {

std::string quote_atom(const std::string& s) { return quote(s); }

// -- symbolic expressions ---------------------------------------------------

void write_expr(std::ostringstream& os, const sym::Expr& e) {
  using sym::ExprKind;
  switch (e.kind()) {
    case ExprKind::Const:
      os << "(c " << e.constant() << ")";
      return;
    case ExprKind::Symbol:
      os << "(s " << quote_atom(e.symbol_name()) << ")";
      return;
    default:
      break;
  }
  const char* tag = "?";
  switch (e.kind()) {
    case ExprKind::Add: tag = "add"; break;
    case ExprKind::Mul: tag = "mul"; break;
    case ExprKind::FloorDiv: tag = "fdiv"; break;
    case ExprKind::Mod: tag = "emod"; break;
    case ExprKind::Min: tag = "emin"; break;
    case ExprKind::Max: tag = "emax"; break;
    default: break;
  }
  os << "(" << tag;
  for (const auto& a : e.operands()) {
    os << " ";
    write_expr(os, a);
  }
  os << ")";
}

void write_range(std::ostringstream& os, const sym::Range& r) {
  os << "(r ";
  write_expr(os, r.begin);
  os << " ";
  write_expr(os, r.end);
  os << " ";
  write_expr(os, r.step);
  os << ")";
}

void write_subset(std::ostringstream& os, const sym::Subset& s) {
  os << "(subset";
  for (const auto& r : s.ranges()) {
    os << " ";
    write_range(os, r);
  }
  os << ")";
}

// -- tasklet code -----------------------------------------------------------

const char* code_op_name(CodeOp op) {
  switch (op) {
    case CodeOp::Const: return "num";
    case CodeOp::Input: return "in";
    case CodeOp::Sym: return "sym";
    case CodeOp::Add: return "add";
    case CodeOp::Sub: return "sub";
    case CodeOp::Mul: return "mul";
    case CodeOp::Div: return "div";
    case CodeOp::Pow: return "pow";
    case CodeOp::Mod: return "mod";
    case CodeOp::Min: return "min";
    case CodeOp::Max: return "max";
    case CodeOp::Neg: return "neg";
    case CodeOp::Abs: return "abs";
    case CodeOp::Exp: return "exp";
    case CodeOp::Log: return "log";
    case CodeOp::Sqrt: return "sqrt";
    case CodeOp::Sin: return "sin";
    case CodeOp::Cos: return "cos";
    case CodeOp::Tanh: return "tanh";
    case CodeOp::Floor: return "floor";
    case CodeOp::Lt: return "lt";
    case CodeOp::Le: return "le";
    case CodeOp::Gt: return "gt";
    case CodeOp::Ge: return "ge";
    case CodeOp::Eq: return "eq";
    case CodeOp::Ne: return "ne";
    case CodeOp::And: return "and";
    case CodeOp::Or: return "or";
    case CodeOp::Not: return "not";
    case CodeOp::Select: return "select";
  }
  return "?";
}

void write_code(std::ostringstream& os, const CodeExpr& c) {
  if (!c.valid()) {
    os << "none";
    return;
  }
  switch (c.op()) {
    case CodeOp::Const: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", c.value());
      os << "(num " << buf << ")";
      return;
    }
    case CodeOp::Input:
      os << "(in " << quote_atom(c.name()) << ")";
      return;
    case CodeOp::Sym:
      os << "(sym " << quote_atom(c.name()) << ")";
      return;
    default:
      break;
  }
  os << "(" << code_op_name(c.op());
  for (const auto& a : c.args()) {
    os << " ";
    write_code(os, a);
  }
  os << ")";
}

// -- graph ------------------------------------------------------------------

void write_memlet(std::ostringstream& os, const Memlet& m) {
  if (m.empty()) {
    os << "none";
    return;
  }
  os << "(m " << quote_atom(m.data) << " " << wcr_name(m.wcr) << " "
     << (m.dynamic ? 1 : 0) << " ";
  write_subset(os, m.subset);
  os << ")";
}

void write_sdfg(std::ostringstream& os, const SDFG& g);

void write_node(std::ostringstream& os, const State& st, int id) {
  const Node* n = st.node(id);
  os << "    (node " << id << " ";
  switch (n->kind) {
    case NodeKind::Access:
      os << "(access " << quote_atom(static_cast<const AccessNode*>(n)->data)
         << ")";
      break;
    case NodeKind::Tasklet: {
      const auto* t = static_cast<const Tasklet*>(n);
      os << "(tasklet " << quote_atom(t->name) << " " << quote_atom(t->output)
         << " (ins";
      for (const auto& in : t->inputs) os << " " << quote_atom(in);
      os << ") ";
      write_code(os, t->code);
      os << ")";
      break;
    }
    case NodeKind::MapEntry: {
      const auto* m = static_cast<const MapEntry*>(n);
      os << "(map_entry " << quote_atom(m->name) << " " << m->exit_node << " "
         << schedule_name(m->schedule) << " " << (m->omp_collapse ? 1 : 0)
         << " (params";
      for (const auto& p : m->params) os << " " << quote_atom(p);
      os << ") (range";
      for (const auto& r : m->range.ranges()) {
        os << " ";
        write_range(os, r);
      }
      os << "))";
      break;
    }
    case NodeKind::MapExit:
      os << "(map_exit " << static_cast<const MapExit*>(n)->entry_node << ")";
      break;
    case NodeKind::Library: {
      const auto* l = static_cast<const LibraryNode*>(n);
      os << "(library " << quote_atom(l->op) << " "
         << quote_atom(l->implementation);
      for (const auto& [k, v] : l->attrs)
        os << " (attr " << quote_atom(k) << " " << quote_atom(v) << ")";
      for (const auto& [k, v] : l->sym_attrs) {
        os << " (sattr " << quote_atom(k) << " ";
        write_expr(os, v);
        os << ")";
      }
      os << ")";
      break;
    }
    case NodeKind::NestedSDFG: {
      const auto* nn = static_cast<const NestedSDFGNode*>(n);
      os << "(nested (ins";
      for (const auto& c : nn->in_connectors) os << " " << quote_atom(c);
      os << ") (outs";
      for (const auto& c : nn->out_connectors) os << " " << quote_atom(c);
      os << ")";
      for (const auto& [k, v] : nn->symbol_mapping) {
        os << " (map " << quote_atom(k) << " ";
        write_expr(os, v);
        os << ")";
      }
      os << " ";
      write_sdfg(os, *nn->sdfg);
      os << ")";
      break;
    }
  }
  os << ")\n";
}

void write_sdfg(std::ostringstream& os, const SDFG& g) {
  os << "(sdfg " << quote_atom(g.name()) << "\n";
  os << "  (symbols";
  for (const auto& s : g.symbols()) os << " " << quote_atom(s);
  os << ")\n";
  for (const auto& [name, d] : g.arrays()) {
    os << "  (array " << quote_atom(name) << " " << dtype_name(d.dtype) << " "
       << (d.transient ? 1 : 0) << " " << storage_name(d.storage) << " "
       << (d.lifetime == Lifetime::Persistent ? "Persistent" : "Scope") << " "
       << (d.is_stream ? 1 : 0) << " " << d.stream_depth << " (shape";
    for (const auto& s : d.shape) {
      os << " ";
      write_expr(os, s);
    }
    os << "))\n";
  }
  for (const auto& a : g.arg_names()) os << "  (arg " << quote_atom(a) << ")\n";
  os << "  (start " << g.start_state() << ")\n";
  for (int sid : g.state_ids()) {
    const State& st = g.state(sid);
    os << "  (state " << sid << " " << quote_atom(st.label()) << "\n";
    for (int nid : st.node_ids()) write_node(os, st, nid);
    for (const auto& e : st.edges()) {
      os << "    (edge " << e.src << " " << quote_atom(e.src_conn) << " "
         << e.dst << " " << quote_atom(e.dst_conn) << " ";
      write_memlet(os, e.memlet);
      os << ")\n";
    }
    os << "  )\n";
  }
  for (const auto& e : g.interstate_edges()) {
    os << "  (iedge " << e.src << " " << e.dst << " ";
    write_code(os, e.condition);
    for (const auto& [k, v] : e.assignments) {
      os << " (assign " << quote_atom(k) << " ";
      write_expr(os, v);
      os << ")";
    }
    os << ")\n";
  }
  os << ")\n";
}

// -- parser -----------------------------------------------------------------

// Malformed or truncated input yields a located diag::DiagError (code,
// line:col of the offending byte, expected-token message) instead of a
// crash or a silent mis-parse.
struct Parser {
  const std::string& text;
  size_t pos = 0;
  int depth = 0;  // guards against stack overflow on pathological nesting

  static constexpr int kMaxDepth = 200;

  explicit Parser(const std::string& t) : text(t) {}

  /// 1-based line/col of an offset into the text.
  std::pair<int, int> line_col(size_t at) const {
    int line = 1, col = 1;
    for (size_t i = 0; i < at && i < text.size(); ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return {line, col};
  }

  [[noreturn]] void fail(const char* code, const std::string& msg,
                         size_t at) const {
    auto [line, col] = line_col(at);
    diag::Diagnostic d;
    d.code = code;
    d.line = line;
    d.col = col;
    d.message = msg;
    std::ostringstream os;
    os << "load_sdfg: " << msg << " at " << line << ":" << col << " (offset "
       << at << ") [" << code << "]";
    throw diag::DiagError(std::move(d), os.str());
  }
  [[noreturn]] void fail(const char* code, const std::string& msg) const {
    fail(code, msg, pos);
  }

  std::string describe_here() const {
    if (pos >= text.size()) return "end of input";
    return std::string("'") + text[pos] + "'";
  }

  void skip_ws() {
    while (pos < text.size() && std::isspace((unsigned char)text[pos])) ++pos;
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("E401", "unexpected end of input");
    return text[pos];
  }
  bool at_end() {
    skip_ws();
    return pos >= text.size();
  }
  void expect(char c) {
    if (peek() != c)
      fail("E402", std::string("expected '") + c + "', got " + describe_here());
    ++pos;
  }
  /// Unquoted atom: identifiers, numbers, tags.
  std::string atom() {
    skip_ws();
    size_t start = pos;
    while (pos < text.size() && !std::isspace((unsigned char)text[pos]) &&
           text[pos] != '(' && text[pos] != ')' && text[pos] != '"') {
      ++pos;
    }
    if (pos == start) fail("E402", "expected atom, got " + describe_here());
    return text.substr(start, pos - start);
  }
  std::string string() {
    expect('"');
    size_t start = pos - 1;
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
      out.push_back(text[pos++]);
    }
    if (pos >= text.size()) fail("E401", "unterminated string", start);
    ++pos;
    return out;
  }
  int64_t integer() {
    skip_ws();
    size_t at = pos;
    std::string a = atom();
    char* end = nullptr;
    errno = 0;
    int64_t v = std::strtoll(a.c_str(), &end, 10);
    if (end != a.c_str() + a.size() || a.empty() || errno == ERANGE)
      fail("E404", "expected integer, got '" + a + "'", at);
    return v;
  }
  double real() {
    skip_ws();
    size_t at = pos;
    std::string a = atom();
    char* end = nullptr;
    double v = std::strtod(a.c_str(), &end);
    if (end != a.c_str() + a.size() || a.empty())
      fail("E404", "expected number, got '" + a + "'", at);
    return v;
  }
  /// Opens a list and returns its tag: "(tag ..."
  std::string open() {
    expect('(');
    if (++depth > kMaxDepth) fail("E404", "nesting too deep");
    return atom();
  }
  bool list_done() { return peek() == ')'; }
  void close() {
    expect(')');
    --depth;
  }
};

sym::Expr parse_expr(Parser& p) {
  p.skip_ws();
  size_t at = p.pos;
  std::string tag = p.open();
  sym::Expr out;
  if (tag == "c") {
    out = sym::Expr(p.integer());
  } else if (tag == "s") {
    out = sym::Expr::symbol(p.string());
  } else if (tag == "add" || tag == "mul") {
    std::vector<sym::Expr> args;
    while (!p.list_done()) args.push_back(parse_expr(p));
    out = tag == "mul" ? sym::product(args) : sym::sum(args);
  } else {
    if (tag != "fdiv" && tag != "emod" && tag != "emin" && tag != "emax")
      p.fail("E403", "unknown expression tag '" + tag + "'", at);
    sym::Expr a = parse_expr(p);
    sym::Expr b = parse_expr(p);
    if (tag == "fdiv") out = floordiv(a, b);
    else if (tag == "emod") out = mod(a, b);
    else if (tag == "emin") out = min(a, b);
    else out = max(a, b);
  }
  p.close();
  return out;
}

sym::Range parse_range(Parser& p) {
  p.skip_ws();
  size_t at = p.pos;
  std::string tag = p.open();
  if (tag != "r") p.fail("E402", "expected range (r ...), got '" + tag + "'", at);
  sym::Expr b = parse_expr(p);
  sym::Expr e = parse_expr(p);
  sym::Expr s = parse_expr(p);
  p.close();
  return sym::Range(b, e, s);
}

sym::Subset parse_subset(Parser& p) {
  p.skip_ws();
  size_t at = p.pos;
  std::string tag = p.open();
  if (tag != "subset")
    p.fail("E402", "expected subset (subset ...), got '" + tag + "'", at);
  std::vector<sym::Range> rs;
  while (!p.list_done()) rs.push_back(parse_range(p));
  p.close();
  return sym::Subset(std::move(rs));
}

CodeOp code_op_from(Parser& p, const std::string& name, size_t at) {
  static const std::map<std::string, CodeOp> table = {
      {"num", CodeOp::Const}, {"in", CodeOp::Input},  {"sym", CodeOp::Sym},
      {"add", CodeOp::Add},   {"sub", CodeOp::Sub},   {"mul", CodeOp::Mul},
      {"div", CodeOp::Div},   {"pow", CodeOp::Pow},   {"mod", CodeOp::Mod},
      {"min", CodeOp::Min},   {"max", CodeOp::Max},   {"neg", CodeOp::Neg},
      {"abs", CodeOp::Abs},   {"exp", CodeOp::Exp},   {"log", CodeOp::Log},
      {"sqrt", CodeOp::Sqrt}, {"sin", CodeOp::Sin},   {"cos", CodeOp::Cos},
      {"tanh", CodeOp::Tanh}, {"floor", CodeOp::Floor}, {"lt", CodeOp::Lt},
      {"le", CodeOp::Le},     {"gt", CodeOp::Gt},     {"ge", CodeOp::Ge},
      {"eq", CodeOp::Eq},     {"ne", CodeOp::Ne},     {"and", CodeOp::And},
      {"or", CodeOp::Or},     {"not", CodeOp::Not},   {"select", CodeOp::Select},
  };
  auto it = table.find(name);
  if (it == table.end()) p.fail("E403", "unknown code op '" + name + "'", at);
  return it->second;
}

CodeExpr parse_code(Parser& p) {
  p.skip_ws();
  size_t at = p.pos;
  if (p.peek() != '(') {
    std::string a = p.atom();
    if (a != "none")
      p.fail("E402", "expected code expression, got '" + a + "'", at);
    return CodeExpr();
  }
  std::string tag = p.open();
  CodeOp op = code_op_from(p, tag, at);
  CodeExpr out;
  switch (op) {
    case CodeOp::Const: out = CodeExpr::constant(p.real()); break;
    case CodeOp::Input: out = CodeExpr::input(p.string()); break;
    case CodeOp::Sym: out = CodeExpr::symbol(p.string()); break;
    default: {
      std::vector<CodeExpr> args;
      while (!p.list_done()) args.push_back(parse_code(p));
      if (args.size() == 1) {
        out = CodeExpr::unary(op, args[0]);
      } else if (args.size() == 2) {
        out = CodeExpr::binary(op, args[0], args[1]);
      } else if (args.size() == 3 && op == CodeOp::Select) {
        out = CodeExpr::select(args[0], args[1], args[2]);
      } else {
        p.fail("E404", "op '" + tag + "' with " + std::to_string(args.size()) +
                           " args",
               at);
      }
      p.close();
      return out;
    }
  }
  p.close();
  return out;
}

template <typename Enum>
Enum enum_from(Parser& p, const char* (*printer)(Enum),
               std::initializer_list<Enum> values, const char* what) {
  p.skip_ws();
  size_t at = p.pos;
  std::string name = p.atom();
  for (Enum v : values) {
    if (name == printer(v)) return v;
  }
  p.fail("E403", std::string("unknown ") + what + " '" + name + "'", at);
}

Memlet parse_memlet(Parser& p) {
  p.skip_ws();
  size_t at = p.pos;
  if (p.peek() != '(') {
    std::string a = p.atom();
    if (a != "none") p.fail("E402", "expected memlet, got '" + a + "'", at);
    return Memlet();
  }
  std::string tag = p.open();
  if (tag != "m") p.fail("E402", "expected memlet (m ...), got '" + tag + "'", at);
  Memlet m;
  m.data = p.string();
  m.wcr = enum_from<WCR>(p, wcr_name,
                         {WCR::None, WCR::Sum, WCR::Prod, WCR::Min, WCR::Max},
                         "wcr");
  m.dynamic = p.integer() != 0;
  m.subset = parse_subset(p);
  p.close();
  return m;
}

std::unique_ptr<SDFG> parse_sdfg(Parser& p);

/// Parses one (node ID body) form. `next_id` tracks the index the next
/// append will land on; holes left by removed nodes in the original graph
/// are padded with throwaway placeholders so ids are preserved.
void parse_node(Parser& p, State& st, int& next_id) {
  p.skip_ws();
  size_t id_at = p.pos;
  int id = static_cast<int>(p.integer());
  if (id < next_id)
    p.fail("E407", "node id " + std::to_string(id) +
                       " duplicates or reorders an earlier node (next is " +
                       std::to_string(next_id) + ")",
           id_at);
  while (next_id < id) {
    st.remove_node(st.add_access("__load_pad"));
    ++next_id;
  }
  p.skip_ws();
  size_t at = p.pos;
  std::string tag = p.open();
  if (tag == "access") {
    st.add_access(p.string());
  } else if (tag == "tasklet") {
    std::string name = p.string();
    std::string output = p.string();
    std::string ins_tag = p.open();
    if (ins_tag != "ins") p.fail("E402", "expected (ins ...) in tasklet");
    std::vector<std::string> inputs;
    while (!p.list_done()) inputs.push_back(p.string());
    p.close();
    CodeExpr code = parse_code(p);
    int tid = st.add_tasklet(name, std::move(inputs), std::move(code));
    st.node_as<Tasklet>(tid)->output = output;
  } else if (tag == "map_entry") {
    auto me = std::make_unique<MapEntry>(p.string(), std::vector<std::string>{},
                                         sym::Subset{});
    me->exit_node = static_cast<int>(p.integer());
    me->schedule = enum_from<Schedule>(
        p, schedule_name,
        {Schedule::Sequential, Schedule::CPUParallel, Schedule::GPUDevice,
         Schedule::FPGAPipeline},
        "schedule");
    me->omp_collapse = p.integer() != 0;
    std::string params_tag = p.open();
    if (params_tag != "params") p.fail("E402", "expected (params ...) in map_entry");
    while (!p.list_done()) me->params.push_back(p.string());
    p.close();
    std::string range_tag = p.open();
    if (range_tag != "range") p.fail("E402", "expected (range ...) in map_entry");
    std::vector<sym::Range> rs;
    while (!p.list_done()) rs.push_back(parse_range(p));
    p.close();
    me->range = sym::Subset(std::move(rs));
    st.add_node(std::move(me));
  } else if (tag == "map_exit") {
    auto mx = std::make_unique<MapExit>();
    mx->entry_node = static_cast<int>(p.integer());
    st.add_node(std::move(mx));
  } else if (tag == "library") {
    auto lib = std::make_unique<LibraryNode>(p.string());
    lib->implementation = p.string();
    while (!p.list_done()) {
      std::string sub = p.open();
      if (sub == "attr") {
        std::string k = p.string();
        lib->attrs[k] = p.string();
      } else if (sub == "sattr") {
        std::string k = p.string();
        lib->sym_attrs[k] = parse_expr(p);
      } else {
        p.fail("E403", "unknown library field '" + sub + "'");
      }
      p.close();
    }
    st.add_node(std::move(lib));
  } else if (tag == "nested") {
    std::set<std::string> ins, outs;
    sym::SubstMap symmap;
    std::string ins_tag = p.open();
    if (ins_tag != "ins") p.fail("E402", "expected (ins ...) in nested SDFG");
    while (!p.list_done()) ins.insert(p.string());
    p.close();
    std::string outs_tag = p.open();
    if (outs_tag != "outs") p.fail("E402", "expected (outs ...) in nested SDFG");
    while (!p.list_done()) outs.insert(p.string());
    p.close();
    while (p.peek() == '(') {
      // Either a (map sym expr) entry or the nested (sdfg ...) itself.
      size_t mark = p.pos;
      std::string sub = p.open();
      if (sub == "map") {
        std::string k = p.string();
        symmap[k] = parse_expr(p);
        p.close();
        continue;
      }
      if (sub != "sdfg") p.fail("E403", "unknown nested field '" + sub + "'");
      p.pos = mark;
      --p.depth;  // re-parsed below by parse_sdfg
      break;
    }
    auto callee = parse_sdfg(p);
    auto node = std::make_unique<NestedSDFGNode>(std::shared_ptr<SDFG>(
        std::move(callee)));
    node->in_connectors = std::move(ins);
    node->out_connectors = std::move(outs);
    node->symbol_mapping = std::move(symmap);
    st.add_node(std::move(node));
  } else {
    p.fail("E403", "unknown node tag '" + tag + "'", at);
  }
  ++next_id;
  p.close();  // closes the node body
  p.close();  // closes (node ...)
}

std::unique_ptr<SDFG> parse_sdfg(Parser& p) {
  p.skip_ws();
  size_t sdfg_at = p.pos;
  std::string tag = p.open();
  if (tag != "sdfg")
    p.fail("E402", "expected (sdfg ...), got '" + tag + "'", sdfg_at);
  auto g = std::make_unique<SDFG>(p.string());
  int start = 0;
  size_t start_at = 0;
  int next_state = 0;
  while (!p.list_done()) {
    p.skip_ws();
    size_t section_at = p.pos;
    std::string section = p.open();
    if (section == "symbols") {
      while (!p.list_done()) g->add_symbol(p.string());
    } else if (section == "array") {
      p.skip_ws();
      size_t name_at = p.pos;
      std::string name = p.string();
      if (g->has_array(name))
        p.fail("E405", "duplicate array name '" + name + "'", name_at);
      DType dtype = enum_from<DType>(
          p, dtype_name,
          {DType::f32, DType::f64, DType::i32, DType::i64, DType::b8},
          "dtype");
      bool transient = p.integer() != 0;
      Storage storage = enum_from<Storage>(
          p, storage_name,
          {Storage::Default, Storage::Register, Storage::CPUStack,
           Storage::CPUHeap, Storage::GPUGlobal, Storage::GPUShared,
           Storage::FPGAGlobal, Storage::FPGALocal},
          "storage");
      std::string lifetime = p.atom();
      bool is_stream = p.integer() != 0;
      int64_t depth = p.integer();
      std::string shape_tag = p.open();
      if (shape_tag != "shape") p.fail("E402", "expected (shape ...) in array");
      std::vector<sym::Expr> shape;
      while (!p.list_done()) shape.push_back(parse_expr(p));
      p.close();
      DataDesc& d = g->add_array(name, dtype, std::move(shape), transient);
      d.storage = storage;
      d.lifetime =
          lifetime == "Persistent" ? Lifetime::Persistent : Lifetime::Scope;
      d.is_stream = is_stream;
      d.stream_depth = depth;
    } else if (section == "arg") {
      g->add_arg(p.string());
    } else if (section == "start") {
      p.skip_ws();
      start_at = p.pos;
      start = static_cast<int>(p.integer());
    } else if (section == "state") {
      p.skip_ws();
      size_t sid_at = p.pos;
      int sid = static_cast<int>(p.integer());
      if (sid < next_state)
        p.fail("E407", "state id " + std::to_string(sid) +
                           " duplicates or reorders an earlier state (next is " +
                           std::to_string(next_state) + ")",
               sid_at);
      while (next_state < sid) {
        g->add_state("__load_pad");
        g->remove_state(next_state++);
      }
      State& st = g->add_state(p.string());
      ++next_state;
      int next_node = 0;
      while (p.peek() == '(') {
        p.skip_ws();
        size_t sub_at = p.pos;
        std::string sub = p.open();
        if (sub == "node") {
          parse_node(p, st, next_node);
        } else if (sub == "edge") {
          p.skip_ws();
          size_t edge_at = p.pos;
          int src = static_cast<int>(p.integer());
          std::string src_conn = p.string();
          int dst = static_cast<int>(p.integer());
          std::string dst_conn = p.string();
          Memlet m = parse_memlet(p);
          if (src < 0 || src >= next_node || !st.alive(src))
            p.fail("E406", "edge references nonexistent source node " +
                               std::to_string(src),
                   edge_at);
          if (dst < 0 || dst >= next_node || !st.alive(dst))
            p.fail("E406", "edge references nonexistent destination node " +
                               std::to_string(dst),
                   edge_at);
          st.add_edge(src, src_conn, dst, dst_conn, std::move(m));
          p.close();
        } else {
          p.fail("E403", "unknown state field '" + sub + "'", sub_at);
        }
      }
    } else if (section == "iedge") {
      p.skip_ws();
      size_t iedge_at = p.pos;
      int src = static_cast<int>(p.integer());
      int dst = static_cast<int>(p.integer());
      CodeExpr cond = parse_code(p);
      std::vector<std::pair<std::string, sym::Expr>> assignments;
      while (!p.list_done()) {
        std::string sub = p.open();
        if (sub != "assign") p.fail("E402", "expected (assign ...) in iedge");
        std::string k = p.string();
        assignments.emplace_back(k, parse_expr(p));
        p.close();
      }
      if (!g->state_alive(src))
        p.fail("E409", "interstate edge references nonexistent source state " +
                           std::to_string(src),
               iedge_at);
      if (!g->state_alive(dst))
        p.fail("E409",
               "interstate edge references nonexistent destination state " +
                   std::to_string(dst),
               iedge_at);
      g->add_interstate_edge(src, dst, std::move(cond),
                             std::move(assignments));
    } else {
      p.fail("E403", "unknown section '" + section + "'", section_at);
    }
    p.close();
  }
  p.close();
  if (next_state > 0 && !g->state_alive(start))
    p.fail("E409", "start state " + std::to_string(start) + " does not exist",
           start_at ? start_at : sdfg_at);
  g->set_start_state(start);
  return g;
}

}  // namespace

std::string SDFG::save() const {
  std::ostringstream os;
  write_sdfg(os, *this);
  return os.str();
}

std::unique_ptr<SDFG> load_sdfg(const std::string& text) {
  Parser p(text);
  std::unique_ptr<SDFG> g;
  try {
    g = parse_sdfg(p);
  } catch (const diag::DiagError&) {
    throw;
  } catch (const Error& e) {
    // Graph-construction errors (e.g. State::add_edge connector checks)
    // surfacing through the loader become located diagnostics too.
    p.fail("E400", e.what());
  }
  if (!p.at_end()) p.fail("E408", "trailing input after (sdfg ...)");
  return g;
}

std::unique_ptr<SDFG> load_sdfg(const std::string& text,
                                diag::DiagSink& sink) {
  try {
    return load_sdfg(text);
  } catch (const diag::DiagError& e) {
    sink.report(e.diagnostic());
    return nullptr;
  }
}

}  // namespace dace::ir
