#include "symbolic/symbolic.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

namespace dace::sym {

using detail::Node;
using detail::NodePtr;

// Node-level access for the helpers below that build an Expr from nodes.
class ExprNodes {
 public:
  static const NodePtr& node(const Expr& e) { return e.node_; }
  static Expr wrap(NodePtr n) { return Expr(std::move(n)); }
};

namespace {

NodePtr make_const(int64_t v) {
  auto n = std::make_shared<Node>();
  n->kind = ExprKind::Const;
  n->value = v;
  return n;
}

NodePtr make_symbol(const std::string& name) {
  auto n = std::make_shared<Node>();
  n->kind = ExprKind::Symbol;
  n->name = name;
  return n;
}

NodePtr make_nary(ExprKind k, std::vector<NodePtr> args) {
  auto n = std::make_shared<Node>();
  n->kind = k;
  n->args = std::move(args);
  return n;
}

// Python-style floor division and modulo (result of % has divisor's sign),
// matching the slicing semantics the frontend needs.
int64_t floordiv_i64(int64_t a, int64_t b) {
  DACE_CHECK(b != 0, "symbolic: division by zero");
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t mod_i64(int64_t a, int64_t b) { return a - floordiv_i64(a, b) * b; }

// Coefficient arithmetic: a result outside int64 is an error, not a
// wrapped coefficient.
int64_t add_i64(int64_t a, int64_t b) {
  int64_t r;
  DACE_CHECK(!__builtin_add_overflow(a, b, &r),
             "symbolic: integer overflow in ", a, " + ", b);
  return r;
}

int64_t sub_i64(int64_t a, int64_t b) {
  int64_t r;
  DACE_CHECK(!__builtin_sub_overflow(a, b, &r),
             "symbolic: integer overflow in ", a, " - ", b);
  return r;
}

int64_t mul_i64(int64_t a, int64_t b) {
  int64_t r;
  DACE_CHECK(!__builtin_mul_overflow(a, b, &r),
             "symbolic: integer overflow in ", a, " * ", b);
  return r;
}

// ---------------------------------------------------------------------------
// Canonicalization: polynomial normal form over atoms.
// ---------------------------------------------------------------------------

std::string node_key(const NodePtr& n);

// Monomial: sorted (atom-key, power) pairs. Empty = constant monomial.
using Mono = std::vector<std::pair<std::string, int>>;
// Polynomial: monomial -> integer coefficient.
using Poly = std::map<Mono, int64_t>;
// Registry of atom nodes by key, to rebuild nodes from polynomials.
using AtomReg = std::map<std::string, NodePtr>;

void poly_add_term(Poly& p, const Mono& m, int64_t coef) {
  if (coef == 0) return;
  auto [it, inserted] = p.emplace(m, coef);
  if (!inserted) {
    it->second = add_i64(it->second, coef);
    if (it->second == 0) p.erase(it);
  }
}

Poly poly_mul(const Poly& a, const Poly& b) {
  Poly out;
  for (const auto& [ma, ca] : a) {
    for (const auto& [mb, cb] : b) {
      // Merge the two sorted monomials.
      Mono m;
      m.reserve(ma.size() + mb.size());
      auto ia = ma.begin();
      auto ib = mb.begin();
      while (ia != ma.end() || ib != mb.end()) {
        if (ib == mb.end() || (ia != ma.end() && ia->first < ib->first)) {
          m.push_back(*ia++);
        } else if (ia == ma.end() || ib->first < ia->first) {
          m.push_back(*ib++);
        } else {
          m.emplace_back(ia->first, ia->second + ib->second);
          ++ia;
          ++ib;
        }
      }
      poly_add_term(out, m, mul_i64(ca, cb));
    }
  }
  return out;
}

NodePtr canonicalize(const NodePtr& n);
Poly to_poly(const NodePtr& n, AtomReg& atoms);

// Wrap an already-canonical atom node into a single-term polynomial.
Poly atom_poly(NodePtr atom, AtomReg& atoms) {
  std::string key = node_key(atom);
  atoms.emplace(key, std::move(atom));
  Poly p;
  poly_add_term(p, Mono{{key, 1}}, 1);
  return p;
}

Poly to_poly(const NodePtr& n, AtomReg& atoms) {
  switch (n->kind) {
    case ExprKind::Const: {
      Poly p;
      poly_add_term(p, Mono{}, n->value);
      return p;
    }
    case ExprKind::Symbol:
      return atom_poly(n, atoms);
    case ExprKind::Add: {
      Poly p;
      for (const auto& a : n->args) {
        Poly q = to_poly(a, atoms);
        for (const auto& [m, c] : q) poly_add_term(p, m, c);
      }
      return p;
    }
    case ExprKind::Mul: {
      Poly p;
      poly_add_term(p, Mono{}, 1);
      for (const auto& a : n->args) p = poly_mul(p, to_poly(a, atoms));
      return p;
    }
    case ExprKind::FloorDiv:
    case ExprKind::Mod:
    case ExprKind::Min:
    case ExprKind::Max: {
      NodePtr a = canonicalize(n->args[0]);
      NodePtr b = canonicalize(n->args[1]);
      // Constant folding and algebraic identities on the atom level.
      bool ac = a->kind == ExprKind::Const;
      bool bc = b->kind == ExprKind::Const;
      if (ac && bc) {
        int64_t v = 0;
        switch (n->kind) {
          case ExprKind::FloorDiv: v = floordiv_i64(a->value, b->value); break;
          case ExprKind::Mod: v = mod_i64(a->value, b->value); break;
          case ExprKind::Min: v = std::min(a->value, b->value); break;
          case ExprKind::Max: v = std::max(a->value, b->value); break;
          default: break;
        }
        Poly p;
        poly_add_term(p, Mono{}, v);
        return p;
      }
      if (n->kind == ExprKind::FloorDiv && bc && b->value == 1)
        return to_poly(a, atoms);
      if (n->kind == ExprKind::Mod && bc && b->value == 1) return Poly{};
      if ((n->kind == ExprKind::Min || n->kind == ExprKind::Max) &&
          node_key(a) == node_key(b))
        return to_poly(a, atoms);
      NodePtr atom = make_nary(n->kind, {a, b});
      return atom_poly(atom, atoms);
    }
  }
  throw err("symbolic: unreachable expression kind");
}

NodePtr from_poly(const Poly& p, const AtomReg& atoms) {
  if (p.empty()) return make_const(0);
  std::vector<NodePtr> terms;
  int64_t const_term = 0;
  bool have_const = false;
  for (const auto& [m, c] : p) {
    if (m.empty()) {
      const_term = c;
      have_const = true;
      continue;
    }
    std::vector<NodePtr> factors;
    if (c != 1) factors.push_back(make_const(c));
    for (const auto& [key, pow] : m) {
      NodePtr atom = atoms.at(key);
      for (int i = 0; i < pow; ++i) factors.push_back(atom);
    }
    terms.push_back(factors.size() == 1 ? factors[0]
                                        : make_nary(ExprKind::Mul, factors));
  }
  // Constant term last, so "N - 1" prints naturally.
  if (have_const && (const_term != 0 || terms.empty()))
    terms.push_back(make_const(const_term));
  if (terms.size() == 1) return terms[0];
  return make_nary(ExprKind::Add, terms);
}

NodePtr canonicalize(const NodePtr& n) {
  AtomReg atoms;
  Poly p = to_poly(n, atoms);
  return from_poly(p, atoms);
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

void print_node(const NodePtr& n, std::string& out, int parent_prec);

void print_int(int64_t v, std::string& out) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void print_const(int64_t v, std::string& out, int parent_prec) {
  if (v < 0 && parent_prec > 0) {
    out += '(';
    print_int(v, out);
    out += ')';
  } else {
    print_int(v, out);
  }
}

// Prints a product whose leading constant is negative as its negation,
// after the " - " its sum printed.  The constant is left out when it
// negates to 1, and a lone remaining factor prints as the whole term.
void print_negated_product(const NodePtr& mul, std::string& out) {
  int64_t coef = -mul->args[0]->value;
  size_t nfactors = (coef != 1) + (mul->args.size() - 1);
  int prec = nfactors == 1 ? 1 : 2;
  bool first = true;
  if (coef != 1) {
    print_const(coef, out, prec);
    first = false;
  }
  for (size_t i = 1; i < mul->args.size(); ++i) {
    if (!first) out += '*';
    print_node(mul->args[i], out, prec);
    first = false;
  }
}

// Precedence: 0 add, 1 mul, 2 atom.
void print_node(const NodePtr& n, std::string& out, int parent_prec) {
  switch (n->kind) {
    case ExprKind::Const:
      print_const(n->value, out, parent_prec);
      return;
    case ExprKind::Symbol:
      out += n->name;
      return;
    case ExprKind::Add: {
      if (parent_prec > 0) out += '(';
      bool first = true;
      for (const auto& a : n->args) {
        // Render "+ (-c)*x" as "- c*x" for readability.
        if (!first && a->kind == ExprKind::Const && a->value < 0) {
          out += " - ";
          print_int(-a->value, out);
        } else if (!first && a->kind == ExprKind::Mul && !a->args.empty() &&
                   a->args[0]->kind == ExprKind::Const &&
                   a->args[0]->value < 0) {
          out += " - ";
          print_negated_product(a, out);
        } else {
          if (!first) out += " + ";
          print_node(a, out, 1);
        }
        first = false;
      }
      if (parent_prec > 0) out += ')';
      return;
    }
    case ExprKind::Mul: {
      if (parent_prec > 1) out += '(';
      for (size_t i = 0; i < n->args.size(); ++i) {
        if (i) out += '*';
        print_node(n->args[i], out, 2);
      }
      if (parent_prec > 1) out += ')';
      return;
    }
    case ExprKind::FloorDiv:
    case ExprKind::Mod:
      out += '(';
      print_node(n->args[0], out, 0);
      out += n->kind == ExprKind::FloorDiv ? " // " : " % ";
      print_node(n->args[1], out, 2);
      out += ')';
      return;
    case ExprKind::Min:
    case ExprKind::Max:
      out += n->kind == ExprKind::Min ? "min(" : "max(";
      print_node(n->args[0], out, 0);
      out += ", ";
      print_node(n->args[1], out, 0);
      out += ')';
      return;
  }
}

std::string node_key(const NodePtr& n) {
  std::string out;
  print_node(n, out, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Bounds (assuming all symbols >= 1)
// ---------------------------------------------------------------------------

struct Bounds {
  std::optional<int64_t> lo, hi;
};

Bounds node_bounds(const NodePtr& n);

Bounds node_bounds(const NodePtr& n) {
  switch (n->kind) {
    case ExprKind::Const:
      return {n->value, n->value};
    case ExprKind::Symbol:
      return {int64_t{1}, std::nullopt};
    case ExprKind::Add: {
      Bounds b{int64_t{0}, int64_t{0}};
      for (const auto& a : n->args) {
        Bounds ab = node_bounds(a);
        b.lo = (b.lo && ab.lo) ? std::optional<int64_t>(*b.lo + *ab.lo)
                               : std::nullopt;
        b.hi = (b.hi && ab.hi) ? std::optional<int64_t>(*b.hi + *ab.hi)
                               : std::nullopt;
      }
      return b;
    }
    case ExprKind::Mul: {
      // Conservative: only handle (const * nonneg-factors) products.
      int64_t coef = 1;
      std::optional<int64_t> lo = 1, hi = 1;
      for (const auto& a : n->args) {
        if (a->kind == ExprKind::Const) {
          coef *= a->value;
          continue;
        }
        Bounds ab = node_bounds(a);
        if (!ab.lo || *ab.lo < 0) return {};  // unknown sign factor
        lo = (lo && ab.lo) ? std::optional<int64_t>(*lo * *ab.lo)
                           : std::nullopt;
        hi = (hi && ab.hi) ? std::optional<int64_t>(*hi * *ab.hi)
                           : std::nullopt;
      }
      Bounds out;
      if (coef >= 0) {
        if (lo) out.lo = coef * *lo;
        if (hi) out.hi = coef * *hi;
      } else {
        if (hi) out.lo = coef * *hi;
        if (lo) out.hi = coef * *lo;
      }
      return out;
    }
    case ExprKind::FloorDiv: {
      Bounds a = node_bounds(n->args[0]);
      Bounds b = node_bounds(n->args[1]);
      if (a.lo && *a.lo >= 0 && b.lo && *b.lo >= 1) {
        Bounds out;
        out.lo = 0;
        if (a.hi && b.lo) out.hi = floordiv_i64(*a.hi, *b.lo);
        return out;
      }
      return {};
    }
    case ExprKind::Mod: {
      Bounds b = node_bounds(n->args[1]);
      if (b.lo && *b.lo >= 1) {
        Bounds out;
        out.lo = 0;
        if (b.hi) out.hi = *b.hi - 1;
        return out;
      }
      return {};
    }
    case ExprKind::Min: {
      Bounds a = node_bounds(n->args[0]);
      Bounds b = node_bounds(n->args[1]);
      Bounds out;
      if (a.lo && b.lo) out.lo = std::min(*a.lo, *b.lo);
      if (a.hi && b.hi) {
        out.hi = std::min(*a.hi, *b.hi);
      } else if (a.hi) {
        out.hi = a.hi;
      } else if (b.hi) {
        out.hi = b.hi;
      }
      return out;
    }
    case ExprKind::Max: {
      Bounds a = node_bounds(n->args[0]);
      Bounds b = node_bounds(n->args[1]);
      Bounds out;
      if (a.hi && b.hi) out.hi = std::max(*a.hi, *b.hi);
      if (a.lo && b.lo) {
        out.lo = std::max(*a.lo, *b.lo);
      } else if (a.lo) {
        out.lo = a.lo;
      } else if (b.lo) {
        out.lo = b.lo;
      }
      return out;
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Evaluation / substitution / free symbols
// ---------------------------------------------------------------------------

std::optional<int64_t> node_eval(const NodePtr& n, const SymbolMap& syms) {
  switch (n->kind) {
    case ExprKind::Const:
      return n->value;
    case ExprKind::Symbol: {
      auto it = syms.find(n->name);
      if (it == syms.end()) return std::nullopt;
      return it->second;
    }
    case ExprKind::Add: {
      int64_t acc = 0;
      for (const auto& a : n->args) {
        auto v = node_eval(a, syms);
        if (!v) return std::nullopt;
        acc += *v;
      }
      return acc;
    }
    case ExprKind::Mul: {
      int64_t acc = 1;
      for (const auto& a : n->args) {
        auto v = node_eval(a, syms);
        if (!v) return std::nullopt;
        acc *= *v;
      }
      return acc;
    }
    default: {
      auto a = node_eval(n->args[0], syms);
      auto b = node_eval(n->args[1], syms);
      if (!a || !b) return std::nullopt;
      switch (n->kind) {
        case ExprKind::FloorDiv: return floordiv_i64(*a, *b);
        case ExprKind::Mod: return mod_i64(*a, *b);
        case ExprKind::Min: return std::min(*a, *b);
        case ExprKind::Max: return std::max(*a, *b);
        default: return std::nullopt;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Expr public interface
// ---------------------------------------------------------------------------

Expr::Expr() : node_(make_const(0)) {}
Expr::Expr(int64_t v) : node_(make_const(v)) {}

Expr Expr::symbol(const std::string& name) {
  DACE_CHECK(!name.empty(), "symbolic: empty symbol name");
  return Expr(make_symbol(name));
}

int64_t Expr::constant() const {
  DACE_CHECK(is_constant(), "symbolic: not a constant: ", to_string());
  return node_->value;
}

const std::string& Expr::symbol_name() const {
  DACE_CHECK(is_symbol(), "symbolic: not a symbol: ", to_string());
  return node_->name;
}

std::vector<Expr> Expr::operands() const {
  std::vector<Expr> out;
  out.reserve(node_->args.size());
  for (const auto& a : node_->args) out.push_back(Expr(a));
  return out;
}

int64_t Expr::eval(const SymbolMap& syms) const {
  auto v = node_eval(node_, syms);
  DACE_CHECK(v.has_value(), "symbolic: unbound symbol in ", to_string());
  return *v;
}

std::optional<int64_t> Expr::try_eval(const SymbolMap& syms) const {
  return node_eval(node_, syms);
}

SlotExpr::SlotExpr(const Expr& e,
                   const std::function<int(const std::string&)>& slot_of)
    : expr_(e) {
  std::function<void(const NodePtr&)> flatten = [&](const NodePtr& n) {
    int64_t v = n->value;
    if (n->kind == ExprKind::Symbol) v = slot_of(n->name);
    terms_.push_back(Term{n->kind, (uint32_t)n->args.size(), v});
    for (const auto& a : n->args) flatten(a);
  };
  flatten(ExprNodes::node(e));
}

// Mirrors node_eval, term for term.
int64_t SlotExpr::eval_at(const Term*& t,
                          const std::vector<int64_t*>& cells) const {
  const Term& n = *t++;
  switch (n.kind) {
    case ExprKind::Const:
      return n.value;
    case ExprKind::Symbol: {
      const int64_t* c = cells[(size_t)n.value];
      DACE_CHECK(c != nullptr, "symbolic: unbound symbol in ",
                 expr_.to_string());
      return *c;
    }
    case ExprKind::Add: {
      int64_t acc = 0;
      for (uint32_t i = 0; i < n.nargs; ++i) acc += eval_at(t, cells);
      return acc;
    }
    case ExprKind::Mul: {
      int64_t acc = 1;
      for (uint32_t i = 0; i < n.nargs; ++i) acc *= eval_at(t, cells);
      return acc;
    }
    default: {
      int64_t a = eval_at(t, cells);
      int64_t b = eval_at(t, cells);
      switch (n.kind) {
        case ExprKind::FloorDiv: return floordiv_i64(a, b);
        case ExprKind::Mod: return mod_i64(a, b);
        case ExprKind::Min: return std::min(a, b);
        default: return std::max(a, b);
      }
    }
  }
}

namespace {
// `n` with the symbols bound in `map` replaced by their expressions, not
// yet canonical; null when no symbol of `n` is bound.
NodePtr subs_node(const NodePtr& n, const SubstMap& map) {
  if (n->kind == ExprKind::Symbol) {
    auto it = map.find(n->name);
    return it == map.end() ? nullptr : ExprNodes::node(it->second);
  }
  std::vector<NodePtr> args;
  for (size_t i = 0; i < n->args.size(); ++i) {
    NodePtr a = subs_node(n->args[i], map);
    if (!a) continue;
    if (args.empty()) args = n->args;
    args[i] = std::move(a);
  }
  return args.empty() ? nullptr : make_nary(n->kind, std::move(args));
}

void collect_symbols(const NodePtr& n, std::set<std::string>& out) {
  if (n->kind == ExprKind::Symbol) {
    out.insert(n->name);
    return;
  }
  for (const auto& a : n->args) collect_symbols(a, out);
}
}  // namespace

Expr Expr::subs(const SubstMap& map) const {
  if (map.empty()) return *this;
  NodePtr n = subs_node(node_, map);
  return n ? Expr(canonicalize(n)) : *this;
}

void Expr::free_symbols(std::set<std::string>& out) const {
  collect_symbols(node_, out);
}

std::set<std::string> Expr::free_symbols() const {
  std::set<std::string> out;
  free_symbols(out);
  return out;
}

bool Expr::equals(const Expr& other) const {
  if (node_ == other.node_) return true;
  return node_key(node_) == node_key(other.node_);
}

bool Expr::provably_nonnegative() const {
  Bounds b = node_bounds(node_);
  return b.lo && *b.lo >= 0;
}

bool Expr::provably_positive() const {
  Bounds b = node_bounds(node_);
  return b.lo && *b.lo >= 1;
}

bool Expr::provably_nonpositive() const {
  Bounds b = node_bounds(node_);
  return b.hi && *b.hi <= 0;
}

bool Expr::is_zero() const { return is_constant() && node_->value == 0; }
bool Expr::is_one() const { return is_constant() && node_->value == 1; }

namespace {
bool same_tree(const NodePtr& a, const NodePtr& b) {
  if (a == b) return true;
  if (a->kind != b->kind || a->value != b->value || a->name != b->name ||
      a->args.size() != b->args.size())
    return false;
  for (size_t i = 0; i < a->args.size(); ++i)
    if (!same_tree(a->args[i], b->args[i])) return false;
  return true;
}

// The terms of a canonical sum; any other node is a sum of one term.
std::pair<const NodePtr*, size_t> terms_of(const NodePtr& n) {
  if (n->kind == ExprKind::Add) return {n->args.data(), n->args.size()};
  return {&n, 1};
}
}  // namespace

// from_poly puts the constant term last, so the canonical b + 1 is b's
// other terms in order followed by b's constant raised by 1: dropped
// when that is 0, appended as 1 when b has no constant term.
bool Expr::is_successor_of(const Expr& b) const {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const NodePtr& n = b.node_;
  if (n->kind == ExprKind::Const)
    return is_constant() && n->value != kMax && node_->value == n->value + 1;
  auto [bt, nb] = terms_of(n);
  int64_t k = 0;
  if (bt[nb - 1]->kind == ExprKind::Const) k = bt[--nb]->value;
  if (k == kMax) return false;
  ++k;
  auto [et, ne] = terms_of(node_);
  if (ne != nb + (k != 0)) return false;
  for (size_t i = 0; i < nb; ++i)
    if (!same_tree(et[i], bt[i])) return false;
  return k == 0 || (et[nb]->kind == ExprKind::Const && et[nb]->value == k);
}

std::string Expr::to_string() const { return node_key(node_); }

// The arithmetic below returns at once when the answer is an operand or
// a constant: operands are canonical, so canonicalizing would rebuild the
// same tree.

Expr operator+(const Expr& a, const Expr& b) {
  if (a.is_constant() && b.is_constant())
    return Expr(add_i64(a.node_->value, b.node_->value));
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  return Expr(canonicalize(make_nary(ExprKind::Add, {a.node_, b.node_})));
}

Expr operator-(const Expr& a, const Expr& b) {
  if (a.is_constant() && b.is_constant())
    return Expr(sub_i64(a.node_->value, b.node_->value));
  if (b.is_zero()) return a;
  auto neg = make_nary(ExprKind::Mul, {make_const(-1), b.node_});
  return Expr(canonicalize(make_nary(ExprKind::Add, {a.node_, neg})));
}

Expr operator*(const Expr& a, const Expr& b) {
  if (a.is_constant() && b.is_constant())
    return Expr(mul_i64(a.node_->value, b.node_->value));
  if (a.is_zero() || b.is_one()) return a;
  if (b.is_zero() || a.is_one()) return b;
  return Expr(canonicalize(make_nary(ExprKind::Mul, {a.node_, b.node_})));
}

Expr operator-(const Expr& a) { return Expr(int64_t{0}) - a; }

Expr floordiv(const Expr& a, const Expr& b) {
  if (a.is_constant() && b.is_constant())
    return Expr(floordiv_i64(a.node_->value, b.node_->value));
  if (b.is_one()) return a;
  return Expr(canonicalize(make_nary(ExprKind::FloorDiv, {a.node_, b.node_})));
}

Expr mod(const Expr& a, const Expr& b) {
  return Expr(canonicalize(make_nary(ExprKind::Mod, {a.node_, b.node_})));
}

Expr min(const Expr& a, const Expr& b) {
  return Expr(canonicalize(make_nary(ExprKind::Min, {a.node_, b.node_})));
}

Expr max(const Expr& a, const Expr& b) {
  return Expr(canonicalize(make_nary(ExprKind::Max, {a.node_, b.node_})));
}

Expr ceildiv(const Expr& a, const Expr& b) {
  if (b.is_one()) return a;
  return floordiv(a + b - Expr(int64_t{1}), b);
}

namespace {
Expr nary(ExprKind kind, const std::vector<Expr>& xs, int64_t unit) {
  if (xs.empty()) return Expr(unit);
  if (xs.size() == 1) return xs[0];
  std::vector<NodePtr> args;
  args.reserve(xs.size());
  for (const Expr& x : xs) args.push_back(ExprNodes::node(x));
  return ExprNodes::wrap(canonicalize(make_nary(kind, std::move(args))));
}
}  // namespace

Expr sum(const std::vector<Expr>& terms) {
  return nary(ExprKind::Add, terms, 0);
}

Expr product(const std::vector<Expr>& factors) {
  return nary(ExprKind::Mul, factors, 1);
}

bool operator<(const Expr& a, const Expr& b) {
  return node_key(a.node_) < node_key(b.node_);
}

}  // namespace dace::sym
