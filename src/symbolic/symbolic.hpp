// Symbolic integer expressions.
//
// Shapes, map ranges and memlet subsets in the SDFG IR are symbolic integer
// expressions over named size symbols (e.g. N, M, TSTEPS).  The engine
// supports construction, canonicalizing simplification (polynomial normal
// form over "atoms"), substitution, evaluation, and best-effort sign
// queries under the assumption that all free symbols are >= 1 (sizes are
// positive), mirroring how the paper uses symbolic analysis for state
// fusion, subgraph fusion and communication-redundancy checks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/common.hpp"

namespace dace::sym {

/// Concrete values for symbols, used when evaluating expressions.
using SymbolMap = std::map<std::string, int64_t>;

class Expr;

/// Symbol -> expression substitution map.
using SubstMap = std::map<std::string, Expr>;

/// Expression node kinds.  Add/Mul are n-ary; FloorDiv/Mod/Min/Max are
/// binary "atoms" for the polynomial normal form.
enum class ExprKind { Const, Symbol, Add, Mul, FloorDiv, Mod, Min, Max };

namespace detail {
struct Node;
using NodePtr = std::shared_ptr<const Node>;

struct Node {
  ExprKind kind = ExprKind::Const;
  int64_t value = 0;             // Const
  std::string name;              // Symbol
  std::vector<NodePtr> args;     // Add/Mul (n-ary), others binary
};
}  // namespace detail

/// Immutable symbolic integer expression with value semantics.
///
/// All arithmetic constructors simplify eagerly to a canonical form, so
/// structural equality after simplification is semantic equality for
/// polynomial expressions (FloorDiv/Mod/Min/Max are treated as opaque
/// atoms whose children are canonicalized recursively).  Every Expr, and
/// every operand of one, is canonical; the arithmetic relies on it to
/// return an operand or a folded constant without canonicalizing.
/// Coefficient arithmetic is checked: a result outside int64 throws
/// dace::Error.
class Expr {
 public:
  /// Zero.
  Expr();
  /// Constant.
  Expr(int64_t v);  // NOLINT: implicit by design (mirrors int semantics)
  Expr(int v) : Expr(static_cast<int64_t>(v)) {}

  /// A named symbol.
  static Expr symbol(const std::string& name);

  ExprKind kind() const { return node_->kind; }
  bool is_constant() const { return node_->kind == ExprKind::Const; }
  bool is_symbol() const { return node_->kind == ExprKind::Symbol; }
  /// Value of a constant expression; throws otherwise.
  int64_t constant() const;
  /// Name of a symbol expression; throws otherwise.
  const std::string& symbol_name() const;

  /// Child expressions (empty for Const/Symbol). Children of canonical
  /// expressions are themselves canonical.
  std::vector<Expr> operands() const;
  /// operands().size() and operands()[i], without building the vector.
  size_t num_operands() const { return node_->args.size(); }
  Expr operand(size_t i) const { return Expr(node_->args[i]); }

  /// Evaluate with all symbols bound; throws on unbound symbol.
  int64_t eval(const SymbolMap& syms) const;
  /// Evaluate, or nullopt if some symbol is unbound.
  std::optional<int64_t> try_eval(const SymbolMap& syms) const;

  /// Substitute symbols by expressions (simultaneously), then simplify
  /// once.  Returns this expression when no symbol of it is bound.
  Expr subs(const SubstMap& map) const;

  /// Collect free symbol names into `out`.
  void free_symbols(std::set<std::string>& out) const;
  std::set<std::string> free_symbols() const;

  /// Semantic equality (via canonical form); exact for polynomials,
  /// structural for atoms.
  bool equals(const Expr& other) const;

  /// Best-effort sign queries assuming every free symbol is >= 1.
  /// Returns true only when provable; false means "unknown or false".
  bool provably_nonnegative() const;
  bool provably_positive() const;
  bool provably_nonpositive() const;
  /// True iff canonical form is the constant 0.
  bool is_zero() const;
  bool is_one() const;
  /// True iff this expression is `b + 1`, decided on the two canonical
  /// trees without building the sum.
  bool is_successor_of(const Expr& b) const;

  std::string to_string() const;

  friend Expr operator+(const Expr& a, const Expr& b);
  friend Expr operator-(const Expr& a, const Expr& b);
  friend Expr operator*(const Expr& a, const Expr& b);
  friend Expr operator-(const Expr& a);
  Expr& operator+=(const Expr& b) { return *this = *this + b; }
  Expr& operator-=(const Expr& b) { return *this = *this - b; }
  Expr& operator*=(const Expr& b) { return *this = *this * b; }

  /// Integer floor division / modulo / min / max.
  friend Expr floordiv(const Expr& a, const Expr& b);
  friend Expr mod(const Expr& a, const Expr& b);
  friend Expr min(const Expr& a, const Expr& b);
  friend Expr max(const Expr& a, const Expr& b);

  /// ceil(a / b) for positive b, expressed as floordiv(a + b - 1, b).
  friend Expr ceildiv(const Expr& a, const Expr& b);

  /// Total order for use as container key (structural on canonical form).
  friend bool operator<(const Expr& a, const Expr& b);
  friend bool operator==(const Expr& a, const Expr& b) { return a.equals(b); }
  friend bool operator!=(const Expr& a, const Expr& b) { return !a.equals(b); }

 private:
  explicit Expr(detail::NodePtr n) : node_(std::move(n)) {}
  detail::NodePtr node_;

  friend class ExprNodes;
};

// Namespace-scope declarations (friends alone are only visible via ADL).
Expr operator+(const Expr& a, const Expr& b);
Expr operator-(const Expr& a, const Expr& b);
Expr operator*(const Expr& a, const Expr& b);
Expr operator-(const Expr& a);
Expr floordiv(const Expr& a, const Expr& b);
Expr mod(const Expr& a, const Expr& b);
Expr min(const Expr& a, const Expr& b);
Expr max(const Expr& a, const Expr& b);
Expr ceildiv(const Expr& a, const Expr& b);
bool operator<(const Expr& a, const Expr& b);

/// Sum / product of any number of expressions, canonicalized once (0 / 1
/// when empty).
Expr sum(const std::vector<Expr>& terms);
Expr product(const std::vector<Expr>& factors);

/// Convenience: symbol literal.
inline Expr S(const std::string& name) { return Expr::symbol(name); }

/// An expression flattened for repeated evaluation.  Each symbol becomes
/// the slot `slot_of` gives its name, and eval() reads the value through
/// `cells[slot]` instead of looking the name up; a null cell is an
/// unbound symbol.  The result equals Expr::eval on the same values.
class SlotExpr {
 public:
  /// The constant 0.
  SlotExpr() : SlotExpr(Expr(), {}) {}
  SlotExpr(const Expr& e,
           const std::function<int(const std::string&)>& slot_of);

  int64_t eval(const std::vector<int64_t*>& cells) const {
    const Term* t = terms_.data();
    // Most bounds are one constant or one bound symbol.
    if (t->kind == ExprKind::Const) return t->value;
    if (t->kind == ExprKind::Symbol && cells[(size_t)t->value])
      return *cells[(size_t)t->value];
    return eval_at(t, cells);
  }

 private:
  struct Term {
    ExprKind kind;
    uint32_t nargs;  // operands that follow in prefix order
    int64_t value;   // Const: the value; Symbol: the slot
  };
  int64_t eval_at(const Term*& t, const std::vector<int64_t*>& cells) const;

  std::vector<Term> terms_;
  Expr expr_;  // for the unbound-symbol error
};

}  // namespace dace::sym
