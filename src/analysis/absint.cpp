// Abstract interpretation over the SDFG state machine (see absint.hpp).
#include "analysis/absint.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <sstream>
#include <string_view>

#include "common/env.hpp"
#include "common/obs.hpp"

namespace dace::analysis::absint {

namespace {

using ir::CodeExpr;
using ir::CodeOp;
using sym::Expr;
using sym::Range;
using sym::Subset;

/// Last index a range touches: begin + (size-1)*step.
Expr last_index(const Range& r) {
  if (r.step.is_one()) return r.end - Expr(1);
  return r.begin + (r.size() - Expr(1)) * r.step;
}

/// Guarded substitution: canonicalization constant-folds, and folding a
/// division by a substituted zero throws; treat that as "no result".
std::optional<Expr> try_subs(const Expr& e, const sym::SubstMap& m) {
  try {
    return e.subs(m);
  } catch (const dace::Error&) {
    return std::nullopt;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

bool Interval::equals(const Interval& o) const {
  if (lo.has_value() != o.lo.has_value()) return false;
  if (hi.has_value() != o.hi.has_value()) return false;
  if (lo && !lo->equals(*o.lo)) return false;
  if (hi && !hi->equals(*o.hi)) return false;
  return true;
}

std::string Interval::to_string() const {
  std::string s = "[";
  s += lo ? lo->to_string() : "-inf";
  s += ", ";
  s += hi ? hi->to_string() : "+inf";
  s += "]";
  return s;
}

namespace {

/// Sound bound choice without an environment: endpoints may reference
/// interstate-assigned symbols for which the global ">= 1" convention
/// does not hold, so only equal expressions or constant differences are
/// compared.  Returns the smaller (kind=0) / larger (kind=1) of a and b,
/// or nullopt when incomparable.
std::optional<Expr> pick_bound(const Expr& a, const Expr& b, int kind) {
  if (a.equals(b)) return a;
  Expr d = a - b;
  if (!d.is_constant()) return std::nullopt;
  bool a_smaller = d.constant() < 0;
  if (kind == 0) return a_smaller ? a : b;
  return a_smaller ? b : a;
}

}  // namespace

Interval join(const Interval& a, const Interval& b) {
  Interval r;
  if (a.lo && b.lo) r.lo = pick_bound(*a.lo, *b.lo, 0);
  if (a.hi && b.hi) r.hi = pick_bound(*a.hi, *b.hi, 1);
  return r;
}

Interval widen(const Interval& older, const Interval& newer) {
  Interval r;
  if (older.lo && newer.lo && older.lo->equals(*newer.lo)) r.lo = newer.lo;
  if (older.hi && newer.hi && older.hi->equals(*newer.hi)) r.hi = newer.hi;
  return r;
}

// ---------------------------------------------------------------------------
// Provers
// ---------------------------------------------------------------------------

namespace {

/// True when the global ">= 1" prover may be applied to `e`: every free
/// symbol with an environment entry must itself be proven >= 1 (depth
/// caps mutual references between bounds).
bool global_ok(const Expr& e, const Env& env, int depth) {
  for (const auto& s : e.free_symbols()) {
    auto it = env.find(s);
    if (it == env.end()) continue;  // unmapped: size convention applies
    if (depth <= 0) return false;
    if (!it->second.lo) return false;
    Expr lom1 = *it->second.lo - Expr(1);
    if (!global_ok(lom1, env, depth - 1) || !lom1.provably_nonnegative())
      return false;
  }
  return true;
}

bool proves_nonneg_impl(Expr e, const Env& env, int depth) {
  if (depth < 0) return false;
  for (int round = 0; round < 8; ++round) {
    if (global_ok(e, env, 3) && e.provably_nonnegative()) return true;
    bool changed = false;
    for (const auto& s : e.free_symbols()) {
      auto it = env.find(s);
      if (it == env.end()) continue;
      const Interval& I = it->second;
      // Affine coefficient probe with a fresh shift (avoids folding a
      // division by a substituted constant): e(s+1) - e(s) must be free
      // of s, which for polynomials means e is affine in s; atoms keep
      // s and are skipped.
      auto shifted = try_subs(e, {{s, Expr::symbol(s) + Expr(1)}});
      if (!shifted) continue;
      Expr c = *shifted - e;
      if (c.free_symbols().count(s)) continue;
      // Substitute the worst-case endpoint: minimum of e over the
      // interval is at lo for a nonnegative coefficient, at hi for a
      // nonpositive one.  The coefficient's own sign is proven under
      // the same environment.
      std::optional<Expr> repl;
      if (I.lo && !I.lo->free_symbols().count(s) &&
          proves_nonneg_impl(c, env, depth - 1)) {
        repl = I.lo;
      } else if (I.hi && !I.hi->free_symbols().count(s) &&
                 proves_nonneg_impl(Expr(0) - c, env, depth - 1)) {
        repl = I.hi;
      }
      if (!repl) continue;
      auto e2 = try_subs(e, {{s, *repl}});
      if (!e2 || e2->equals(e)) continue;
      e = *e2;
      changed = true;
      break;  // free_symbols changed; restart the scan
    }
    if (!changed) break;
  }
  return global_ok(e, env, 3) && e.provably_nonnegative();
}

// On an affine expression proves_nonneg_impl is arithmetic on its
// coefficients.  The probe e(s+1) - e(s) is s's coefficient c, a
// constant proven nonnegative exactly when c >= 0, so c > 0 substitutes
// the lower endpoint and c < 0 the upper one; substituting adds c times
// the endpoint.  provably_nonnegative counts every symbol as 1: it holds
// when every coefficient is positive and their sum plus the constant is
// >= 0.  LinearProver runs the same rounds on numbers.  It answers
// nullopt, and the Expr path decides, as soon as the expression or an
// endpoint it consults is not affine or a value leaves [-kLimit, kLimit],
// a range in which no step of the Expr path can overflow.

constexpr int64_t kLimit = int64_t{1} << 61;

bool in_limit(int64_t v) { return v >= -kLimit && v <= kLimit; }

bool checked_add(int64_t a, int64_t b, int64_t& out) {
  return !__builtin_add_overflow(a, b, &out) && in_limit(out);
}

/// k + sum(coef * symbol) with terms sorted by name and no zero
/// coefficient: the canonical form of an affine Expr.  Names view
/// strings owned by the Exprs the form was built from.
struct Linear {
  int64_t k = 0;
  std::vector<std::pair<std::string_view, int64_t>> terms;

  bool mentions(std::string_view s) const {
    for (const auto& t : terms)
      if (t.first == s) return true;
    return false;
  }
};

/// Linear form of `e`, or nullopt when it is not affine.
std::optional<Linear> linear_of(const Expr& e) {
  Linear f;
  auto term = [&f](const Expr& t) {
    switch (t.kind()) {
      case sym::ExprKind::Const:
        f.k = t.constant();
        return in_limit(f.k);
      case sym::ExprKind::Symbol:
        f.terms.emplace_back(t.symbol_name(), 1);
        return true;
      case sym::ExprKind::Mul: {
        std::vector<Expr> ops = t.operands();
        if (ops.size() != 2 || !ops[0].is_constant() || !ops[1].is_symbol() ||
            !in_limit(ops[0].constant()))
          return false;
        f.terms.emplace_back(ops[1].symbol_name(), ops[0].constant());
        return true;
      }
      default:
        return false;
    }
  };
  if (e.kind() != sym::ExprKind::Add) {
    if (!term(e)) return std::nullopt;
  } else {
    for (const Expr& t : e.operands())
      if (!term(t)) return std::nullopt;
  }
  return f;
}

/// a + m*b + k, or nullopt when a or b is missing or a value leaves the
/// limit.
std::optional<Linear> combine(const std::optional<Linear>& a, int64_t m,
                              const std::optional<Linear>& b, int64_t k) {
  if (!a || !b) return std::nullopt;
  auto scaled = [m](int64_t v, int64_t& out) {
    return !__builtin_mul_overflow(v, m, &out) && in_limit(out);
  };
  Linear r;
  int64_t v = 0;
  if (!scaled(b->k, v) || !checked_add(a->k, v, r.k) ||
      !checked_add(r.k, k, r.k))
    return std::nullopt;
  r.terms.reserve(a->terms.size() + b->terms.size());
  auto i = a->terms.begin();
  auto j = b->terms.begin();
  while (i != a->terms.end() || j != b->terms.end()) {
    if (j == b->terms.end() || (i != a->terms.end() && i->first < j->first)) {
      r.terms.push_back(*i++);
      continue;
    }
    if (!scaled(j->second, v)) return std::nullopt;
    if (i != a->terms.end() && i->first == j->first) {
      if (!checked_add(i->second, v, v)) return std::nullopt;
      ++i;
    }
    if (v != 0) r.terms.emplace_back(j->first, v);
    ++j;
  }
  return r;
}

/// proves_nonneg_impl(e, env, 4) on linear forms.  The endpoint forms and
/// the global_ok verdict of each symbol are computed once per prover, so
/// one prover serves every claim under one environment.
class LinearProver {
 public:
  explicit LinearProver(const Env& env) : env_(env) {}

  /// The verdict on `e`, or nullopt when the Expr path must decide.
  std::optional<bool> nonneg(Linear e) {
    for (int round = 0; round < 8; ++round) {
      std::optional<bool> done = settled(e, 3);
      if (!done || *done) return done;
      bool changed = false;
      for (size_t t = 0; t < e.terms.size() && !changed; ++t) {
        auto [name, c] = e.terms[t];
        const Symbol& s = symbol(name);
        if (!s.bound) continue;
        const Endpoint& ep = c > 0 ? s.lo : s.hi;
        if (!ep.present) continue;
        if (!ep.form) return std::nullopt;
        if (ep.form->mentions(name)) continue;
        e.terms.erase(e.terms.begin() + t);
        std::optional<Linear> next = combine(std::move(e), c, ep.form, 0);
        if (!next) return std::nullopt;
        e = std::move(*next);
        changed = true;
      }
      if (!changed) break;
    }
    return settled(e, 3);
  }

 private:
  struct Endpoint {
    bool present = false;
    std::optional<Linear> form;  // nullopt: not affine
  };
  struct Symbol {
    std::string name;
    bool bound = false;  // has an environment entry
    Endpoint lo, hi;
    // symbol_ok by depth: -1 not computed, 0 false, 1 true, 2 fall back.
    std::array<int8_t, 4> ok{-1, -1, -1, -1};
  };

  Symbol& symbol(std::string_view name) {
    for (Symbol& s : syms_)
      if (s.name == name) return s;
    Symbol& s = syms_.emplace_back();
    s.name = name;
    auto it = env_.find(s.name);
    if (it == env_.end()) return s;
    s.bound = true;
    auto endpoint = [](const std::optional<Expr>& x) {
      Endpoint ep;
      ep.present = x.has_value();
      if (x) ep.form = linear_of(*x);
      return ep;
    };
    s.lo = endpoint(it->second.lo);
    s.hi = endpoint(it->second.hi);
    return s;
  }

  /// Expr::provably_nonnegative, summed in the Expr's term order.
  static std::optional<bool> bounded_below(const Linear& e) {
    int64_t lo = 0;
    for (const auto& t : e.terms) {
      if (t.second < 0) return false;
      if (__builtin_add_overflow(lo, t.second, &lo)) return std::nullopt;
    }
    if (__builtin_add_overflow(lo, e.k, &lo)) return std::nullopt;
    return lo >= 0;
  }

  /// global_ok(e, env, depth) && e.provably_nonnegative().
  std::optional<bool> settled(const Linear& e, int depth) {
    std::optional<bool> below = bounded_below(e);
    if (below && !*below) return false;
    for (const auto& t : e.terms) {
      std::optional<bool> ok = symbol_ok(symbol(t.first), depth);
      if (ok != true) return ok;
    }
    return below;
  }

  /// global_ok's test of one symbol: no environment entry, or a lower
  /// bound lo such that lo - 1 passes global_ok at depth - 1 and is
  /// provably nonnegative.
  std::optional<bool> symbol_ok(Symbol& s, int depth) {
    if (!s.bound) return true;
    if (depth <= 0 || !s.lo.present) return false;
    int8_t& memo = s.ok[depth];
    if (memo < 0) {
      std::optional<bool> r;
      if (s.lo.form) {
        Linear lom1 = *s.lo.form;
        lom1.k -= 1;
        r = settled(lom1, depth - 1);
      }
      memo = r ? *r : 2;
    }
    if (memo == 2) return std::nullopt;
    return memo == 1;
  }

  const Env& env_;
  std::deque<Symbol> syms_;  // stable references across lookups
};

}  // namespace

namespace detail {

// A claim whose arithmetic leaves int64 (the symbolic engine throws on
// the overflow) is not proven.
bool proves_nonneg_expr(const Expr& e, const Env& env) {
  try {
    return proves_nonneg_impl(e, env, 4);
  } catch (const dace::Error&) {
    return false;
  }
}

std::optional<bool> proves_nonneg_linear(const Expr& e, const Env& env) {
  std::optional<Linear> f = linear_of(e);
  if (!f) return std::nullopt;
  return LinearProver(env).nonneg(std::move(*f));
}

}  // namespace detail

bool proves_nonneg(const Expr& e, const Env& env) {
  if (std::optional<bool> v = detail::proves_nonneg_linear(e, env)) return *v;
  return detail::proves_nonneg_expr(e, env);
}

std::optional<bool> prove_le(const Expr& a, const Expr& b, const Env& env) {
  if (proves_nonneg(b - a, env)) return true;
  if (proves_nonneg(a - b - Expr(1), env)) return false;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Interval evaluation
// ---------------------------------------------------------------------------

namespace {

Interval iv_add(const Interval& a, const Interval& b) {
  Interval r;
  if (a.lo && b.lo) r.lo = *a.lo + *b.lo;
  if (a.hi && b.hi) r.hi = *a.hi + *b.hi;
  return r;
}

Interval iv_mul(const Interval& a, const Interval& b, const Env& env) {
  // Constant factor: scale (flip endpoints for a negative factor).
  auto scale = [](const Interval& x, int64_t c) {
    Interval r;
    if (c == 0) return Interval::exact(Expr(0));
    if (c > 0) {
      if (x.lo) r.lo = Expr(c) * *x.lo;
      if (x.hi) r.hi = Expr(c) * *x.hi;
    } else {
      if (x.hi) r.lo = Expr(c) * *x.hi;
      if (x.lo) r.hi = Expr(c) * *x.lo;
    }
    return r;
  };
  auto exact_const = [](const Interval& x) -> std::optional<int64_t> {
    if (x.lo && x.hi && x.lo->is_constant() && x.lo->equals(*x.hi))
      return x.lo->constant();
    return std::nullopt;
  };
  if (auto c = exact_const(a)) return scale(b, *c);
  if (auto c = exact_const(b)) return scale(a, *c);
  // Both provably nonnegative: product of lower/upper bounds.
  if (a.lo && b.lo && proves_nonneg(*a.lo, env) && proves_nonneg(*b.lo, env)) {
    Interval r;
    r.lo = *a.lo * *b.lo;
    if (a.hi && b.hi) r.hi = *a.hi * *b.hi;
    return r;
  }
  return Interval::top();
}

}  // namespace

Interval eval_interval(const Expr& e, const Env& env) {
  switch (e.kind()) {
    case sym::ExprKind::Const:
      return Interval::exact(e);
    case sym::ExprKind::Symbol: {
      auto it = env.find(e.symbol_name());
      if (it != env.end()) return it->second;
      return Interval::at_least(Expr(1));  // global size convention
    }
    case sym::ExprKind::Add: {
      Interval acc = Interval::exact(Expr(0));
      for (const auto& op : e.operands())
        acc = iv_add(acc, eval_interval(op, env));
      return acc;
    }
    case sym::ExprKind::Mul: {
      Interval acc = Interval::exact(Expr(1));
      for (const auto& op : e.operands())
        acc = iv_mul(acc, eval_interval(op, env), env);
      return acc;
    }
    case sym::ExprKind::FloorDiv: {
      auto ops = e.operands();
      Interval a = eval_interval(ops[0], env);
      Interval b = eval_interval(ops[1], env);
      if (a.lo && b.lo && proves_nonneg(*a.lo, env) &&
          proves_nonneg(*b.lo - Expr(1), env)) {
        Interval r;
        r.lo = Expr(0);
        if (a.hi) r.hi = sym::floordiv(*a.hi, *b.lo);
        return r;
      }
      return Interval::top();
    }
    case sym::ExprKind::Mod: {
      // Python-style: for a positive divisor the result is in [0, b-1]
      // regardless of the dividend's sign.
      Interval b = eval_interval(e.operands()[1], env);
      if (b.lo && proves_nonneg(*b.lo - Expr(1), env)) {
        Interval r;
        r.lo = Expr(0);
        if (b.hi) r.hi = *b.hi - Expr(1);
        return r;
      }
      return Interval::top();
    }
    case sym::ExprKind::Min: {
      auto ops = e.operands();
      Interval a = eval_interval(ops[0], env);
      Interval b = eval_interval(ops[1], env);
      Interval r;
      if (a.lo && b.lo) r.lo = sym::min(*a.lo, *b.lo);
      if (a.hi && b.hi) r.hi = sym::min(*a.hi, *b.hi);
      else if (a.hi) r.hi = a.hi;
      else if (b.hi) r.hi = b.hi;
      return r;
    }
    case sym::ExprKind::Max: {
      auto ops = e.operands();
      Interval a = eval_interval(ops[0], env);
      Interval b = eval_interval(ops[1], env);
      Interval r;
      if (a.hi && b.hi) r.hi = sym::max(*a.hi, *b.hi);
      if (a.lo && b.lo) r.lo = sym::max(*a.lo, *b.lo);
      else if (a.lo) r.lo = a.lo;
      else if (b.lo) r.lo = b.lo;
      return r;
    }
  }
  return Interval::top();
}

// ---------------------------------------------------------------------------
// Subset verdicts
// ---------------------------------------------------------------------------

namespace {

/// subset_in_range under `env`, whose linear prover is `lp`.  Each claim
/// is built as a linear form from begin, last and shape; a claim whose
/// form is missing or undecided goes to the Expr path.
Verdict in_range(const Subset& subset, const std::vector<Expr>& shape,
                 const Env& env, LinearProver& lp) {
  if (subset.dims() != shape.size()) return Verdict::Unknown;
  // `form`, when set, is the linear form of `expr()`.
  auto holds = [&](std::optional<Linear> form, auto expr) {
    if (form) {
      if (std::optional<bool> v = lp.nonneg(std::move(*form))) return *v;
    }
    return detail::proves_nonneg_expr(expr(), env);
  };
  const std::optional<Linear> zero = Linear{};
  bool all_ok = true;
  for (size_t d = 0; d < shape.size(); ++d) {
    const Range& r = subset.range(d);
    // last_index: end - 1 at unit step, read without Expr arithmetic.
    const bool unit = r.step.is_one();
    const Expr last_expr = unit ? r.end : last_index(r);
    std::optional<Linear> begin = linear_of(r.begin);
    std::optional<Linear> size = linear_of(shape[d]);
    std::optional<Linear> last = combine(zero, 1, linear_of(last_expr),
                                         unit ? -1 : 0);
    // Provable violation: begin <= -1 or last >= shape for every
    // admitted valuation.
    if (holds(combine(zero, -1, begin, -1),
              [&] { return Expr(0) - r.begin - Expr(1); }) ||
        holds(combine(last, -1, size, 0),
              [&] { return last_index(r) - shape[d]; })) {
      return Verdict::Refuted;
    }
    if (!holds(begin, [&] { return r.begin; }) ||
        !holds(combine(size, -1, last, -1),
               [&] { return shape[d] - Expr(1) - last_index(r); })) {
      all_ok = false;
    }
  }
  return all_ok ? Verdict::Proven : Verdict::Unknown;
}

}  // namespace

Verdict subset_in_range(const Subset& subset,
                        const std::vector<Expr>& shape, const Env& env) {
  LinearProver lp(env);
  return in_range(subset, shape, env, lp);
}

std::optional<bool> proves_disjoint(const Subset& a, const Subset& b,
                                    const Env& env) {
  if (auto d = Subset::disjoint(a, b)) return d;
  if (a.dims() != b.dims()) return std::nullopt;
  for (size_t d = 0; d < a.dims(); ++d) {
    Expr la = last_index(a.range(d));
    Expr lb = last_index(b.range(d));
    // Separated in this dimension: a entirely before b or vice versa.
    if (proves_nonneg(b.range(d).begin - la - Expr(1), env)) return true;
    if (proves_nonneg(a.range(d).begin - lb - Expr(1), env)) return true;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Symbol-range fixpoint
// ---------------------------------------------------------------------------

namespace {

Interval lookup(const Env& env, const std::string& name,
                const std::set<std::string>& assigned) {
  auto it = env.find(name);
  if (it != env.end()) return it->second;
  if (assigned.count(name)) return Interval::top();
  return Interval::at_least(Expr(1));
}

void tighten_lo(Interval& I, const Expr& e) {
  if (!I.lo) {
    I.lo = e;
  } else if ((e - *I.lo).provably_nonnegative()) {
    I.lo = e;  // e is the larger (tighter) lower bound
  }
}

void tighten_hi(Interval& I, const Expr& e) {
  if (!I.hi) {
    I.hi = e;
  } else if ((*I.hi - e).provably_nonnegative()) {
    I.hi = e;  // e is the smaller (tighter) upper bound
  }
}

CodeOp flip_cmp(CodeOp op) {
  switch (op) {
    case CodeOp::Lt: return CodeOp::Gt;
    case CodeOp::Le: return CodeOp::Ge;
    case CodeOp::Gt: return CodeOp::Lt;
    case CodeOp::Ge: return CodeOp::Le;
    default: return op;
  }
}

void refine_sym(Env& env, const std::string& name, CodeOp op, const Expr& rhs,
                const std::set<std::string>& assigned) {
  if (rhs.free_symbols().count(name)) return;
  Interval I = lookup(env, name, assigned);
  switch (op) {
    case CodeOp::Lt: tighten_hi(I, rhs - Expr(1)); break;
    case CodeOp::Le: tighten_hi(I, rhs); break;
    case CodeOp::Gt: tighten_lo(I, rhs + Expr(1)); break;
    case CodeOp::Ge: tighten_lo(I, rhs); break;
    case CodeOp::Eq:
      tighten_lo(I, rhs);
      tighten_hi(I, rhs);
      break;
    default: return;
  }
  env[name] = I;
}

/// Refine `env` with the facts a true condition implies (conjunctions
/// and comparisons with a symbol on one side).
void refine_condition(Env& env, const CodeExpr& c,
                      const std::set<std::string>& assigned) {
  if (!c.valid()) return;
  switch (c.op()) {
    case CodeOp::And:
      refine_condition(env, c.args()[0], assigned);
      refine_condition(env, c.args()[1], assigned);
      return;
    case CodeOp::Lt:
    case CodeOp::Le:
    case CodeOp::Gt:
    case CodeOp::Ge:
    case CodeOp::Eq: {
      const CodeExpr& L = c.args()[0];
      const CodeExpr& R = c.args()[1];
      if (L.op() == CodeOp::Sym) {
        if (auto rhs = ir::code_to_sym(R))
          refine_sym(env, L.name(), c.op(), *rhs, assigned);
      }
      if (R.op() == CodeOp::Sym) {
        if (auto lhs = ir::code_to_sym(L))
          refine_sym(env, R.name(), flip_cmp(c.op()), *lhs, assigned);
      }
      return;
    }
    default:
      return;
  }
}

Env join_env(const Env& a, const Env& b, const std::set<std::string>& assigned) {
  Env out;
  std::set<std::string> keys;
  for (const auto& [k, v] : a) keys.insert(k);
  for (const auto& [k, v] : b) keys.insert(k);
  for (const auto& k : keys)
    out[k] = join(lookup(a, k, assigned), lookup(b, k, assigned));
  return out;
}

bool env_equals(const Env& a, const Env& b) {
  if (a.size() != b.size()) return false;
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    if (ita->first != itb->first || !ita->second.equals(itb->second))
      return false;
  }
  return true;
}

}  // namespace

SymbolRanges SymbolRanges::compute(const ir::SDFG& sdfg) {
  OBS_SPAN("analysis", "absint.ranges");
  SymbolRanges R;
  const auto& edges = sdfg.interstate_edges();
  for (const auto& e : edges)
    for (const auto& [k, v] : e.assignments) R.assigned_.insert(k);
  for (const auto& s : R.assigned_) R.fallback_[s] = Interval::top();

  int start = sdfg.start_state();
  if (!sdfg.state_alive(start)) return R;
  R.envs_[start] = R.fallback_;

  // Transfer function of one interstate edge: condition refinement, then
  // simultaneous assignments evaluated in the pre-assignment env.
  auto transfer = [&](const Env& src_env, const ir::InterstateEdge& e) {
    Env out = src_env;
    refine_condition(out, e.condition, R.assigned_);
    std::vector<std::pair<std::string, Interval>> updates;
    for (const auto& [k, rhs] : e.assignments)
      updates.emplace_back(k, eval_interval(rhs, out));
    for (auto& [k, I] : updates) out[k] = std::move(I);
    return out;
  };

  constexpr int kWidenDelay = 3;
  std::map<int, int> visits;
  std::deque<int> worklist{start};
  std::set<int> queued{start};
  int budget = 8 * (sdfg.num_states() + 1) * ((int)edges.size() + 1) + 64;
  while (!worklist.empty() && budget-- > 0) {
    int s = worklist.front();
    worklist.pop_front();
    queued.erase(s);
    Env env = R.envs_[s];
    for (size_t ei : sdfg.out_interstate(s)) {
      const ir::InterstateEdge& e = edges[ei];
      Env out = transfer(env, e);

      auto it = R.envs_.find(e.dst);
      bool changed;
      if (it == R.envs_.end()) {
        R.envs_[e.dst] = std::move(out);
        changed = true;
      } else {
        Env merged = join_env(it->second, out, R.assigned_);
        if (++visits[e.dst] > kWidenDelay) {
          Env widened;
          for (const auto& [k, I] : merged)
            widened[k] = widen(lookup(it->second, k, R.assigned_), I);
          merged = std::move(widened);
        }
        changed = !env_equals(merged, it->second);
        if (changed) it->second = std::move(merged);
      }
      if (changed && !queued.count(e.dst)) {
        worklist.push_back(e.dst);
        queued.insert(e.dst);
      }
    }
  }

  // Narrowing: widening at loop heads poisons downstream states (the
  // refined [0, N-1] body interval cannot re-join a stale pre-widening
  // iterate).  Recompute each reachable state's env by REPLACING it with
  // the join over its in-edge transfers; predecessors hold sound
  // over-approximations, so the recomputed env is sound too, and any
  // fixed number of passes only sharpens it.
  for (int pass = 0; pass < 2; ++pass) {
    for (int s : sdfg.state_order()) {
      if (s == start) continue;
      std::optional<Env> acc;
      for (size_t ei : sdfg.in_interstate(s)) {
        const ir::InterstateEdge& e = edges[ei];
        auto src_it = R.envs_.find(e.src);
        if (src_it == R.envs_.end()) continue;  // unreachable predecessor
        Env out = transfer(src_it->second, e);
        acc = acc ? join_env(*acc, out, R.assigned_) : std::move(out);
      }
      if (acc) R.envs_[s] = std::move(*acc);
    }
  }
  return R;
}

const Env& SymbolRanges::at(int state_id) const {
  auto it = envs_.find(state_id);
  return it != envs_.end() ? it->second : fallback_;
}

std::string SymbolRanges::to_string() const {
  std::ostringstream os;
  for (const auto& [sid, env] : envs_) {
    os << "state " << sid << ":";
    for (const auto& [k, I] : env) os << " " << k << "=" << I.to_string();
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Scope environments
// ---------------------------------------------------------------------------

namespace {

/// Innermost map entry whose scope contains the edge, or -1.
int edge_scope(const ir::State& st, const ir::Edge& e) {
  if (st.node_as<ir::MapEntry>(e.src)) return e.src;
  return st.scope_of(e.src);
}

/// Map entries enclosing `scope` (inclusive), outermost first.
std::vector<const ir::MapEntry*> scope_chain(const ir::State& st, int scope) {
  std::vector<const ir::MapEntry*> chain;
  while (scope >= 0) {
    chain.push_back(st.node_as<const ir::MapEntry>(scope));
    scope = st.scope_of(scope);
  }
  return {chain.rbegin(), chain.rend()};
}

/// `state_env` extended with the iteration intervals of the parameters
/// of every map enclosing `scope` (inclusive).
Env scope_env(const ir::State& st, int scope, const Env& state_env) {
  Env env = state_env;
  for (const auto* me : scope_chain(st, scope)) {
    if (!me) continue;
    for (size_t i = 0; i < me->params.size() && i < me->range.dims(); ++i) {
      const Range& r = me->range.range(i);
      env[me->params[i]] = Interval{r.begin, last_index(r)};
    }
  }
  return env;
}

}  // namespace

Env edge_env(const ir::State& st, const ir::Edge& e, const Env& state_env) {
  return scope_env(st, edge_scope(st, e), state_env);
}

// ---------------------------------------------------------------------------
// Stride classification
// ---------------------------------------------------------------------------

const char* stride_class_name(StrideClass c) {
  switch (c) {
    case StrideClass::Zero: return "zero";
    case StrideClass::Unit: return "unit";
    case StrideClass::Constant: return "constant";
    case StrideClass::Affine: return "affine";
    default: return "unknown";
  }
}

StrideInfo stride_of(const Expr& index, const std::string& param) {
  if (!index.free_symbols().count(param)) return {StrideClass::Zero, 0};
  auto shifted = try_subs(index, {{param, Expr::symbol(param) + Expr(1)}});
  if (!shifted) return {StrideClass::Unknown, std::nullopt};
  Expr d = *shifted - index;
  if (d.free_symbols().count(param)) return {StrideClass::Unknown, std::nullopt};
  if (d.is_constant()) {
    int64_t c = d.constant();
    if (c == 0) return {StrideClass::Zero, 0};
    if (c == 1) return {StrideClass::Unit, 1};
    return {StrideClass::Constant, c};
  }
  return {StrideClass::Affine, std::nullopt};
}

StrideInfo flat_stride(const std::vector<Expr>& shape, const Subset& subset,
                       const std::string& param) {
  if (subset.dims() != shape.size())
    return {StrideClass::Unknown, std::nullopt};
  if (shape.empty()) return {StrideClass::Zero, 0};
  // Row-major strides, then the flattened begin address.
  std::vector<Expr> strides(shape.size(), Expr(1));
  for (size_t d = shape.size(); d-- > 1;) strides[d - 1] = strides[d] * shape[d];
  Expr flat(0);
  for (size_t d = 0; d < shape.size(); ++d)
    flat = flat + subset.range(d).begin * strides[d];
  return stride_of(flat, param);
}

// ---------------------------------------------------------------------------
// Map facts for codegen
// ---------------------------------------------------------------------------

namespace {

/// True if the edge lies inside the scope of map entry `entry`, whose
/// nodes State::scope_nodes returned (sorted) as `nodes`: edges leaving
/// the entry's inner side or a node of the scope, into the exit too.
bool edge_inside(const ir::Edge& e, int entry, const std::vector<int>& nodes) {
  return e.src == entry ||
         std::binary_search(nodes.begin(), nodes.end(), e.src);
}

/// The environment of one scope and the linear prover over it.
struct ScopeEnv {
  explicit ScopeEnv(Env e) : env(std::move(e)), prover(env) {}
  Env env;
  LinearProver prover;
};

}  // namespace

MapFacts analyze_map(const ir::SDFG& sdfg, const ir::State& st, int entry,
                     const Env& state_env) {
  OBS_SPAN("analysis", "absint.map");
  MapFacts f;
  const auto* me = st.node_as<const ir::MapEntry>(entry);
  if (!me || me->params.empty()) return f;

  // The scope's nodes and those of each nested scope.  An edge inside
  // has its source as its own scope when that is a map entry, else the
  // smallest scope holding the source.
  const std::vector<int> nodes = st.scope_nodes(entry);
  std::vector<std::pair<int, std::vector<int>>> nested;
  for (int nid : nodes) {
    if (st.node_as<const ir::MapEntry>(nid))
      nested.emplace_back(nid, st.scope_nodes(nid));
  }
  auto scope_of_edge = [&](const ir::Edge& e) {
    if (!edge_inside(e, entry, nodes)) return -1;
    if (st.node_as<const ir::MapEntry>(e.src)) return e.src;
    int best = entry;
    size_t best_size = nodes.size();
    for (const auto& [m, inner] : nested) {
      if (inner.size() < best_size &&
          std::binary_search(inner.begin(), inner.end(), e.src)) {
        best = m;
        best_size = inner.size();
      }
    }
    return best;
  };
  std::map<int, ScopeEnv> envs;
  const bool nested_maps = !nested.empty();
  bool all_ok = true;

  // Per-container load/store footprints adjacent to compute nodes, for
  // the vectorization hazard check.
  std::map<std::string, std::vector<Subset>> loads, stores;
  bool any_wcr = false;
  bool contiguous = true;
  const std::string& inner = me->params.back();

  for (size_t ei = 0; ei < st.edges().size(); ++ei) {
    const ir::Edge& e = st.edges()[ei];
    int scope = scope_of_edge(e);
    if (scope < 0 || e.memlet.empty()) continue;
    if (!sdfg.has_array(e.memlet.data)) {
      all_ok = false;
      continue;
    }
    const ir::DataDesc& d = sdfg.array(e.memlet.data);
    if (d.is_stream) {
      all_ok = false;
      continue;
    }
    if (d.rank() == 0) {
      f.inrange_edges.insert(ei);  // scalars are trivially in range
      continue;
    }
    if (e.memlet.dynamic || e.memlet.subset.dims() != d.rank()) {
      all_ok = false;
      continue;
    }
    auto it = envs.find(scope);
    if (it == envs.end())
      it = envs.try_emplace(scope, scope_env(st, scope, state_env)).first;
    if (in_range(e.memlet.subset, d.shape, it->second.env,
                 it->second.prover) == Verdict::Proven) {
      f.inrange_edges.insert(ei);
    } else {
      all_ok = false;
    }
    // Stride facts only matter for tasklet/library-adjacent memlets
    // (these become the loads and stores of the generated loop body).
    const ir::Node* src = st.alive(e.src) ? st.node(e.src) : nullptr;
    const ir::Node* dst = st.alive(e.dst) ? st.node(e.dst) : nullptr;
    bool is_load = dst && (dst->kind == ir::NodeKind::Tasklet ||
                           dst->kind == ir::NodeKind::Library);
    bool is_store = src && (src->kind == ir::NodeKind::Tasklet ||
                            src->kind == ir::NodeKind::Library);
    if (!is_load && !is_store) continue;
    if (e.memlet.wcr != ir::WCR::None) any_wcr = true;
    StrideInfo si = flat_stride(d.shape, e.memlet.subset, inner);
    if (is_store) {
      stores[e.memlet.data].push_back(e.memlet.subset);
      if (si.cls != StrideClass::Unit) contiguous = false;
    } else {
      loads[e.memlet.data].push_back(e.memlet.subset);
      if (si.cls != StrideClass::Unit && si.cls != StrideClass::Zero)
        contiguous = false;
    }
  }
  f.all_in_range = all_ok;
  if (nested_maps) return f;  // only innermost scopes get loop facts
  f.innermost_contiguous = contiguous && !stores.empty();

  // Vectorizable: contiguous, no WCR, and containers that are both read
  // and written are accessed at identical addresses (distance-0 flow
  // dependences only).
  bool rw_same = true;
  for (const auto& [name, ws] : stores) {
    auto it = loads.find(name);
    if (it == loads.end()) continue;
    for (const auto& r : it->second)
      for (const auto& w : ws)
        if (!r.equals(w)) rw_same = false;
  }
  f.vectorizable = f.innermost_contiguous && !any_wcr && rw_same;
  return f;
}

Mode mode() {
  return env::choice("DACE_ABSINT", Mode::On,
                     {{"0", Mode::Off},
                      {"off", Mode::Off},
                      {"1", Mode::On},
                      {"all", Mode::All}});
}

// ---------------------------------------------------------------------------
// Lint (A201..A204)
// ---------------------------------------------------------------------------

namespace {

/// Transients the element liveness tracks (mirrors defuse.cpp).
bool tracked(const ir::DataDesc& d) {
  return d.transient && !d.is_stream && d.lifetime == ir::Lifetime::Scope;
}

/// Widen `s` over var in [lo, hi] (inclusive): monotonicity decided by
/// the sign of the affine coefficient under `env`; nullopt when a bound
/// is not affine or not provably monotone.  The result is a unit-step
/// hull, a sound over-approximation of the union over all var values.
std::optional<Subset> widen_subset(const Subset& s, const std::string& var,
                                   const Expr& lo, const Expr& hi,
                                   const Env& env) {
  std::vector<Range> rs;
  for (size_t d = 0; d < s.dims(); ++d) {
    const Range& r = s.range(d);
    if (r.step.free_symbols().count(var)) return std::nullopt;
    bool bhas = r.begin.free_symbols().count(var) > 0;
    bool ehas = r.end.free_symbols().count(var) > 0;
    if (!bhas && !ehas) {
      rs.push_back(r);
      continue;
    }
    auto coef_of = [&](const Expr& e) -> std::optional<Expr> {
      auto shifted = try_subs(e, {{var, Expr::symbol(var) + Expr(1)}});
      if (!shifted) return std::nullopt;
      Expr c = *shifted - e;
      if (c.free_symbols().count(var)) return std::nullopt;  // not affine
      return c;
    };
    auto cb = coef_of(r.begin);
    auto ce = coef_of(r.end);
    if (!cb || !ce) return std::nullopt;
    sym::SubstMap L{{var, lo}}, H{{var, hi}};
    auto bl = try_subs(r.begin, L), bh = try_subs(r.begin, H);
    auto el = try_subs(r.end, L), eh = try_subs(r.end, H);
    if (!bl || !bh || !el || !eh) return std::nullopt;
    if (proves_nonneg(*cb, env) && proves_nonneg(*ce, env)) {
      rs.emplace_back(*bl, *eh);
    } else if (proves_nonneg(Expr(0) - *cb, env) &&
               proves_nonneg(Expr(0) - *ce, env)) {
      rs.emplace_back(*bh, *el);
    } else {
      return std::nullopt;
    }
  }
  return Subset(std::move(rs));
}

/// One access (read or write) of a container, reduced to state level:
/// the memlet subset widened over every enclosing map parameter and
/// every interstate-assigned symbol (using its global interval), so two
/// footprints from different states are comparable.  nullopt = unknown.
struct StateAccess {
  int state = -1;
  size_t edge = SIZE_MAX;
  int access_node = -1;  // the access node touched
  std::optional<Subset> foot;
};

struct ContainerAccesses {
  std::vector<StateAccess> reads, writes;
};

/// Global interval of every interstate-assigned symbol: join over all
/// state environments.
Env global_assigned_env(const ir::SDFG& sdfg, const SymbolRanges& ranges) {
  Env out;
  for (const auto& s : ranges.assigned_symbols()) {
    bool first = true;
    Interval acc;
    for (int sid : sdfg.state_ids()) {
      Interval I = lookup(ranges.at(sid), s, ranges.assigned_symbols());
      acc = first ? I : join(acc, I);
      first = false;
    }
    out[s] = acc;
  }
  return out;
}

std::optional<Subset> state_footprint(const ir::State& st, const ir::Edge& e,
                                      const Env& state_env,
                                      const Env& global_env,
                                      const std::set<std::string>& assigned) {
  if (e.memlet.dynamic) return std::nullopt;
  Subset s = e.memlet.subset;
  Env env = edge_env(st, e, state_env);
  // Widen over map parameters, innermost first (outer ranges may appear
  // in inner bounds, so inner parameters must be eliminated first).
  std::vector<const ir::MapEntry*> chain = scope_chain(st, edge_scope(st, e));
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const ir::MapEntry* me = *it;
    if (!me) return std::nullopt;
    for (size_t i = me->params.size(); i-- > 0;) {
      if (i >= me->range.dims()) return std::nullopt;
      const Range& r = me->range.range(i);
      auto w = widen_subset(s, me->params[i], r.begin, last_index(r), env);
      if (!w) return std::nullopt;
      s = std::move(*w);
    }
  }
  // Widen out interstate-assigned symbols: their value at this access
  // may differ from their value at any other state, so only the global
  // interval is sound for cross-state comparison.
  for (int guard = 0; guard < 16; ++guard) {
    std::set<std::string> remaining;
    for (const auto& r : s.ranges()) {
      r.begin.free_symbols(remaining);
      r.end.free_symbols(remaining);
      r.step.free_symbols(remaining);
    }
    std::string next;
    for (const auto& name : remaining) {
      if (assigned.count(name)) {
        next = name;
        break;
      }
    }
    if (next.empty()) return s;
    auto it = global_env.find(next);
    if (it == global_env.end() || !it->second.lo || !it->second.hi)
      return std::nullopt;
    auto w = widen_subset(s, next, *it->second.lo, *it->second.hi, global_env);
    if (!w) return std::nullopt;
    s = std::move(*w);
  }
  return std::nullopt;  // widening did not converge
}

/// Forward-reachability closure over the interstate CFG: after[s] is the
/// set of states reachable from s by one or more edges (s itself only
/// when it lies on a cycle).
std::map<int, std::set<int>> reachable_after(const ir::SDFG& sdfg) {
  std::map<int, std::vector<int>> succ;
  for (const auto& e : sdfg.interstate_edges()) succ[e.src].push_back(e.dst);
  std::map<int, std::set<int>> after;
  for (int sid : sdfg.state_ids()) {
    std::deque<int> q(succ[sid].begin(), succ[sid].end());
    auto& out = after[sid];
    while (!q.empty()) {
      int t = q.front();
      q.pop_front();
      if (!out.insert(t).second) continue;
      for (int n : succ[t]) q.push_back(n);
    }
  }
  return after;
}

Diagnostic make_diag(const ir::SDFG& sdfg, const char* analysis,
                     Severity sev, int state, int node,
                     const std::string& container, const std::string& memlet,
                     std::string message, std::string hint) {
  Diagnostic d;
  d.severity = sev;
  d.analysis = analysis;
  d.sdfg = sdfg.name();
  d.state = state;
  d.node = node;
  d.container = container;
  d.memlet = memlet;
  d.message = std::move(message);
  d.hint = std::move(hint);
  return d;
}

/// Existence check for A201.  subset_in_range refutes only when EVERY
/// iteration violates; a map that walks out of bounds at its last
/// iteration (A[i+1] over [0, N)) is Unknown under the for-all reading.
/// Map ranges are exact, so their endpoints are attained whenever the
/// range is provably non-empty — substituting the in-scope params at
/// their endpoint corners and proving a violation there proves one
/// actually happens.
bool corner_violation(const ir::State& st, const ir::Edge& e,
                      const ir::DataDesc& desc, const Env& state_env) {
  std::vector<std::pair<std::string, std::array<Expr, 2>>> params;
  Env env = state_env;
  for (const auto* me : scope_chain(st, edge_scope(st, e))) {
    if (!me) continue;
    for (size_t i = 0; i < me->params.size() && i < me->range.dims(); ++i) {
      const Range& r = me->range.range(i);
      Expr last = last_index(r);
      // Endpoints are attained only if the range is non-empty.
      if (!proves_nonneg(last - r.begin, env)) return false;
      params.push_back({me->params[i], {r.begin, last}});
      env[me->params[i]] = Interval{r.begin, last};
    }
  }
  if (params.size() > 4) return false;  // corner blow-up guard
  size_t corners = size_t{1} << params.size();
  for (size_t c = 0; c < corners; ++c) {
    std::map<std::string, Expr> sub;
    for (size_t p = 0; p < params.size(); ++p)
      sub.emplace(params[p].first, params[p].second[(c >> p) & 1]);
    for (size_t d = 0; d < desc.rank(); ++d) {
      const Range& r = e.memlet.subset.range(d);
      auto b = try_subs(r.begin, sub);
      auto l = try_subs(last_index(r), sub);
      if (!b || !l) continue;
      if (proves_nonneg(Expr(-1) - *b, env)) return true;  // begin <= -1
      if (proves_nonneg(*l - desc.shape[d], env)) return true;  // last >= shape
    }
  }
  return false;
}

/// A201: per-memlet range verdicts under the interval environment.
void lint_ranges(const ir::SDFG& sdfg, const SymbolRanges& ranges,
                 AnalysisReport& report) {
  OBS_SPAN("analysis", "absint.range-lint");
  for (int sid : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(sid);
    for (const auto& e : st.edges()) {
      const ir::Memlet& m = e.memlet;
      if (m.empty() || m.dynamic || !sdfg.has_array(m.data)) continue;
      const ir::DataDesc& desc = sdfg.array(m.data);
      if (desc.is_stream || desc.rank() == 0) continue;
      if (m.subset.dims() != desc.rank()) continue;
      Env env = edge_env(st, e, ranges.at(sid));
      Verdict v = subset_in_range(m.subset, desc.shape, env);
      if (v == Verdict::Proven) continue;
      bool refuted = v == Verdict::Refuted ||
                     corner_violation(st, e, desc, ranges.at(sid));
      report.add(make_diag(
          sdfg, "range", refuted ? Severity::Error : Severity::Warning, sid,
          e.dst, m.data, m.to_string(),
          refuted ? "access provably out of range under interval analysis"
                  : "cannot prove access in range under interval analysis",
          refuted ? "shrink the subset or the producing map/loop range"
                  : "add a symbol relation (loop bound or interstate "
                    "condition) that bounds the offending index"));
    }
  }
}

/// A204: non-contiguous innermost accesses inside parallel (hot) maps.
void lint_strides(const ir::SDFG& sdfg, AnalysisReport& report) {
  OBS_SPAN("analysis", "absint.stride-lint");
  for (int sid : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(sid);
    for (int nid : st.node_ids()) {
      const auto* me = st.node_as<const ir::MapEntry>(nid);
      if (!me || me->params.empty()) continue;
      // Innermost maps only (no nested map inside this scope).
      const std::vector<int> nodes = st.scope_nodes(nid);
      bool innermost = true;
      for (int inner : nodes)
        if (st.node_as<const ir::MapEntry>(inner)) innermost = false;
      if (!innermost) continue;
      // Hot: this map or any enclosing one has a parallel schedule.
      bool hot = false;
      for (const auto* c : scope_chain(st, nid))
        if (c && c->schedule != ir::Schedule::Sequential) hot = true;
      if (!hot) continue;
      const std::string& inner_param = me->params.back();
      for (const auto& e : st.edges()) {
        if (!edge_inside(e, nid, nodes) || e.memlet.empty()) continue;
        if (!sdfg.has_array(e.memlet.data)) continue;
        const ir::DataDesc& d = sdfg.array(e.memlet.data);
        if (d.is_stream || d.rank() == 0) continue;
        const ir::Node* src = st.alive(e.src) ? st.node(e.src) : nullptr;
        const ir::Node* dst = st.alive(e.dst) ? st.node(e.dst) : nullptr;
        bool compute = (src && (src->kind == ir::NodeKind::Tasklet ||
                                src->kind == ir::NodeKind::Library)) ||
                       (dst && (dst->kind == ir::NodeKind::Tasklet ||
                                dst->kind == ir::NodeKind::Library));
        if (!compute) continue;
        StrideInfo si = flat_stride(d.shape, e.memlet.subset, inner_param);
        if (si.cls == StrideClass::Unit || si.cls == StrideClass::Zero)
          continue;
        std::string detail = stride_class_name(si.cls);
        if (si.stride) detail += " (" + std::to_string(*si.stride) + ")";
        report.add(make_diag(
            sdfg, "stride", Severity::Warning, sid, e.dst, e.memlet.data,
            e.memlet.to_string(),
            "non-contiguous innermost access in a parallel map: " + detail +
                " stride in parameter '" + inner_param + "'",
            "interchange the map parameters or transpose the container so "
            "the innermost parameter walks the last dimension"));
      }
    }
  }
}

/// A202 dead element writes / A203 reads of never-written elements.
void lint_elements(const ir::SDFG& sdfg, const SymbolRanges& ranges,
                   AnalysisReport& report) {
  OBS_SPAN("analysis", "absint.liveness-lint");
  Env global_env = global_assigned_env(sdfg, ranges);
  const auto& assigned = ranges.assigned_symbols();

  std::map<std::string, ContainerAccesses> acc;
  for (int sid : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(sid);
    for (size_t ei = 0; ei < st.edges().size(); ++ei) {
      const ir::Edge& e = st.edges()[ei];
      if (e.memlet.empty()) continue;
      if (const auto* a = st.node_as<const ir::AccessNode>(e.src)) {
        if (a->data == e.memlet.data) {
          acc[a->data].reads.push_back(
              {sid, ei, e.src,
               state_footprint(st, e, ranges.at(sid), global_env, assigned)});
        }
      }
      if (const auto* a = st.node_as<const ir::AccessNode>(e.dst)) {
        if (a->data == e.memlet.data) {
          acc[a->data].writes.push_back(
              {sid, ei, e.dst,
               state_footprint(st, e, ranges.at(sid), global_env, assigned)});
        }
      }
    }
  }

  std::map<int, std::set<int>> after = reachable_after(sdfg);

  for (const auto& [name, ca] : acc) {
    if (!sdfg.has_array(name)) continue;
    const ir::DataDesc& desc = sdfg.array(name);
    if (!tracked(desc) || desc.rank() == 0) continue;

    // A203: a read none of whose predecessors' writes can touch it.
    for (const auto& r : ca.reads) {
      if (!r.foot) continue;
      const ir::State& st = sdfg.state(r.state);
      bool any_prior = false;
      bool all_disjoint = true;
      for (const auto& w : ca.writes) {
        bool prior = after.at(w.state).count(r.state) > 0;
        if (!prior && w.state == r.state) {
          // Same state: the write reaches this read only through the
          // dataflow graph.
          prior = w.access_node == r.access_node ||
                  st.has_path(w.access_node, r.access_node);
        }
        if (!prior) continue;
        any_prior = true;
        if (!w.foot) {
          all_disjoint = false;
          break;
        }
        auto dj = proves_disjoint(*r.foot, *w.foot, Env{});
        if (!dj || !*dj) {
          all_disjoint = false;
          break;
        }
      }
      // No prior write at all is the container-level A103 error; the
      // element-level finding is the subtler "writes exist, none covers".
      if (!any_prior || !all_disjoint) continue;
      const ir::Edge& e = st.edges()[r.edge];
      report.add(make_diag(
          sdfg, "uninit-elem", Severity::Error, r.state, r.access_node, name,
          e.memlet.to_string(),
          "read of transient elements no prior write touches (footprint " +
              r.foot->to_string() + ")",
          "write the elements before reading them or shrink the read"));
    }

    // A202: a write whose elements are provably never read afterwards.
    for (const auto& w : ca.writes) {
      if (!w.foot) continue;
      const ir::State& st = sdfg.state(w.state);
      // A read downstream in the same state keeps the write alive.
      bool live_in_state = false;
      for (const auto& r : ca.reads) {
        if (r.state != w.state) continue;
        if (r.access_node == w.access_node ||
            st.has_path(w.access_node, r.access_node)) {
          live_in_state = true;
          break;
        }
      }
      if (live_in_state) continue;
      bool in_cycle = after.at(w.state).count(w.state) > 0;
      bool dead = true;
      for (const auto& r : ca.reads) {
        bool later = after.at(w.state).count(r.state) > 0 ||
                     (in_cycle && r.state == w.state);
        if (!later) continue;
        if (!r.foot) {
          dead = false;
          break;
        }
        auto dj = proves_disjoint(*w.foot, *r.foot, Env{});
        if (!dj || !*dj) {
          dead = false;
          break;
        }
      }
      if (!dead) continue;
      const ir::Edge& e = st.edges()[w.edge];
      report.add(make_diag(
          sdfg, "deadwrite", Severity::Warning, w.state, w.access_node, name,
          e.memlet.to_string(),
          "dead write: transient elements (footprint " + w.foot->to_string() +
              ") are never read afterwards",
          "remove the producing computation or shrink the written subset"));
    }
  }
}

void lint_into(const ir::SDFG& sdfg, AnalysisReport& report) {
  SymbolRanges ranges = SymbolRanges::compute(sdfg);
  lint_ranges(sdfg, ranges, report);
  lint_strides(sdfg, report);
  lint_elements(sdfg, ranges, report);
  for (int sid : sdfg.state_ids()) {
    const ir::State& st = sdfg.state(sid);
    for (int nid : st.node_ids()) {
      if (const auto* nn = st.node_as<ir::NestedSDFGNode>(nid)) {
        if (nn->sdfg) lint_into(*nn->sdfg, report);
      }
    }
  }
}

}  // namespace

void lint(const ir::SDFG& sdfg, AnalysisReport& report) {
  OBS_SPAN("analysis", "absint");
  lint_into(sdfg, report);
}

}  // namespace dace::analysis::absint
