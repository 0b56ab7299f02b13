#include "symbolic/symbolic.hpp"

#include <gtest/gtest.h>

#include <random>

#include "symbolic/subset.hpp"

namespace dace::sym {
namespace {

TEST(Symbolic, ConstantsFold) {
  Expr e = Expr(2) + Expr(3) * Expr(4);
  EXPECT_TRUE(e.is_constant());
  EXPECT_EQ(e.constant(), 14);
}

TEST(Symbolic, PolynomialCanonicalization) {
  Expr N = S("N");
  Expr M = S("M");
  // (N + M)^2-style expansion through multiplication.
  Expr a = (N + M) * (N + M);
  Expr b = N * N + Expr(2) * N * M + M * M;
  EXPECT_TRUE(a.equals(b));
}

TEST(Symbolic, AdditionCommutes) {
  Expr N = S("N");
  Expr M = S("M");
  EXPECT_TRUE((N + M).equals(M + N));
  EXPECT_TRUE((N * M).equals(M * N));
}

TEST(Symbolic, SubtractionCancels) {
  Expr N = S("N");
  EXPECT_TRUE((N - N).is_zero());
  EXPECT_TRUE((N + Expr(1) - Expr(1)).equals(N));
}

TEST(Symbolic, Evaluation) {
  Expr N = S("N");
  Expr e = N * Expr(2) + Expr(5);
  EXPECT_EQ(e.eval({{"N", 10}}), 25);
  EXPECT_FALSE(e.try_eval({}).has_value());
  EXPECT_THROW(e.eval({}), Error);
}

TEST(Symbolic, FloorDivMod) {
  Expr N = S("N");
  Expr d = floordiv(N, Expr(4));
  EXPECT_EQ(d.eval({{"N", 10}}), 2);
  EXPECT_EQ(d.eval({{"N", -1}}), -1);  // Python-style floor division
  Expr m = mod(N, Expr(4));
  EXPECT_EQ(m.eval({{"N", 10}}), 2);
  EXPECT_EQ(m.eval({{"N", -1}}), 3);  // Python-style modulo
}

TEST(Symbolic, FloorDivModIdentities) {
  Expr N = S("N");
  EXPECT_TRUE(floordiv(N, Expr(1)).equals(N));
  EXPECT_TRUE(mod(N, Expr(1)).is_zero());
  EXPECT_EQ(floordiv(Expr(7), Expr(2)).constant(), 3);
  EXPECT_EQ(mod(Expr(7), Expr(2)).constant(), 1);
}

TEST(Symbolic, MinMax) {
  Expr N = S("N");
  EXPECT_TRUE(min(N, N).equals(N));
  EXPECT_EQ(min(Expr(3), Expr(5)).constant(), 3);
  EXPECT_EQ(max(Expr(3), Expr(5)).constant(), 5);
  Expr m = min(N, Expr(5));
  EXPECT_EQ(m.eval({{"N", 3}}), 3);
  EXPECT_EQ(m.eval({{"N", 9}}), 5);
}

TEST(Symbolic, Substitution) {
  Expr N = S("N");
  Expr M = S("M");
  Expr e = N * M + Expr(1);
  Expr sub = e.subs({{"N", M + Expr(2)}});
  EXPECT_TRUE(sub.equals(M * M + Expr(2) * M + Expr(1)));
  // Simultaneous substitution does not chain.
  Expr swap = (N + M).subs({{"N", M}, {"M", N}});
  EXPECT_TRUE(swap.equals(N + M));
}

TEST(Symbolic, FreeSymbols) {
  Expr e = S("N") * S("M") + floordiv(S("K"), Expr(2));
  auto fs = e.free_symbols();
  EXPECT_EQ(fs.size(), 3u);
  EXPECT_TRUE(fs.count("N"));
  EXPECT_TRUE(fs.count("M"));
  EXPECT_TRUE(fs.count("K"));
}

TEST(Symbolic, SignQueriesUnderPositivityAssumption) {
  Expr N = S("N");
  // Symbols are assumed >= 1.
  EXPECT_TRUE(N.provably_positive());
  EXPECT_TRUE((N - Expr(1)).provably_nonnegative());
  EXPECT_FALSE((N - Expr(2)).provably_nonnegative());  // unknown
  EXPECT_TRUE((Expr(0) - N).provably_nonpositive());
  EXPECT_TRUE((N * S("M")).provably_positive());
  EXPECT_FALSE((N - S("M")).provably_nonnegative());
  // mod is bounded by a constant divisor.
  EXPECT_TRUE((Expr(3) - mod(N, Expr(4))).provably_nonnegative());
  EXPECT_TRUE(mod(N, Expr(4)).provably_nonnegative());
}

TEST(Symbolic, CeilDiv) {
  Expr N = S("N");
  Expr c = ceildiv(N, Expr(4));
  EXPECT_EQ(c.eval({{"N", 8}}), 2);
  EXPECT_EQ(c.eval({{"N", 9}}), 3);
  EXPECT_EQ(c.eval({{"N", 1}}), 1);
}

TEST(Symbolic, ToString) {
  Expr N = S("N");
  EXPECT_EQ((N - Expr(1)).to_string(), "N - 1");
  EXPECT_EQ((N * Expr(2)).to_string(), "2*N");
  EXPECT_EQ(Expr(0).to_string(), "0");
}

TEST(Symbolic, OperandsExposeCanonicalChildren) {
  Expr e = S("N") + Expr(2) * S("M");
  ASSERT_EQ(e.kind(), ExprKind::Add);
  auto ops = e.operands();
  EXPECT_EQ(ops.size(), 2u);
}

TEST(Symbolic, CoefficientOverflowThrows) {
  const int64_t big = int64_t{1} << 62;
  EXPECT_THROW(Expr(big) * Expr(4), Error);
  EXPECT_THROW(Expr(INT64_MAX) + Expr(1), Error);
  EXPECT_THROW(Expr(INT64_MIN) - Expr(1), Error);
  EXPECT_THROW(Expr(big) * S("N") * Expr(4), Error);           // poly_mul
  EXPECT_THROW(Expr(big) * S("N") + Expr(big) * S("N"), Error);  // a sum
  EXPECT_EQ((Expr(big) * Expr(-2)).constant(), INT64_MIN);
  EXPECT_EQ((Expr(big) * S("N") - Expr(big) * S("N")).to_string(), "0");
}

// Property-style sweep: canonicalization must preserve evaluation.
class SymbolicEvalProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(SymbolicEvalProperty, CanonFormPreservesValue) {
  int64_t n = GetParam();
  Expr N = S("N");
  SymbolMap env{{"N", n}, {"M", 7}};
  Expr exprs[] = {
      (N + Expr(3)) * (N - Expr(3)),
      floordiv(N * N + Expr(5), N),
      mod(N * Expr(3) + Expr(1), Expr(7)),
      min(N, S("M")) + max(N, S("M")),
      ceildiv(N + S("M"), Expr(3)),
  };
  int64_t expected[] = {
      n * n - 9,
      (n * n + 5) / n,
      ((n * 3 + 1) % 7 + 7) % 7,
      std::min(n, int64_t{7}) + std::max(n, int64_t{7}),
      (n + 7 + 2) / 3,
  };
  for (size_t i = 0; i < std::size(exprs); ++i) {
    EXPECT_EQ(exprs[i].eval(env), expected[i]) << exprs[i].to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Values, SymbolicEvalProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 100));

// Seeded random expressions: small polynomials over N, M, K with
// FloorDiv/Mod/Min/Max atoms.  Divisors are positive constants or
// max(e, 1), so every valuation evaluates without a division by zero.
class RandomExpr {
 public:
  explicit RandomExpr(uint64_t seed) : rng_(seed) {}

  int64_t pick(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }

  Expr leaf() {
    static const char* kSyms[] = {"N", "M", "K"};
    if (pick(0, 2) == 0) return Expr(pick(-4, 4));
    return S(kSyms[pick(0, 2)]);
  }

  Expr divisor(int depth) {
    if (pick(0, 1) == 0) return Expr(pick(1, 4));
    return max(expr(depth - 1), Expr(1));
  }

  Expr expr(int depth) {
    if (depth <= 0) return leaf();
    switch (pick(0, 7)) {
      case 0: return leaf();
      case 1: return expr(depth - 1) + expr(depth - 1);
      case 2: return expr(depth - 1) - expr(depth - 1);
      case 3: return expr(depth - 1) * expr(depth - 1);
      case 4: return floordiv(expr(depth - 1), divisor(depth));
      case 5: return mod(expr(depth - 1), divisor(depth));
      case 6: return min(expr(depth - 1), expr(depth - 1));
      default: return max(expr(depth - 1), expr(depth - 1));
    }
  }

 private:
  std::mt19937_64 rng_;
};

TEST(SymbolicRandom, CanonicalOperandsShortCut) {
  for (uint64_t seed = 0; seed < 400; ++seed) {
    RandomExpr gen(seed);
    Expr a = gen.expr(3);
    Expr b = gen.expr(3);
    std::string as = a.to_string();
    SCOPED_TRACE("seed " + std::to_string(seed) + ": a = " + as +
                 ", b = " + b.to_string());
    EXPECT_EQ((a + b).to_string(), (b + a).to_string());
    EXPECT_EQ((a * b).to_string(), (b * a).to_string());
    EXPECT_EQ(((a + b) - b).to_string(), as);
    EXPECT_EQ((a + Expr(0)).to_string(), as);
    EXPECT_EQ((Expr(0) + a).to_string(), as);
    EXPECT_EQ((a - Expr(0)).to_string(), as);
    EXPECT_EQ((a * Expr(1)).to_string(), as);
    EXPECT_EQ((Expr(1) * a).to_string(), as);
    EXPECT_EQ(floordiv(a, Expr(1)).to_string(), as);
    EXPECT_EQ(ceildiv(a, Expr(1)).to_string(), as);
    EXPECT_TRUE((a * Expr(0)).is_zero());
    EXPECT_EQ(a.subs({}).to_string(), as);
    EXPECT_EQ(a.subs({{"Q", S("N")}}).to_string(), as);
    EXPECT_EQ(sum({a, b}).to_string(), (a + b).to_string());
    EXPECT_EQ(product({a, b, a}).to_string(), (a * b * a).to_string());
  }
}

TEST(SymbolicRandom, ConstantOperandsFold) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int64_t> val(-1000, 1000);
  for (int i = 0; i < 400; ++i) {
    int64_t x = val(rng), y = val(rng);
    int64_t d = y == 0 ? 3 : y;
    Expr sums[] = {Expr(x) + Expr(y), Expr(x) - Expr(y), Expr(x) * Expr(y),
                   floordiv(Expr(x), Expr(d)), -Expr(x)};
    int64_t q = x / d - ((x % d != 0) && ((x < 0) != (d < 0)));
    int64_t want[] = {x + y, x - y, x * y, q, -x};
    for (size_t k = 0; k < std::size(sums); ++k) {
      ASSERT_TRUE(sums[k].is_constant()) << sums[k].to_string();
      EXPECT_EQ(sums[k].constant(), want[k]) << x << " " << y << " op " << k;
    }
  }
}

TEST(SymbolicRandom, SubstitutionCommutesWithEvaluation) {
  for (uint64_t seed = 0; seed < 400; ++seed) {
    RandomExpr gen(seed);
    Expr e = gen.expr(3);
    SubstMap m;
    // Shallow substitutes and small values keep every product far from
    // int64 overflow.
    if (gen.pick(0, 1)) m.emplace("N", gen.expr(1));
    if (gen.pick(0, 1)) m.emplace("K", gen.expr(1));
    m.emplace("Q", gen.expr(1));  // absent from e: must not matter
    SymbolMap v{{"N", gen.pick(1, 5)}, {"M", gen.pick(1, 5)},
                {"K", gen.pick(1, 5)}};
    SymbolMap applied = v;
    for (const auto& [name, x] : m) applied[name] = x.eval(v);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + e.to_string());
    EXPECT_EQ(e.subs(m).eval(v), e.eval(applied));
  }
}

// is_index() decides end == begin + 1 on the canonical trees; it must
// agree with the subtraction it replaced.  The begins cover constants
// (-1 among them), symbols, sums with and without a constant term
// (constant -1 among them), products and every atom kind.
TEST(SymbolicRandom, IsIndexAgreesWithSubtraction) {
  int index_pairs = 0, pairs = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    RandomExpr gen(seed);
    Expr x = gen.expr(2), y = gen.expr(2);
    const Expr begins[] = {
        Expr(gen.pick(-3, 3)),
        Expr(-1),
        gen.leaf(),
        x + y,
        x + S("K"),
        S("N") + Expr(gen.pick(-3, 3)),
        S("N") * S("M") - Expr(1),
        x * y,
        Expr(gen.pick(2, 4)) * S("M"),
        floordiv(x, gen.divisor(2)),
        mod(x, gen.divisor(2)) + Expr(gen.pick(-2, 2)),
        min(x, y),
        max(x, y) - Expr(1),
        gen.expr(3),
    };
    for (const Expr& b : begins) {
      const Expr ends[] = {b + Expr(1), b, b + Expr(2), b - Expr(1),
                           gen.expr(3)};
      for (const Expr& e : ends) {
        bool want = (e - b).is_one();
        ASSERT_EQ(Range(b, e).is_index(), want)
            << "seed " << seed << ": [" << b.to_string() << ", "
            << e.to_string() << ")";
        EXPECT_FALSE(Range(b, e, Expr(2)).is_index());
        index_pairs += want;
        ++pairs;
      }
    }
  }
  // Every begin is paired with its successor, and only with it (a random
  // end is its successor rarely).
  EXPECT_GE(index_pairs, pairs / 5);
  EXPECT_LT(index_pairs, pairs / 4);
}

}  // namespace
}  // namespace dace::sym
