#include "runtime/tensor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "runtime/tensor_ops.hpp"
#include "runtime/thread_pool.hpp"

namespace dace::rt {
namespace {

TEST(Tensor, AllocateZeroInitialized) {
  Tensor t(DType::f64, {3, 4});
  EXPECT_EQ(t.size(), 12);
  EXPECT_TRUE(t.contiguous());
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.get_flat(i), 0.0);
}

TEST(Tensor, ElementAccess) {
  Tensor t(DType::f64, {2, 3});
  t.at({1, 2}) = 5.0;
  EXPECT_EQ(t.at({1, 2}), 5.0);
  EXPECT_EQ(t.get_flat(5), 5.0);
  EXPECT_THROW(t.at({2, 0}), Error);
}

TEST(Tensor, DTypeCastOnStore) {
  Tensor t(DType::f32, {1});
  t.set_flat(0, 0.1);
  EXPECT_EQ(t.get_flat(0), (double)(float)0.1);
  Tensor i(DType::i32, {1});
  i.set_flat(0, 3.7);
  EXPECT_EQ(i.get_flat(0), 3.0);
}

TEST(Tensor, SliceSharesBuffer) {
  Tensor t(DType::f64, {4, 4});
  for (int64_t i = 0; i < 16; ++i) t.set_flat(i, (double)i);
  Tensor s = t.slice({1, 1}, {3, 3}, {1, 1});
  EXPECT_EQ(s.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(s.at({0, 0}), 5.0);
  s.at({0, 0}) = 99.0;
  EXPECT_EQ(t.at({1, 1}), 99.0);  // view aliases
}

TEST(Tensor, SliceWithStepAndDrop) {
  Tensor t(DType::f64, {6});
  for (int64_t i = 0; i < 6; ++i) t.set_flat(i, (double)i);
  Tensor s = t.slice({0}, {6}, {2});
  EXPECT_EQ(s.shape(), (std::vector<int64_t>{3}));
  EXPECT_EQ(s.get_flat(2), 4.0);
  Tensor row = Tensor(DType::f64, {3, 4}).slice({1, 0}, {2, 4}, {1, 1},
                                                {true, false});
  EXPECT_EQ(row.shape(), (std::vector<int64_t>{4}));
}

TEST(Tensor, TransposeView) {
  Tensor t(DType::f64, {2, 3});
  t.at({0, 2}) = 7.0;
  Tensor tt = t.transpose();
  EXPECT_EQ(tt.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(tt.at({2, 0}), 7.0);
  EXPECT_FALSE(tt.contiguous());
}

TEST(Tensor, CopyIsDeep) {
  Tensor t(DType::f64, {4});
  t.fill(3.0);
  Tensor c = t.copy();
  c.fill(1.0);
  EXPECT_EQ(t.get_flat(0), 3.0);
}

TEST(Tensor, AssignFromOverlappingViews) {
  // b[0:4] = b[1:5] with shared buffer must not corrupt (jacobi shift).
  Tensor t(DType::f64, {5});
  for (int64_t i = 0; i < 5; ++i) t.set_flat(i, (double)i);
  Tensor dst = t.slice({0}, {4}, {1});
  Tensor src = t.slice({1}, {5}, {1});
  dst.assign_from(src);
  EXPECT_EQ(t.get_flat(0), 1.0);
  EXPECT_EQ(t.get_flat(3), 4.0);
}

// Every multi-index of `shape`, in row-major order.
std::vector<std::vector<int64_t>> all_indices(
    const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  std::vector<std::vector<int64_t>> out;
  for (int64_t i = 0; i < n; ++i) {
    std::vector<int64_t> idx(shape.size());
    int64_t rem = i;
    for (size_t d = shape.size(); d-- > 0;) {
      idx[d] = rem % shape[d];
      rem /= shape[d];
    }
    out.push_back(idx);
  }
  return out;
}

// Distinct values, most of them not representable in f32.
Tensor numbered(std::vector<int64_t> shape) {
  Tensor t(DType::f64, std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) t.set_flat(i, 0.1 + 1.3 * (double)i);
  return t;
}

// dst.assign_from(src), checked element by element through at(); the
// expected values are read before the assignment, so overlapping views
// are checked against the source as it was.
void expect_assign(Tensor dst, const Tensor& src) {
  std::vector<std::vector<int64_t>> idx = all_indices(src.shape());
  std::vector<double> want;
  for (const auto& i : idx) want.push_back(cast_to(dst.dtype(), src.at(i)));
  dst.assign_from(src);
  ASSERT_EQ(dst.shape(), src.shape());
  for (size_t e = 0; e < idx.size(); ++e)
    EXPECT_EQ(dst.at(idx[e]), want[e]) << "element " << e;
}

TEST(Tensor, OverlapsComparesElementSpans) {
  // Views of one buffer overlap when their lowest-to-highest element
  // spans meet, even if no element is shared (two columns interleave).
  Tensor m(DType::f64, {4, 6});
  Tensor col0 = m.slice({0, 0}, {4, 1}, {1, 1});
  Tensor col5 = m.slice({0, 5}, {4, 6}, {1, 1});
  Tensor rows01 = m.slice({0, 0}, {2, 6}, {1, 1});
  Tensor row3 = m.slice({3, 0}, {4, 6}, {1, 1});
  EXPECT_TRUE(m.overlaps(col0));
  EXPECT_TRUE(col0.overlaps(col5));
  EXPECT_TRUE(m.transpose().overlaps(row3));
  EXPECT_FALSE(rows01.overlaps(row3));
  EXPECT_FALSE(row3.overlaps(rows01));
  EXPECT_FALSE(m.overlaps(m.copy()));
}

TEST(Tensor, AssignFromStridedViews) {
  Tensor m = numbered({3, 5});
  // Transposed 2-D view, into a contiguous and into a transposed target.
  expect_assign(Tensor(DType::f64, {5, 3}), m.transpose());
  expect_assign(Tensor(DType::f64, {3, 5}).transpose(), m.transpose());
  // Stepped slice.
  Tensor big = numbered({6, 7});
  expect_assign(Tensor(DType::f64, {3, 3}), big.slice({1, 0}, {6, 7}, {2, 3}));
  // Permuted rank-3 view, also through copy() and astype().
  Tensor cube = numbered({2, 3, 4});
  Tensor perm = cube.transpose({2, 0, 1});
  expect_assign(Tensor(DType::f64, {4, 2, 3}), perm);
  Tensor c = perm.copy();
  EXPECT_TRUE(c.contiguous());
  for (const auto& i : all_indices(perm.shape())) EXPECT_EQ(c.at(i), perm.at(i));
  Tensor h = perm.astype(DType::f32);
  EXPECT_EQ(h.dtype(), DType::f32);
  for (const auto& i : all_indices(perm.shape()))
    EXPECT_EQ(h.at(i), (double)(float)perm.at(i));
  // Zero-extent dimension.
  Tensor empty = big.slice({2, 1}, {2, 7}, {1, 2});
  EXPECT_EQ(empty.shape(), (std::vector<int64_t>{0, 3}));
  expect_assign(Tensor(DType::f64, {0, 3}), empty);
  // Rank 0: a scalar, and a view with every dimension dropped.
  expect_assign(Tensor(), Tensor::scalar(2.5));
  expect_assign(Tensor(), big.slice({4, 5}, {5, 6}, {1, 1}, {true, true}));
  // f32 destination: every element is cast on store.
  expect_assign(Tensor(DType::f32, {5, 3}), m.transpose());
  expect_assign(Tensor(DType::f32, {3, 3}), big.slice({1, 0}, {6, 7}, {2, 3}));
  // Overlapping views of one buffer: an in-place transpose, and a
  // shifted transposed window.
  Tensor sq = numbered({4, 4});
  expect_assign(sq, sq.transpose());
  Tensor sq2 = numbered({5, 5});
  expect_assign(sq2.slice({0, 0}, {4, 4}, {1, 1}),
                sq2.slice({1, 1}, {5, 5}, {1, 1}).transpose());
}

TEST(TensorOps, BroadcastAdd) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_values({3}, {10, 20, 30});
  Tensor c = ops::add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0);
  EXPECT_EQ(c.at({1, 2}), 36.0);
}

TEST(TensorOps, ScalarBroadcast) {
  Tensor a = Tensor::from_values({3}, {1, 2, 3});
  Tensor s = Tensor::scalar(2.0);
  Tensor c = ops::mul(a, s);
  EXPECT_EQ(c.get_flat(2), 6.0);
}

TEST(TensorOps, BroadcastRejectsIncompatible) {
  Tensor a(DType::f64, {2, 3});
  Tensor b(DType::f64, {4});
  EXPECT_THROW(ops::add(a, b), Error);
}

TEST(TensorOps, MatMul2D) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_values({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(c.at({0, 0}), 58.0);
  EXPECT_EQ(c.at({1, 1}), 154.0);
}

TEST(TensorOps, MatVecAndVecMat) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor x = Tensor::from_values({3}, {1, 1, 1});
  Tensor y = ops::matmul(a, x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2}));
  EXPECT_EQ(y.get_flat(0), 6.0);
  Tensor v = Tensor::from_values({2}, {1, 1});
  Tensor z = ops::matmul(v, a);
  EXPECT_EQ(z.shape(), (std::vector<int64_t>{3}));
  EXPECT_EQ(z.get_flat(2), 9.0);
}

TEST(TensorOps, MatMulMatchesNaive) {
  const int64_t m = 17, k = 23, n = 13;
  Tensor a(DType::f64, {m, k});
  Tensor b(DType::f64, {k, n});
  for (int64_t i = 0; i < a.size(); ++i) a.set_flat(i, std::sin((double)i));
  for (int64_t i = 0; i < b.size(); ++i) b.set_flat(i, std::cos((double)i));
  Tensor c = ops::matmul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t l = 0; l < k; ++l) acc += a.at({i, l}) * b.at({l, j});
      EXPECT_NEAR(c.at({i, j}), acc, 1e-9);
    }
  }
}

// Operands for the products' order tests: views in each layout the
// library meets, filled with values whose sums depend on their order
// (mixed signs, magnitudes 2^-4..2^4, every 11th element -0.0).  `seed`
// picks the values.
enum class Layout { Contiguous, Transposed, Stepped, RowStepped };

Tensor product_operand(DType dt, const std::vector<int64_t>& shape,
                       Layout lay, int seed) {
  Tensor base;
  std::vector<int64_t> begin, end, step;
  if (shape.size() == 1) {
    int64_t n = shape[0];
    bool contiguous = lay == Layout::Contiguous;
    base = Tensor(dt, {contiguous ? n : 2 * n + 1});
    begin = {contiguous ? 0 : 1}, end = {base.shape()[0]};
    step = {contiguous ? 1 : 2};
  } else {
    int64_t r = shape[0], c = shape[1];
    switch (lay) {
      case Layout::Contiguous:
        base = Tensor(dt, {r, c}), begin = {0, 0}, step = {1, 1};
        break;
      case Layout::Transposed:
        base = Tensor(dt, {c, r}), begin = {0, 0}, step = {1, 1};
        break;
      case Layout::Stepped:  // both dims step 2, at a nonzero offset
        base = Tensor(dt, {2 * r + 1, 2 * c + 1}), begin = {1, 1};
        step = {2, 2};
        break;
      case Layout::RowStepped:  // rows step 2, columns at unit stride
        base = Tensor(dt, {2 * r + 1, c}), begin = {1, 0}, step = {2, 1};
        break;
    }
    end = base.shape();
  }
  for (int64_t i = 0; i < base.size(); ++i) {
    // A multiplicative hash of (seed, i): [-1, 1) times 2^-4..2^4.
    uint64_t h = (uint64_t)(seed * 1000003 + i) * 0x9E3779B97F4A7C15ull;
    double v =
        (double)(int64_t)h * 0x1p-63 * std::ldexp(1.0, (int)(h % 9) - 4);
    base.data()[i] = cast_to(dt, i % 11 == 3 ? -0.0 : v);
  }
  Tensor t = base.slice(begin, end, step);
  if (lay == Layout::Transposed) t = t.transpose();
  EXPECT_EQ(t.shape(), shape);
  return t;
}

// The vector widths of the product loops this host runs: 2, and on
// x86-64 with AVX2 or AVX-512F also 4 or 4 and 8.
std::vector<int> host_widths() {
  std::vector<int> widths;
  for (int w : {2, 4, 8})
    if (w <= ops::vector_width()) widths.push_back(w);
  return widths;
}

// Outputs of matmul(a, b) at vector width `width` whose bits differ from
// the sum over l ascending of a[i,l] * b[l,j], started from +0.0 and
// rounded to the result dtype.  A vector is one row as the left operand,
// one column as the right.
int64_t ordered_sum_mismatches(const Tensor& a, const Tensor& b, int width) {
  Tensor c = ops::detail::matmul_at_width(a, b, width);
  int64_t m = a.rank() == 2 ? a.shape()[0] : 1;
  int64_t k = b.shape()[0];
  int64_t n = b.rank() == 2 ? b.shape()[1] : 1;
  EXPECT_EQ(c.size(), m * n);
  Tensor ac = a.copy(), bc = b.copy();
  const double* av = ac.data();
  const double* bv = bc.data();
  DType dt = ops::promote(a.dtype(), b.dtype());
  int64_t bad = 0;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t l = 0; l < k; ++l) acc += av[i * k + l] * bv[l * n + j];
      bad += std::bit_cast<uint64_t>(c.get_flat(i * n + j)) !=
             std::bit_cast<uint64_t>(cast_to(dt, acc));
    }
  }
  return bad;
}

const char* layout_name(Layout lay) {
  switch (lay) {
    case Layout::Contiguous: return "contiguous";
    case Layout::Transposed: return "transposed";
    case Layout::Stepped: return "stepped";
    case Layout::RowStepped: return "row-stepped";
  }
  return "?";
}

// The products pick the widest vector width the CPU runs, once per
// process, and record it in the metrics registry.
TEST(TensorOps, VectorWidthIsTheWidestTheCpuRuns) {
  int widest = 2;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    widest = 8;
  } else if (__builtin_cpu_supports("avx2")) {
    widest = 4;
  }
#endif
  EXPECT_EQ(ops::vector_width(), widest);
  EXPECT_EQ(metrics::gauge("dacepp_library_vector_width").value(), widest);
}

// Vector x matrix streams the matrix's rows through its strides, never
// copying it; matrix x vector on the transpose copies it into a contiguous
// one first.  Both sum each output over l ascending (which
// MatmulIsBitIdenticalToOrderedSum pins for each), so they must agree bit
// for bit, with the matrix's width and the promoted dtype, at every
// vector width.  15, 17, 31 and 33 columns end mid-block at width 8.
TEST(TensorOps, VecMatIsBitIdenticalToOrderedSum) {
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {37, 29}, {1, 1},  {16, 8},  {17, 3},  {5, 17},
      {33, 97}, {40, 15}, {20, 31}, {70, 33}};
  for (int w : host_widths()) {
    for (DType dt : {DType::f64, DType::f32}) {
      for (auto [k, n] : shapes) {
        for (Layout vl : {Layout::Contiguous, Layout::Stepped}) {
          Tensor v = product_operand(dt, {k}, vl, 1);
          for (Layout al : {Layout::Contiguous, Layout::Transposed,
                            Layout::Stepped, Layout::RowStepped}) {
            Tensor a = product_operand(dt, {k, n}, al, 2);
            SCOPED_TRACE(testing::Message()
                         << "width " << w << ", "
                         << (dt == DType::f64 ? "f64 " : "f32 ") << k << "x"
                         << n << " vector " << layout_name(vl) << ", matrix "
                         << layout_name(al));
            Tensor got = ops::detail::matmul_at_width(v, a, w);
            Tensor mv = ops::detail::matmul_at_width(a.transpose(), v, w);
            ASSERT_EQ(got.shape(), (std::vector<int64_t>{n}));
            EXPECT_EQ(got.dtype(), dt);
            for (int64_t j = 0; j < n; ++j) {
              EXPECT_EQ(std::bit_cast<uint64_t>(got.at({j})),
                        std::bit_cast<uint64_t>(mv.at({j})))
                  << "column " << j;
            }
          }
        }
      }
    }
  }
}

// The products keep tiles of the output in registers, at every vector
// width the host runs, and split their output over the pool once their
// work passes the cost rule's inline threshold.  Every output must still
// equal the sum over l ascending, bit for bit: at sizes that are and are
// not tile multiples (4 rows by 2W columns for matrix x matrix, 4 rows
// for matrix x vector, 4W columns for vector x matrix; 15, 17, 31 and 33
// columns end mid-tile at width 8), for every operand layout
// (row-stepped keeps vector x matrix on its tiled path with a row stride
// other than the width), and at any pool width.  The shapes with 97 rows
// (or columns) end in a partial tile and split over 2 or more workers at
// every vector width; kernels_threads_{2,4} re-run this at pool widths 2
// and 4.
TEST(TensorOps, MatmulIsBitIdenticalToOrderedSum) {
  const std::vector<Layout> mats = {Layout::Contiguous, Layout::Transposed,
                                    Layout::Stepped, Layout::RowStepped};
  const std::vector<Layout> vecs = {Layout::Contiguous, Layout::Stepped};
  for (int w : host_widths()) {
    auto check = [w](const Tensor& a, const Tensor& b, const char* form,
                     Layout la, Layout lb) {
      EXPECT_EQ(ordered_sum_mismatches(a, b, w), 0)
          << "width " << w << ", "
          << (a.dtype() == DType::f64 ? "f64 " : "f32 ") << form << " "
          << testing::PrintToString(a.shape()) << " x "
          << testing::PrintToString(b.shape()) << ", " << layout_name(la)
          << " x " << layout_name(lb);
    };
    for (DType dt : {DType::f64, DType::f32}) {
      // Matrix x matrix, {m, k, n}: 97 * 210 * 210 multiply-adds is three
      // chunks' worth or more at every width.
      const std::vector<std::array<int64_t, 3>> mm = {
          {16, 16, 16}, {96, 96, 96}, {1, 1, 1},     {3, 5, 7},
          {5, 3, 1},    {17, 17, 17}, {61, 67, 73}, {97, 210, 210},
          {5, 9, 15},   {9, 70, 17},  {4, 13, 31},  {7, 66, 33}};
      for (auto [m, k, n] : mm) {
        for (Layout la : mats) {
          for (Layout lb : mats) {
            check(product_operand(dt, {m, k}, la, 1),
                  product_operand(dt, {k, n}, lb, 2), "matrix x matrix", la,
                  lb);
          }
        }
      }
      // Matrix x vector {m, k} and vector x matrix {k, m}.
      const std::vector<std::array<int64_t, 2>> mv = {
          {16, 256}, {96, 1536}, {1, 1},   {3, 5},    {5, 17},
          {8, 16},   {17, 3},    {29, 37}, {61, 67},  {97, 33},
          {97, 5000}, {15, 40},  {31, 20}, {33, 70}};
      for (auto [m, k] : mv) {
        for (Layout la : mats) {
          for (Layout lx : vecs) {
            check(product_operand(dt, {m, k}, la, 1),
                  product_operand(dt, {k}, lx, 2), "matrix x vector", la,
                  lx);
            check(product_operand(dt, {k}, lx, 2),
                  product_operand(dt, {k, m}, la, 1), "vector x matrix", lx,
                  la);
          }
        }
      }
      // Products that are all -0.0 sum to +0.0: the sum starts from +0.0.
      auto filled = [&](std::vector<int64_t> shape, double v) {
        Tensor t(dt, std::move(shape));
        for (int64_t i = 0; i < t.size(); ++i) t.set_flat(i, v);
        return t;
      };
      const Layout c = Layout::Contiguous;
      check(filled({5, 7}, -0.0), filled({7, 6}, 1.5), "matrix x matrix", c, c);
      check(filled({5, 7}, -0.0), filled({7}, 1.5), "matrix x vector", c, c);
      check(filled({7}, -0.0), filled({7, 9}, 1.5), "vector x matrix", c, c);
    }
  }
}

TEST(TensorOps, OuterAndDot) {
  Tensor u = Tensor::from_values({2}, {1, 2});
  Tensor v = Tensor::from_values({3}, {3, 4, 5});
  Tensor o = ops::outer(u, v);
  EXPECT_EQ(o.at({1, 2}), 10.0);
  EXPECT_EQ(ops::dot(u, u), 5.0);
}

TEST(TensorOps, Reductions) {
  Tensor a = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(ops::sum_all(a), 21.0);
  EXPECT_EQ(ops::max_all(a), 6.0);
  EXPECT_EQ(ops::min_all(a), 1.0);
  Tensor s0 = ops::sum_axis(a, 0);
  EXPECT_EQ(s0.shape(), (std::vector<int64_t>{3}));
  EXPECT_EQ(s0.get_flat(0), 5.0);
  Tensor s1 = ops::sum_axis(a, 1);
  EXPECT_EQ(s1.get_flat(1), 15.0);

  // A row slice at a nonzero offset is contiguous (the pointer path); a
  // stepped view is not.  Both reduce over the view's elements only.
  Tensor b = Tensor::from_values({3, 4}, {9, -8, 7, 6,     //
                                          -5, 4, 12, -3,   //
                                          2, -11, 1, 10});
  Tensor row = b.slice({1, 0}, {2, 4}, {1, 1});
  ASSERT_TRUE(row.contiguous());
  EXPECT_EQ(ops::sum_all(row), 8.0);
  EXPECT_EQ(ops::max_all(row), 12.0);
  EXPECT_EQ(ops::min_all(row), -5.0);
  Tensor stepped = b.slice({0, 1}, {3, 4}, {2, 2});  // -8, 6, -11, 10
  ASSERT_FALSE(stepped.contiguous());
  EXPECT_EQ(ops::sum_all(stepped), -3.0);
  EXPECT_EQ(ops::max_all(stepped), 10.0);
  EXPECT_EQ(ops::min_all(stepped), -11.0);

  // Equal elements keep the first one, as std::max and std::min do, so
  // signed zeros pick the same zero on either path.
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  Tensor z = Tensor::from_values({2, 3}, {-0.0, 0.0, 0.0,  //
                                          0.0, -0.0, -0.0});
  for (const Tensor& t : {z.slice({0, 0}, {1, 3}, {1, 1}),
                          z.slice({0, 0}, {2, 1}, {1, 1})}) {
    EXPECT_EQ(bits(ops::max_all(t)), bits(-0.0));
    EXPECT_EQ(bits(ops::min_all(t)), bits(-0.0));
  }
  for (const Tensor& t : {z.slice({1, 0}, {2, 3}, {1, 1}),
                          z.slice({1, 0}, {2, 3}, {1, 2})}) {
    EXPECT_EQ(bits(ops::max_all(t)), bits(0.0));
    EXPECT_EQ(bits(ops::min_all(t)), bits(0.0));
  }
}

TEST(TensorOps, PromotionRules) {
  EXPECT_EQ(ops::promote(DType::f32, DType::f64), DType::f64);
  EXPECT_EQ(ops::promote(DType::i64, DType::f32), DType::f32);
  EXPECT_EQ(ops::promote(DType::i32, DType::i64), DType::i64);
}

TEST(ThreadPool, ParallelForCoversDomain) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[(size_t)i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, 2, [&](int64_t lo, int64_t hi) {
    pool.parallel_for(hi - lo, 2, [&](int64_t l2, int64_t h2) {
      total += (int)(h2 - l2);
    });
  });
  EXPECT_EQ(total.load(), 8);
}

// Eight external threads (as simMPI ranks and serve workers are) call
// parallel_for on one pool at once; every caller must see each index of
// its own domain run exactly once, whether it asks for two chunks or for
// one per worker.
void hammer_parallel_for(ThreadPool& pool) {
  constexpr int kCallers = 8, kRounds = 200;
  constexpr int64_t kN = 1024;
  std::atomic<int> ready{0};
  std::vector<int> bad(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<std::atomic<int>> hits(kN);
      auto body = [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) hits[(size_t)i]++;
      };
      ++ready;
      while (ready.load() < kCallers) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        for (auto& h : hits) h.store(0);
        pool.parallel_for(kN, r % 2 ? 2 : pool.num_threads(), body);
        for (auto& h : hits) bad[(size_t)c] += h.load() != 1;
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(bad[(size_t)c], 0) << c;
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirDomain) {
  ThreadPool pool(4);
  hammer_parallel_for(pool);
}

TEST(ThreadPool, ConcurrentCallersOnGlobalPool) {
  hammer_parallel_for(ThreadPool::global());
}

TEST(Allclose, DetectsDifferences) {
  Tensor a = Tensor::from_values({2}, {1.0, 2.0});
  Tensor b = Tensor::from_values({2}, {1.0, 2.0 + 1e-12});
  EXPECT_TRUE(allclose(a, b));
  b.set_flat(1, 3.0);
  EXPECT_FALSE(allclose(a, b));
}

}  // namespace
}  // namespace dace::rt
