#include "runtime/tensor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <thread>
#include <vector>

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

TEST(TensorOps, VecMatIsBitIdenticalToOrderedSum) {
  const int64_t k = 37, n = 29;
  for (DType dt : {DType::f64, DType::f32}) {
    auto filled = [&](std::vector<int64_t> shape, double phase) {
      Tensor t(dt, std::move(shape));
      for (int64_t i = 0; i < t.size(); ++i)
        t.set_flat(i, std::sin(phase + 0.37 * (double)i));
      return t;
    };
    Tensor v = filled({k}, 1.0);
    Tensor contiguous = filled({k, n}, 2.0);
    Tensor transposed = filled({n, k}, 3.0).transpose();
    Tensor stepped =
        filled({2 * k + 1, 2 * n}, 4.0).slice({1, 0}, {2 * k + 1, 2 * n},
                                              {2, 2});
    for (const Tensor& a : {contiguous, transposed, stepped}) {
      ASSERT_EQ(a.shape(), (std::vector<int64_t>{k, n}));
      Tensor got = ops::matmul(v, a);
      Tensor mv = ops::matmul(a.transpose(), v);
      ASSERT_EQ(got.shape(), (std::vector<int64_t>{n}));
      EXPECT_EQ(got.dtype(), dt);
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0;
        for (int64_t l = 0; l < k; ++l) acc += a.at({l, j}) * v.at({l});
        double want = cast_to(dt, acc);
        EXPECT_EQ(std::bit_cast<uint64_t>(got.at({j})),
                  std::bit_cast<uint64_t>(want))
            << "column " << j;
        EXPECT_EQ(std::bit_cast<uint64_t>(got.at({j})),
                  std::bit_cast<uint64_t>(mv.at({j})))
            << "column " << j;
      }
    }
  }
}

// The products split their output over the pool once their work passes
// the cost rule's inline threshold.  Below it (s = 16) and above it
// (s = 96) every output must equal the sum over l ascending, bit for bit,
// at any pool width: kernels_threads_{2,4} re-run this at widths 2 and 4.
TEST(TensorOps, MatmulIsBitIdenticalToOrderedSum) {
  for (DType dt : {DType::f64, DType::f32}) {
    auto filled = [&](std::vector<int64_t> shape, double phase) {
      Tensor t(dt, std::move(shape));
      for (int64_t i = 0; i < t.size(); ++i)
        t.set_flat(i, std::sin(phase + 0.37 * (double)i));
      return t;
    };
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    const char* name = dt == DType::f64 ? "f64" : "f32";
    for (int64_t s : {16, 96}) {
      // Matrix x vector (and its vector x matrix transpose) over s rows of
      // 16 s: 147,456 multiply-adds at s = 96, more than one chunk's worth.
      const int64_t k = 16 * s;
      Tensor a = filled({s, k}, 1.0), x = filled({k}, 2.0);
      Tensor mv = ops::matmul(a, x);
      Tensor vm = ops::matmul(x, a.transpose());
      ASSERT_EQ(mv.shape(), (std::vector<int64_t>{s}));
      ASSERT_EQ(vm.shape(), (std::vector<int64_t>{s}));
      int bad = 0;
      for (int64_t i = 0; i < s; ++i) {
        double acc = 0;
        for (int64_t l = 0; l < k; ++l) acc += a.at({i, l}) * x.at({l});
        bad += bits(mv.at({i})) != bits(cast_to(dt, acc));
        bad += bits(vm.at({i})) != bits(cast_to(dt, acc));
      }
      EXPECT_EQ(bad, 0) << name << " matrix x vector, s=" << s;
      // Matrix x matrix: s^3 multiply-adds.
      Tensor b = filled({s, s}, 3.0), c = filled({s, s}, 4.0);
      Tensor mm = ops::matmul(b, c);
      ASSERT_EQ(mm.shape(), (std::vector<int64_t>{s, s}));
      bad = 0;
      for (int64_t i = 0; i < s; ++i) {
        for (int64_t j = 0; j < s; ++j) {
          double acc = 0;
          for (int64_t l = 0; l < s; ++l) acc += b.at({i, l}) * c.at({l, j});
          bad += bits(mm.at({i, j})) != bits(cast_to(dt, acc));
        }
      }
      EXPECT_EQ(bad, 0) << name << " matrix x matrix, s=" << s;
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
