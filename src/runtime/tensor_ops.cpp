#include "runtime/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "runtime/thread_pool.hpp"

namespace dace::rt::ops {

DType promote(DType a, DType b) {
  auto rank = [](DType t) {
    switch (t) {
      case DType::b8: return 0;
      case DType::i32: return 1;
      case DType::i64: return 2;
      case DType::f32: return 3;
      case DType::f64: return 4;
    }
    return 4;
  };
  return rank(a) >= rank(b) ? a : b;
}

std::vector<int64_t> broadcast_shapes(const std::vector<int64_t>& a,
                                      const std::vector<int64_t>& b) {
  size_t r = std::max(a.size(), b.size());
  std::vector<int64_t> out(r, 1);
  for (size_t i = 0; i < r; ++i) {
    int64_t da = i < a.size() ? a[a.size() - 1 - i] : 1;
    int64_t db = i < b.size() ? b[b.size() - 1 - i] : 1;
    DACE_CHECK(da == db || da == 1 || db == 1,
               "broadcast: incompatible dims ", da, " vs ", db);
    out[r - 1 - i] = std::max(da, db);
  }
  return out;
}

namespace {

// Threading follows NumPy's profile: element-wise ops run on the calling
// thread, as ufuncs do, and the three matrix products split their output
// by the pool's cost rule, as MKL threads its BLAS.  Each product form
// charges what one multiply-add of its loop costs, measured serially on
// a 4-vCPU Xeon (GCC 12.2, -O2) over the suite's shapes, as medians:
// 0.26-0.31 ns for matrix x matrix, 0.39-0.62 ns for matrix x vector and
// 0.30-0.68 ns for vector x matrix.  So a 64x64 vector x matrix (4,096
// multiply-adds) and a 64^3 product (about 65 us) run inline.
constexpr double kMatMatNs = 0.25;
constexpr double kMatVecNs = 0.5;
constexpr double kVecMatNs = 0.5;

// Run body over [0, n) in chunks sized by the pool's cost rule.  Chunks
// hold whole tiles of `tile` items, so no chunk ends mid-tile.
void split_product(int64_t n, int64_t tile, double cost_ns,
                   function_ref<void(int64_t, int64_t)> body) {
  ThreadPool& pool = ThreadPool::global();
  int64_t tiles = (n + tile - 1) / tile;
  pool.parallel_for(tiles, pool.chunks_for(tiles, cost_ns),
                    [&](int64_t lo, int64_t hi) {
                      body(lo * tile, std::min(n, hi * tile));
                    });
}

// The product loops keep parts of the output in registers, two doubles
// to a GCC vector.  No intrinsics and no -march: baseline SSE2, where a
// vector multiply and add round each lane exactly as the scalar ones do
// and nothing is fused.  So every output still adds its products for l
// ascending, from +0.0, one rounding per multiply and one per add.
using f64x2 = double __attribute__((vector_size(16)));

inline f64x2 load2(const double* p) {
  f64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store2(double* p, f64x2 v) { std::memcpy(p, &v, sizeof v); }
inline f64x2 splat(double x) { return f64x2{x, x}; }

// C[0:4, 0:4] += A[0:4, l0:l1] * B[l0:l1, 0:4] in eight accumulators.
void tile_4x4(const double* a, int64_t lda, const double* b, int64_t ldb,
              double* c, int64_t ldc, int64_t l0, int64_t l1) {
  const double* a1 = a + lda;
  const double* a2 = a1 + lda;
  const double* a3 = a2 + lda;
  double* c1 = c + ldc;
  double* c2 = c1 + ldc;
  double* c3 = c2 + ldc;
  f64x2 c00 = load2(c), c01 = load2(c + 2), c10 = load2(c1),
        c11 = load2(c1 + 2), c20 = load2(c2), c21 = load2(c2 + 2),
        c30 = load2(c3), c31 = load2(c3 + 2);
  const double* bl = b + l0 * ldb;
  for (int64_t l = l0; l < l1; ++l, bl += ldb) {
    f64x2 b0 = load2(bl), b1 = load2(bl + 2);
    f64x2 av = splat(a[l]);
    c00 += av * b0;
    c01 += av * b1;
    av = splat(a1[l]);
    c10 += av * b0;
    c11 += av * b1;
    av = splat(a2[l]);
    c20 += av * b0;
    c21 += av * b1;
    av = splat(a3[l]);
    c30 += av * b0;
    c31 += av * b1;
  }
  store2(c, c00);
  store2(c + 2, c01);
  store2(c1, c10);
  store2(c1 + 2, c11);
  store2(c2, c20);
  store2(c2 + 2, c21);
  store2(c3, c30);
  store2(c3 + 2, c31);
}

// One row of tile_4x4, for the rows past the last whole tile.
void tile_1x4(const double* a, const double* b, int64_t ldb, double* c,
              int64_t l0, int64_t l1) {
  f64x2 c0 = load2(c), c1 = load2(c + 2);
  const double* bl = b + l0 * ldb;
  for (int64_t l = l0; l < l1; ++l, bl += ldb) {
    f64x2 av = splat(a[l]);
    c0 += av * load2(bl);
    c1 += av * load2(bl + 2);
  }
  store2(c, c0);
  store2(c + 2, c1);
}

// Rows [lo, hi) of C = A * B, row-major: k-blocks outermost, 4x4 tiles
// reloaded from C between blocks, a scalar chain per element for the
// columns past the last whole tile.
void matmul_rows(const double* pa, const double* pb, double* po, int64_t k,
                 int64_t n, int64_t lo, int64_t hi) {
  constexpr int64_t BK = 64;
  int64_t n4 = n - n % 4;
  for (int64_t kk = 0; kk < k; kk += BK) {
    int64_t kend = std::min(k, kk + BK);
    for (int64_t i = lo; i < hi; i += 4) {
      int64_t rows = std::min<int64_t>(4, hi - i);
      const double* ai = pa + i * k;
      double* ci = po + i * n;
      for (int64_t j = 0; j < n4; j += 4) {
        if (rows == 4) {
          tile_4x4(ai, k, pb + j, n, ci + j, n, kk, kend);
        } else {
          for (int64_t r = 0; r < rows; ++r)
            tile_1x4(ai + r * k, pb + j, n, ci + r * n + j, kk, kend);
        }
      }
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t j = n4; j < n; ++j) {
          double acc = ci[r * n + j];
          for (int64_t l = kk; l < kend; ++l)
            acc += ai[r * k + l] * pb[l * n + j];
          ci[r * n + j] = acc;
        }
      }
    }
  }
}

// Rows [lo, hi) of y = A * x, A row-major: four rows' chains at once.
void matvec_rows(const double* pa, const double* px, double* po, DType dt,
                 int64_t k, int64_t lo, int64_t hi) {
  int64_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const double* r0 = pa + i * k;
    const double* r1 = r0 + k;
    const double* r2 = r1 + k;
    const double* r3 = r2 + k;
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (int64_t l = 0; l < k; ++l) {
      double x = px[l];
      s0 += r0[l] * x;
      s1 += r1[l] * x;
      s2 += r2[l] * x;
      s3 += r3[l] * x;
    }
    po[i] = cast_to(dt, s0);
    po[i + 1] = cast_to(dt, s1);
    po[i + 2] = cast_to(dt, s2);
    po[i + 3] = cast_to(dt, s3);
  }
  for (; i < hi; ++i) {
    const double* r0 = pa + i * k;
    double s0 = 0;
    for (int64_t l = 0; l < k; ++l) s0 += r0[l] * px[l];
    po[i] = cast_to(dt, s0);
  }
}

// Columns [lo, hi) of y = x * B, B's rows at stride sr and columns at
// stride sc: l-blocks outermost; at unit column stride eight outputs are
// held in registers and reloaded between blocks, and every other column
// (the last few, or all of them at sc != 1) runs a scalar chain.
void vecmat_cols(const double* px, int64_t sx, const double* pb, int64_t sr,
                 int64_t sc, double* po, int64_t k, int64_t lo, int64_t hi) {
  constexpr int64_t BL = 16;
  for (int64_t l0 = 0; l0 < k; l0 += BL) {
    int64_t l1 = std::min(k, l0 + BL);
    int64_t j = lo;
    for (; sc == 1 && j + 8 <= hi; j += 8) {
      double* oj = po + j;
      f64x2 s0 = load2(oj), s1 = load2(oj + 2), s2 = load2(oj + 4),
            s3 = load2(oj + 6);
      for (int64_t l = l0; l < l1; ++l) {
        f64x2 xv = splat(px[l * sx]);
        const double* bl = pb + l * sr + j;
        s0 += load2(bl) * xv;
        s1 += load2(bl + 2) * xv;
        s2 += load2(bl + 4) * xv;
        s3 += load2(bl + 6) * xv;
      }
      store2(oj, s0);
      store2(oj + 2, s1);
      store2(oj + 4, s2);
      store2(oj + 6, s3);
    }
    for (; j < hi; ++j) {
      double acc = po[j];
      for (int64_t l = l0; l < l1; ++l)
        acc += pb[l * sr + j * sc] * px[l * sx];
      po[j] = acc;
    }
  }
}

// Iterate a broadcast binary op. Fast path when both operands are
// contiguous and shapes match exactly.
template <typename F>
Tensor apply_binary(const Tensor& a, const Tensor& b, F&& f) {
  std::vector<int64_t> shape = broadcast_shapes(a.shape(), b.shape());
  Tensor out(promote(a.dtype(), b.dtype()), shape);
  int64_t n = out.size();
  if (a.shape() == shape && b.shape() == shape && a.contiguous() &&
      b.contiguous()) {
    const double* pa = a.data();
    const double* pb = b.data();
    double* po = out.data();
    DType dt = out.dtype();
    if (dt == DType::f64) {
      for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
    } else {
      for (int64_t i = 0; i < n; ++i) po[i] = cast_to(dt, f(pa[i], pb[i]));
    }
    return out;
  }
  // General broadcast path.
  size_t r = shape.size();
  std::vector<int64_t> sa(r, 0), sb(r, 0);
  for (size_t i = 0; i < r; ++i) {
    size_t ia = a.rank() + i, ib = b.rank() + i;
    if (ia >= r) {
      size_t d = ia - r;
      sa[i] = (a.shape()[d] == 1) ? 0 : a.strides()[d];
    }
    if (ib >= r) {
      size_t d = ib - r;
      sb[i] = (b.shape()[d] == 1) ? 0 : b.strides()[d];
    }
  }
  const double* pa = a.data();
  const double* pb = b.data();
  DType dt = out.dtype();
  std::vector<int64_t> idx(r, 0);
  for (int64_t i = 0; i < n; ++i) {
    int64_t oa = 0, ob = 0;
    int64_t rem = i;
    for (size_t d = r; d-- > 0;) {
      int64_t id = rem % shape[d];
      rem /= shape[d];
      oa += id * sa[d];
      ob += id * sb[d];
    }
    out.set_flat(i, cast_to(dt, f(pa[oa], pb[ob])));
  }
  return out;
}

template <typename F>
Tensor apply_unary(const Tensor& a, F&& f) {
  Tensor out(a.dtype(), a.shape());
  int64_t n = out.size();
  if (a.contiguous()) {
    const double* pa = a.data();
    double* po = out.data();
    DType dt = out.dtype();
    for (int64_t i = 0; i < n; ++i) po[i] = cast_to(dt, f(pa[i]));
    return out;
  }
  for (int64_t i = 0; i < n; ++i) out.set_flat(i, f(a.get_flat(i)));
  return out;
}

// Fold f over the elements of a non-empty tensor in flat order, from the
// first: a contiguous view through its pointer, any other through
// get_flat.  Both visit the same elements in the same order, so a NaN or
// a signed zero picks the same result on either path.
template <typename F>
double fold_all(const Tensor& a, F&& f) {
  if (a.contiguous()) {
    const double* p = a.data();
    double m = p[0];
    for (int64_t i = 1, n = a.size(); i < n; ++i) m = f(m, p[i]);
    return m;
  }
  double m = a.get_flat(0);
  for (int64_t i = 1, n = a.size(); i < n; ++i) m = f(m, a.get_flat(i));
  return m;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return apply_binary(a, b, [](double x, double y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return apply_binary(a, b, [](double x, double y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return apply_binary(a, b, [](double x, double y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return apply_binary(a, b, [](double x, double y) { return x / y; });
}
Tensor pow(const Tensor& a, const Tensor& b) {
  return apply_binary(a, b, [](double x, double y) { return std::pow(x, y); });
}
Tensor minimum(const Tensor& a, const Tensor& b) {
  return apply_binary(a, b, [](double x, double y) { return std::min(x, y); });
}
Tensor maximum(const Tensor& a, const Tensor& b) {
  return apply_binary(a, b, [](double x, double y) { return std::max(x, y); });
}

Tensor neg(const Tensor& a) {
  return apply_unary(a, [](double x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return apply_unary(a, [](double x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return apply_unary(a, [](double x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) {
  return apply_unary(a, [](double x) { return std::sqrt(x); });
}
Tensor abs(const Tensor& a) {
  return apply_unary(a, [](double x) { return std::abs(x); });
}
Tensor sin(const Tensor& a) {
  return apply_unary(a, [](double x) { return std::sin(x); });
}
Tensor cos(const Tensor& a) {
  return apply_unary(a, [](double x) { return std::cos(x); });
}
Tensor tanh(const Tensor& a) {
  return apply_unary(a, [](double x) { return std::tanh(x); });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  DType dt = promote(a.dtype(), b.dtype());
  if (a.rank() == 1 && b.rank() == 1) return Tensor::scalar(dot(a, b), dt);
  if (a.rank() == 2 && b.rank() == 1) {
    DACE_CHECK(a.shape()[1] == b.shape()[0], "matmul: shape mismatch");
    int64_t m = a.shape()[0], k = a.shape()[1];
    Tensor out(dt, {m});
    Tensor ac = a.contiguous() ? a : a.copy();
    Tensor bc = b.contiguous() ? b : b.copy();
    const double* pa = ac.data();
    const double* pb = bc.data();
    double* po = out.data();
    split_product(m, 4, (double)m * (double)k * kMatVecNs,
                  [&](int64_t lo, int64_t hi) {
                    matvec_rows(pa, pb, po, dt, k, lo, hi);
                  });
    return out;
  }
  if (a.rank() == 1 && b.rank() == 2) {
    DACE_CHECK(a.shape()[0] == b.shape()[0], "matmul: shape mismatch");
    // out[j] = sum over l ascending of b[l,j] * a[l]: the rows of b are
    // streamed through their strides, never copied.  Each output sums the
    // same products in the same order as the matrix-vector path on b^T,
    // so the two agree bit for bit whatever the pool width.
    int64_t k = b.shape()[0], n = b.shape()[1];
    Tensor out(dt, {n});
    const double* pa = a.data();
    const double* pb = b.data();
    int64_t sa = a.strides()[0], sr = b.strides()[0], sc = b.strides()[1];
    double* po = out.data();
    split_product(n, 8, (double)k * (double)n * kVecMatNs,
                  [&](int64_t lo, int64_t hi) {
                    vecmat_cols(pa, sa, pb, sr, sc, po, k, lo, hi);
                    for (int64_t j = lo; j < hi; ++j)
                      po[j] = cast_to(dt, po[j]);
                  });
    return out;
  }
  DACE_CHECK(a.rank() == 2 && b.rank() == 2, "matmul: unsupported ranks ",
             a.rank(), "x", b.rank());
  DACE_CHECK(a.shape()[1] == b.shape()[0], "matmul: inner dim mismatch ",
             a.shape()[1], " vs ", b.shape()[0]);
  int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor out(dt, {m, n});
  Tensor ac = a.contiguous() ? a : a.copy();
  Tensor bc = b.contiguous() ? b : b.copy();
  const double* pa = ac.data();
  const double* pb = bc.data();
  double* po = out.data();
  split_product(m, 4, (double)m * (double)k * (double)n * kMatMatNs,
                [&](int64_t lo, int64_t hi) {
                  matmul_rows(pa, pb, po, k, n, lo, hi);
                  if (dt == DType::f64) return;
                  for (int64_t i = lo * n; i < hi * n; ++i)
                    po[i] = cast_to(dt, po[i]);
                });
  return out;
}

Tensor outer(const Tensor& a, const Tensor& b) {
  DACE_CHECK(a.rank() == 1 && b.rank() == 1, "outer: vectors required");
  int64_t m = a.shape()[0], n = b.shape()[0];
  Tensor out(promote(a.dtype(), b.dtype()), {m, n});
  const double* pa = a.data();
  const double* pb = b.data();
  int64_t sa = a.strides()[0], sb = b.strides()[0];
  double* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    double av = pa[i * sa];
    for (int64_t j = 0; j < n; ++j) po[i * n + j] = av * pb[j * sb];
  }
  return out;
}

double dot(const Tensor& a, const Tensor& b) {
  DACE_CHECK(a.rank() == 1 && b.rank() == 1 && a.shape() == b.shape(),
             "dot: shape mismatch");
  const double* pa = a.data();
  const double* pb = b.data();
  int64_t sa = a.strides()[0], sb = b.strides()[0];
  double acc = 0;
  for (int64_t i = 0, n = a.size(); i < n; ++i) acc += pa[i * sa] * pb[i * sb];
  return acc;
}

double sum_all(const Tensor& a) {
  double acc = 0;
  if (a.contiguous()) {
    const double* p = a.data();
    for (int64_t i = 0, n = a.size(); i < n; ++i) acc += p[i];
    return acc;
  }
  for (int64_t i = 0, n = a.size(); i < n; ++i) acc += a.get_flat(i);
  return acc;
}

Tensor sum_axis(const Tensor& a, int axis) {
  DACE_CHECK(axis >= 0 && axis < (int)a.rank(), "sum_axis: bad axis");
  std::vector<int64_t> oshape, ostrides;  // kept dims, with a's strides
  for (size_t d = 0; d < a.rank(); ++d) {
    if ((int)d == axis) continue;
    oshape.push_back(a.shape()[d]);
    ostrides.push_back(a.strides()[d]);
  }
  Tensor out(a.dtype(), oshape);
  const double* pa = a.data();
  double* po = out.data();
  int64_t red = a.shape()[axis], rs = a.strides()[axis];
  // Odometer over the output index; `off` is its element's offset in a.
  std::vector<int64_t> idx(oshape.size(), 0);
  int64_t off = 0;
  for (int64_t i = 0, n = out.size(); i < n; ++i) {
    double acc = 0;
    for (int64_t r = 0; r < red; ++r) acc += pa[off + r * rs];
    po[i] = cast_to(out.dtype(), acc);
    for (size_t d = idx.size(); d-- > 0;) {
      off += ostrides[d];
      if (++idx[d] < oshape[d]) break;
      off -= ostrides[d] * oshape[d];
      idx[d] = 0;
    }
  }
  return out;
}

double max_all(const Tensor& a) {
  DACE_CHECK(a.size() > 0, "max_all: empty tensor");
  return fold_all(a, [](double m, double x) { return std::max(m, x); });
}

double min_all(const Tensor& a) {
  DACE_CHECK(a.size() > 0, "min_all: empty tensor");
  return fold_all(a, [](double m, double x) { return std::min(m, x); });
}

}  // namespace dace::rt::ops
