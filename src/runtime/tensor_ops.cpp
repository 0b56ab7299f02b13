#include "runtime/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/metrics.hpp"
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

// The product loops keep parts of the output in registers, in GCC
// `vector_size` vectors of W doubles.  W = 2 is built at the library's
// baseline flags (SSE2); on x86-64, W = 4 and W = 8 are the same
// templates inlined into target("avx2") and target("avx512f") wrappers,
// and the widest the CPU runs is picked once per process.  No
// intrinsics: a vector multiply and add round each lane exactly as the
// scalar ones do, and this file is built with -ffp-contract=off, so no
// width fuses a multiply-add.  So every output still adds its products
// for l ascending, from +0.0, one rounding per multiply and one per add,
// at every width.
//
// Each width is spelled as its own type (GCC drops `vector_size` on a
// dependent alias template), and vectors stay out of signatures: the
// helpers take them by reference and are always inlined, so no wide
// vector crosses a call compiled without its instruction set.
using f64x2 = double __attribute__((vector_size(16)));
using f64x4 = double __attribute__((vector_size(32)));
using f64x8 = double __attribute__((vector_size(64)));

template <int W>
using Vec = std::conditional_t<W == 2, f64x2,
                               std::conditional_t<W == 4, f64x4, f64x8>>;

#define DACE_INLINE inline __attribute__((always_inline))

template <typename V>
DACE_INLINE void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}
template <typename V>
DACE_INLINE void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// C[0:4, 0:2W] += A[0:4, l0:l1] * B[l0:l1, 0:2W] in eight accumulators.
template <int W>
DACE_INLINE void tile_4x(const double* a, int64_t lda, const double* b,
                         int64_t ldb, double* c, int64_t ldc, int64_t l0,
                         int64_t l1) {
  using V = Vec<W>;
  const double* a1 = a + lda;
  const double* a2 = a1 + lda;
  const double* a3 = a2 + lda;
  double* c1 = c + ldc;
  double* c2 = c1 + ldc;
  double* c3 = c2 + ldc;
  V c00, c01, c10, c11, c20, c21, c30, c31, b0, b1;
  load(c00, c), load(c01, c + W), load(c10, c1), load(c11, c1 + W);
  load(c20, c2), load(c21, c2 + W), load(c30, c3), load(c31, c3 + W);
  const double* bl = b + l0 * ldb;
  for (int64_t l = l0; l < l1; ++l, bl += ldb) {
    load(b0, bl), load(b1, bl + W);
    c00 += a[l] * b0;
    c01 += a[l] * b1;
    c10 += a1[l] * b0;
    c11 += a1[l] * b1;
    c20 += a2[l] * b0;
    c21 += a2[l] * b1;
    c30 += a3[l] * b0;
    c31 += a3[l] * b1;
  }
  store(c, c00), store(c + W, c01), store(c1, c10), store(c1 + W, c11);
  store(c2, c20), store(c2 + W, c21), store(c3, c30), store(c3 + W, c31);
}

// One row of tile_4x, for the rows past the last whole tile.
template <int W>
DACE_INLINE void tile_1x(const double* a, const double* b, int64_t ldb,
                         double* c, int64_t l0, int64_t l1) {
  using V = Vec<W>;
  V c0, c1, b0, b1;
  load(c0, c), load(c1, c + W);
  const double* bl = b + l0 * ldb;
  for (int64_t l = l0; l < l1; ++l, bl += ldb) {
    load(b0, bl), load(b1, bl + W);
    c0 += a[l] * b0;
    c1 += a[l] * b1;
  }
  store(c, c0), store(c + W, c1);
}

// Columns [j, n) of `rows` rows of C (at most 4) over the k-block
// [l0, l1): tiles 2W wide, the rest at half the width, and a scalar
// chain per element past the last 4-wide tile.
template <int W>
DACE_INLINE void row_block(const double* a, int64_t k, const double* b,
                           int64_t n, double* c, int64_t rows, int64_t j,
                           int64_t l0, int64_t l1) {
  for (; j + 2 * W <= n; j += 2 * W) {
    if (rows == 4) {
      tile_4x<W>(a, k, b + j, n, c + j, n, l0, l1);
    } else {
      for (int64_t r = 0; r < rows; ++r)
        tile_1x<W>(a + r * k, b + j, n, c + r * n + j, l0, l1);
    }
  }
  if constexpr (W > 2) {
    row_block<W / 2>(a, k, b, n, c, rows, j, l0, l1);
  } else {
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t jj = j; jj < n; ++jj) {
        double acc = c[r * n + jj];
        for (int64_t l = l0; l < l1; ++l) acc += a[r * k + l] * b[l * n + jj];
        c[r * n + jj] = acc;
      }
    }
  }
}

// C += A * B, all row-major: A is m x k, B is k x n.
struct MatMat {
  const double* a;
  const double* b;
  double* c;
  int64_t k, n;
};

// Rows [lo, hi) of C: k-blocks outermost, tiles of 4 rows reloaded from
// C between blocks.
template <int W>
DACE_INLINE void matmul_rows(const MatMat& p, int64_t lo, int64_t hi) {
  constexpr int64_t BK = 64;
  for (int64_t kk = 0; kk < p.k; kk += BK) {
    int64_t kend = std::min(p.k, kk + BK);
    for (int64_t i = lo; i < hi; i += 4) {
      row_block<W>(p.a + i * p.k, p.k, p.b, p.n, p.c + i * p.n,
                   std::min<int64_t>(4, hi - i), 0, kk, kend);
    }
  }
}

// y += x * B: x is a k-vector at stride sx, B's rows are at stride sr
// and its columns at stride sc, y is contiguous.
struct VecMat {
  const double* x;
  int64_t sx;
  const double* b;
  int64_t sr, sc;
  double* y;
  int64_t k;
};

// Columns [j, hi) of y over the rows [l0, l1) of B, at sc = 1: 4W
// outputs in four accumulators per block, the rest at half the width.
// Returns the first column past the last 8-wide block.
template <int W>
DACE_INLINE int64_t vecmat_blocks(const VecMat& p, int64_t j, int64_t hi,
                                  int64_t l0, int64_t l1) {
  using V = Vec<W>;
  for (; j + 4 * W <= hi; j += 4 * W) {
    double* yj = p.y + j;
    V s0, s1, s2, s3, b0, b1, b2, b3;
    load(s0, yj), load(s1, yj + W), load(s2, yj + 2 * W);
    load(s3, yj + 3 * W);
    for (int64_t l = l0; l < l1; ++l) {
      double xv = p.x[l * p.sx];
      const double* bl = p.b + l * p.sr + j;
      load(b0, bl), load(b1, bl + W), load(b2, bl + 2 * W);
      load(b3, bl + 3 * W);
      s0 += b0 * xv;
      s1 += b1 * xv;
      s2 += b2 * xv;
      s3 += b3 * xv;
    }
    store(yj, s0), store(yj + W, s1), store(yj + 2 * W, s2);
    store(yj + 3 * W, s3);
  }
  if constexpr (W > 2) {
    return vecmat_blocks<W / 2>(p, j, hi, l0, l1);
  } else {
    return j;
  }
}

// Columns [lo, hi) of y: l-blocks outermost; at unit column stride the
// outputs are held in registers and reloaded between blocks, and every
// other column (the last few, or all of them at sc != 1) runs a scalar
// chain.
template <int W>
DACE_INLINE void vecmat_cols(const VecMat& p, int64_t lo, int64_t hi) {
  constexpr int64_t BL = 16;
  for (int64_t l0 = 0; l0 < p.k; l0 += BL) {
    int64_t l1 = std::min(p.k, l0 + BL);
    int64_t j = p.sc == 1 ? vecmat_blocks<W>(p, lo, hi, l0, l1) : lo;
    for (; j < hi; ++j) {
      double acc = p.y[j];
      for (int64_t l = l0; l < l1; ++l)
        acc += p.b[l * p.sr + j * p.sc] * p.x[l * p.sx];
      p.y[j] = acc;
    }
  }
}

#undef DACE_INLINE

// The loops at each width, compiled for the instruction set it needs.
void matmul_rows_2(const MatMat& p, int64_t lo, int64_t hi) {
  matmul_rows<2>(p, lo, hi);
}
void vecmat_cols_2(const VecMat& p, int64_t lo, int64_t hi) {
  vecmat_cols<2>(p, lo, hi);
}
#if defined(__x86_64__)
__attribute__((target("avx2"))) void matmul_rows_4(const MatMat& p,
                                                   int64_t lo, int64_t hi) {
  matmul_rows<4>(p, lo, hi);
}
__attribute__((target("avx2"))) void vecmat_cols_4(const VecMat& p,
                                                   int64_t lo, int64_t hi) {
  vecmat_cols<4>(p, lo, hi);
}
__attribute__((target("avx512f"))) void matmul_rows_8(const MatMat& p,
                                                      int64_t lo,
                                                      int64_t hi) {
  matmul_rows<8>(p, lo, hi);
}
__attribute__((target("avx512f"))) void vecmat_cols_8(const VecMat& p,
                                                      int64_t lo,
                                                      int64_t hi) {
  vecmat_cols<8>(p, lo, hi);
}
#endif

// Threading follows NumPy's profile: element-wise ops run on the calling
// thread, as ufuncs do, and the three matrix products split their output
// by the pool's cost rule, as MKL threads its BLAS.  Each product form
// charges what one multiply-add of its loop costs, measured serially on
// a 4-vCPU Xeon (GCC 12.2, -O2) over the suite's shapes, as medians of
// three runs: matrix x matrix 0.17-0.18 ns at width 2, 0.07-0.08 ns at
// width 4 and 0.05 ns at width 8.  The vector forms are memory-bound at
// the suite's large shapes and cost the same at every width: 0.30-0.33
// ns for vector x matrix, 0.39-0.62 ns for matrix x vector (which keeps
// its scalar chains).  So a 64^3 product (13-47 us) and a 64x64 vector
// x matrix (about 1 us) run inline.
struct Products {
  int width;
  void (*matmul_rows)(const MatMat&, int64_t, int64_t);
  void (*vecmat_cols)(const VecMat&, int64_t, int64_t);
  double mat_mat_ns;
};
constexpr Products kProducts[] = {
    {2, matmul_rows_2, vecmat_cols_2, 0.18},
#if defined(__x86_64__)
    {4, matmul_rows_4, vecmat_cols_4, 0.07},
    {8, matmul_rows_8, vecmat_cols_8, 0.05},
#endif
};
constexpr double kMatVecNs = 0.5;
constexpr double kVecMatNs = 0.3;

const Products& products_at(int width) {
  for (const Products& p : kProducts)
    if (p.width == width) return p;
  throw err("matmul: no vector width ", width);
}

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

// out = a * b, out zero-filled, contiguous, of the product's shape and
// the promoted dtype, and sharing no element with a or b.
void product_into(Tensor& out, const Tensor& a, const Tensor& b,
                  int width) {
  const Products& pr = products_at(width);
  DType dt = out.dtype();
  double* po = out.data();
  if (a.rank() == 1 && b.rank() == 1) {
    po[0] = cast_to(dt, dot(a, b));
    return;
  }
  if (a.rank() == 2 && b.rank() == 1) {
    int64_t m = a.shape()[0], k = a.shape()[1];
    Tensor ac = a.contiguous() ? a : a.copy();
    Tensor bc = b.contiguous() ? b : b.copy();
    const double* pa = ac.data();
    const double* pb = bc.data();
    split_product(m, 4, (double)m * (double)k * kMatVecNs,
                  [&](int64_t lo, int64_t hi) {
                    matvec_rows(pa, pb, po, dt, k, lo, hi);
                  });
    return;
  }
  if (a.rank() == 1) {
    // out[j] = sum over l ascending of b[l,j] * a[l]: the rows of b are
    // streamed through their strides, never copied.  Each output sums the
    // same products in the same order as the matrix-vector path on b^T,
    // so the two agree bit for bit whatever the pool width.
    int64_t k = b.shape()[0], n = b.shape()[1];
    VecMat p{a.data(), a.strides()[0], b.data(), b.strides()[0],
             b.strides()[1], po, k};
    split_product(n, 4 * width, (double)k * (double)n * kVecMatNs,
                  [&](int64_t lo, int64_t hi) {
                    pr.vecmat_cols(p, lo, hi);
                    for (int64_t j = lo; j < hi; ++j)
                      po[j] = cast_to(dt, po[j]);
                  });
    return;
  }
  int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor ac = a.contiguous() ? a : a.copy();
  Tensor bc = b.contiguous() ? b : b.copy();
  MatMat p{ac.data(), bc.data(), po, k, n};
  split_product(m, 4, (double)m * (double)k * (double)n * pr.mat_mat_ns,
                [&](int64_t lo, int64_t hi) {
                  pr.matmul_rows(p, lo, hi);
                  if (dt == DType::f64) return;
                  for (int64_t i = lo * n; i < hi * n; ++i)
                    po[i] = cast_to(dt, po[i]);
                });
}

// Throws unless a * b is defined: ranks 1 or 2 and equal inner dims.
void check_product(const Tensor& a, const Tensor& b) {
  DACE_CHECK(a.rank() >= 1 && a.rank() <= 2 && b.rank() >= 1 &&
                 b.rank() <= 2,
             "matmul: unsupported ranks ", a.rank(), "x", b.rank());
  DACE_CHECK(a.shape().back() == b.shape()[0], "matmul: inner dim mismatch ",
             a.shape().back(), " vs ", b.shape()[0]);
}

// True when `out` has the shape of a * b: a's rows if a is a matrix,
// then b's columns if b is one.
bool has_product_shape(const Tensor& out, const Tensor& a, const Tensor& b) {
  return out.rank() == (size_t)(a.rank() == 2) + (b.rank() == 2) &&
         (a.rank() != 2 || out.shape().front() == a.shape()[0]) &&
         (b.rank() != 2 || out.shape().back() == b.shape()[1]);
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

int vector_width() {
  static const int width = [] {
    int w = 2;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
      w = 8;
    } else if (__builtin_cpu_supports("avx2")) {
      w = 4;
    }
#endif
    METRIC_GAUGE_SET("dacepp_library_vector_width", w);
    return w;
  }();
  return width;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return detail::matmul_at_width(a, b, vector_width());
}

bool can_matmul_into(const Tensor& out, const Tensor& a, const Tensor& b) {
  return out.contiguous() && out.dtype() == promote(a.dtype(), b.dtype()) &&
         has_product_shape(out, a, b) && !out.overlaps(a) &&
         !out.overlaps(b);
}

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  check_product(a, b);
  DACE_CHECK(out.contiguous() && out.dtype() == promote(a.dtype(), b.dtype()) &&
                 has_product_shape(out, a, b),
             "matmul_into: output is not a contiguous view of the product's "
             "shape and dtype");
  out.fill(0.0);
  product_into(out, a, b, vector_width());
}

namespace detail {
Tensor matmul_at_width(const Tensor& a, const Tensor& b, int width) {
  check_product(a, b);
  std::vector<int64_t> shape;
  if (a.rank() == 2) shape.push_back(a.shape()[0]);
  if (b.rank() == 2) shape.push_back(b.shape()[1]);
  Tensor out(promote(a.dtype(), b.dtype()), std::move(shape));
  product_into(out, a, b, width);
  return out;
}
}  // namespace detail

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
