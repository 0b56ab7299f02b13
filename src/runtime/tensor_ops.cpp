#include "runtime/tensor_ops.hpp"

#include <algorithm>
#include <cmath>

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
// by the pool's cost rule, as MKL threads its BLAS.  A multiply-add is
// charged 1 ns (measured serially on a 4-vCPU Xeon: 0.57-0.95 ns over
// shapes 64..1024), so a 64x64 vector-matrix product runs inline.
constexpr double kMultiplyAddNs = 1.0;

void split_product(int64_t n, double multiply_adds,
                   function_ref<void(int64_t, int64_t)> body) {
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(n, pool.chunks_for(n, multiply_adds * kMultiplyAddNs),
                    body);
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
    split_product(m, (double)m * (double)k, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        double acc = 0;
        for (int64_t j = 0; j < k; ++j) acc += pa[i * k + j] * pb[j];
        po[i] = cast_to(dt, acc);
      }
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
    split_product(n, (double)k * (double)n, [&](int64_t lo, int64_t hi) {
      for (int64_t l = 0; l < k; ++l) {
        double av = pa[l * sa];
        const double* bl = pb + l * sr;
        for (int64_t j = lo; j < hi; ++j) po[j] += bl[j * sc] * av;
      }
      for (int64_t j = lo; j < hi; ++j) po[j] = cast_to(dt, po[j]);
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
  // Blocked i-k-j loop ordering: streaming access on B and C.
  constexpr int64_t BK = 64;
  double madds = (double)m * (double)k * (double)n;
  split_product(m, madds, [&](int64_t lo, int64_t hi) {
    for (int64_t kk = 0; kk < k; kk += BK) {
      int64_t kend = std::min(k, kk + BK);
      for (int64_t i = lo; i < hi; ++i) {
        double* ci = po + i * n;
        for (int64_t l = kk; l < kend; ++l) {
          double av = pa[i * k + l];
          const double* bl = pb + l * n;
          for (int64_t j = 0; j < n; ++j) ci[j] += av * bl[j];
        }
      }
    }
  });
  if (dt != DType::f64) {
    for (int64_t i = 0; i < out.size(); ++i)
      out.set_flat(i, out.get_flat(i));
  }
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
  double m = a.get_flat(0);
  for (int64_t i = 1; i < a.size(); ++i) m = std::max(m, a.get_flat(i));
  return m;
}

double min_all(const Tensor& a) {
  DACE_CHECK(a.size() > 0, "min_all: empty tensor");
  double m = a.get_flat(0);
  for (int64_t i = 1; i < a.size(); ++i) m = std::min(m, a.get_flat(i));
  return m;
}

}  // namespace dace::rt::ops
