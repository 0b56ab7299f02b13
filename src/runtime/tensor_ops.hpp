// Eager NumPy-style operation library on Tensor.
//
// Every operation allocates and returns a fresh result tensor (one
// temporary per operation), exactly like NumPy's eager evaluation model.
// This library is both (a) the "NumPy over CPython" baseline of the
// paper's Figure 7 -- the eager AST interpreter dispatches here -- and
// (b) the host-side reference path for library-node kernels.
//
// Binary operations follow NumPy trailing-dimension broadcasting.
#pragma once

#include <string>

#include "runtime/tensor.hpp"

namespace dace::rt::ops {

// -- elementwise binary (broadcasting) --------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor pow(const Tensor& a, const Tensor& b);
Tensor minimum(const Tensor& a, const Tensor& b);
Tensor maximum(const Tensor& a, const Tensor& b);

// -- elementwise unary -------------------------------------------------------
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor sin(const Tensor& a);
Tensor cos(const Tensor& a);
Tensor tanh(const Tensor& a);

// -- linear algebra ----------------------------------------------------------
/// Matrix product: 2Dx2D, 2Dx1D, 1Dx2D or 1Dx1D (dot).  Every output adds
/// its products for l ascending, starting from +0.0, so results do not
/// depend on the form, the operand layout, the pool width or the vector
/// width.
Tensor matmul(const Tensor& a, const Tensor& b);
/// True when `out` can take matmul(a, b) in place: a contiguous view of
/// the product's shape and promoted dtype that shares no element with
/// either operand.
bool can_matmul_into(const Tensor& out, const Tensor& a, const Tensor& b);
/// matmul(a, b) written into `out`, whatever it held; requires
/// can_matmul_into(out, a, b) (the overlap is not checked).
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b);
/// Doubles per vector register in the product loops: the widest this CPU
/// runs (8 with AVX-512F, 4 with AVX2, else 2), chosen once per process
/// and recorded in the gauge dacepp_library_vector_width.
int vector_width();
/// Outer product of two vectors.
Tensor outer(const Tensor& a, const Tensor& b);
/// Dot product of two vectors.
double dot(const Tensor& a, const Tensor& b);

// -- reductions --------------------------------------------------------------
/// Sum of all elements.
double sum_all(const Tensor& a);
/// Sum along one axis (result rank = rank-1).
Tensor sum_axis(const Tensor& a, int axis);
double max_all(const Tensor& a);
double min_all(const Tensor& a);

/// Broadcast two shapes (throws on incompatibility).
std::vector<int64_t> broadcast_shapes(const std::vector<int64_t>& a,
                                      const std::vector<int64_t>& b);

/// Result dtype of combining two operands (f64 wins over f32; floats win
/// over ints), mirroring NumPy promotion for the types we support.
DType promote(DType a, DType b);

namespace detail {
/// matmul at a given vector width: 2, or on x86-64 also 4 or 8.  The CPU
/// must run it (width <= vector_width()).  Lets the tests check every
/// width the host runs, not just the one it picks.
Tensor matmul_at_width(const Tensor& a, const Tensor& b, int width);
}  // namespace detail

}  // namespace dace::rt::ops
