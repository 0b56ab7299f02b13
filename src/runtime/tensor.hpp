// NumPy-like dense tensor container.
//
// The runtime value type of DaCe++: an N-dimensional strided view over a
// shared element buffer, supporting zero-copy slicing like NumPy arrays.
// Elements are stored as doubles regardless of the declared dtype; dtypes
// narrower than f64 round on store (f32) or truncate (integers), emulating
// NumPy casting behaviour while keeping a single fast arithmetic path.
// This is the data container of every backend, including the simulated
// GPU/FPGA devices and the per-rank heaps of the distributed runtime.
#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "common/common.hpp"
#include "ir/types.hpp"

namespace dace::rt {

using ir::DType;

/// Round a double to the representable value of a dtype.
inline double cast_to(DType t, double v) {
  switch (t) {
    case DType::f64: return v;
    case DType::f32: return static_cast<double>(static_cast<float>(v));
    case DType::i64: return static_cast<double>(static_cast<int64_t>(v));
    case DType::i32: return static_cast<double>(static_cast<int32_t>(v));
    case DType::b8: return v != 0.0 ? 1.0 : 0.0;
  }
  return v;
}

class Tensor {
 public:
  /// Empty scalar (rank 0) of f64, value 0.
  Tensor() : Tensor(DType::f64, {}) {}

  /// Allocate a zero-initialized tensor.
  Tensor(DType dtype, std::vector<int64_t> shape);

  static Tensor scalar(double v, DType dtype = DType::f64) {
    Tensor t(dtype, {});
    t.at({}) = cast_to(dtype, v);
    return t;
  }

  static Tensor from_values(std::vector<int64_t> shape,
                            std::vector<double> values,
                            DType dtype = DType::f64);

  DType dtype() const { return dtype_; }
  const std::vector<int64_t>& shape() const { return shape_; }
  const std::vector<int64_t>& strides() const { return strides_; }
  size_t rank() const { return shape_.size(); }
  int64_t size() const;  // number of elements
  bool is_scalar() const { return shape_.empty(); }

  /// True if laid out contiguously in row-major order.
  bool contiguous() const;

  /// Raw element pointer at the view offset. Valid for direct indexing
  /// only when contiguous().
  double* data() { return buffer_->data() + offset_; }
  const double* data() const { return buffer_->data() + offset_; }

  /// Element access with multi-dimensional index (bounds-checked).
  double& at(const std::vector<int64_t>& idx);
  double at(const std::vector<int64_t>& idx) const;

  /// Flat element access honoring strides (index in logical order).
  double get_flat(int64_t i) const;
  void set_flat(int64_t i, double v);

  /// Scalar value of a rank-0 or single-element tensor.
  double value() const;

  /// Zero-copy slice: per-dimension [begin, end) with step.
  /// Dimensions listed in `drop` (single-index dims) are removed.
  Tensor slice(const std::vector<int64_t>& begin,
               const std::vector<int64_t>& end,
               const std::vector<int64_t>& step,
               const std::vector<bool>& drop = {}) const;
  /// slice() into `out` (another tensor), reusing its shape and stride
  /// storage, so a view rebuilt on every call allocates nothing.
  void slice_into(Tensor& out, const std::vector<int64_t>& begin,
                  const std::vector<int64_t>& end,
                  const std::vector<int64_t>& step,
                  const std::vector<bool>& drop = {}) const;

  /// Zero-copy transpose (reverses dims, or applies permutation).
  Tensor transpose() const;
  Tensor transpose(const std::vector<size_t>& perm) const;

  /// Zero-copy reshape; requires contiguity.
  Tensor reshape(std::vector<int64_t> new_shape) const;

  /// Deep copy into a fresh contiguous buffer (keeps dtype).
  Tensor copy() const;
  /// Deep copy with a different dtype (values re-cast).
  Tensor astype(DType t) const;

  /// Copy all elements from `src` (same shape) into this view.
  void assign_from(const Tensor& src);
  /// Fill with a constant (cast to dtype).
  void fill(double v);

  /// True if this view aliases the same buffer as `other`.
  bool same_buffer(const Tensor& other) const {
    return buffer_ == other.buffer_;
  }
  /// True if the address ranges of this view's elements and `other`'s
  /// intersect (the lowest to the highest element of each).
  bool overlaps(const Tensor& other) const;

  std::string to_string(int64_t max_elems = 32) const;

 private:
  DType dtype_ = DType::f64;
  std::vector<int64_t> shape_;
  std::vector<int64_t> strides_;  // in elements
  int64_t offset_ = 0;
  std::shared_ptr<std::vector<double>> buffer_;
};

/// Max |a-b| over all elements (shape must match); for test assertions.
double max_abs_diff(const Tensor& a, const Tensor& b);
/// Relative error with absolute floor; for test assertions.
bool allclose(const Tensor& a, const Tensor& b, double rtol = 1e-9,
              double atol = 1e-9);

}  // namespace dace::rt
