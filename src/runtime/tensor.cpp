#include "runtime/tensor.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace dace::rt {

namespace {
std::vector<int64_t> row_major_strides(const std::vector<int64_t>& shape) {
  std::vector<int64_t> st(shape.size(), 1);
  for (size_t d = shape.size(); d-- > 1;) st[d - 1] = st[d] * shape[d];
  return st;
}

int64_t shape_size(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  return n;
}

// Copy every element of a strided view into another view of the same
// shape, casting each to `dt`.  One odometer steps both offsets over the
// outer dimensions; the innermost dimension is a plain strided loop.
void strided_copy(const std::vector<int64_t>& shape, double* dst,
                  const std::vector<int64_t>& dst_strides, const double* src,
                  const std::vector<int64_t>& src_strides, DType dt) {
  if (shape_size(shape) == 0) return;
  size_t r = shape.size();
  if (r == 0) {
    *dst = cast_to(dt, *src);
    return;
  }
  int64_t inner = shape[r - 1];
  int64_t dsi = dst_strides[r - 1], ssi = src_strides[r - 1];
  std::vector<int64_t> idx(r - 1, 0);
  int64_t od = 0, os = 0;
  for (;;) {
    for (int64_t j = 0; j < inner; ++j)
      dst[od + j * dsi] = cast_to(dt, src[os + j * ssi]);
    size_t d = r - 1;
    for (;;) {
      if (d-- == 0) return;
      od += dst_strides[d];
      os += src_strides[d];
      if (++idx[d] < shape[d]) break;
      od -= dst_strides[d] * shape[d];
      os -= src_strides[d] * shape[d];
      idx[d] = 0;
    }
  }
}
}  // namespace

Tensor::Tensor(DType dtype, std::vector<int64_t> shape)
    : dtype_(dtype), shape_(std::move(shape)) {
  for (int64_t s : shape_)
    DACE_CHECK(s >= 0, "tensor: negative dimension ", s);
  strides_ = row_major_strides(shape_);
  buffer_ = std::make_shared<std::vector<double>>(
      static_cast<size_t>(shape_size(shape_)), 0.0);
}

Tensor Tensor::from_values(std::vector<int64_t> shape,
                           std::vector<double> values, DType dtype) {
  Tensor t(dtype, std::move(shape));
  DACE_CHECK((int64_t)values.size() == t.size(),
             "tensor: value count mismatch");
  for (size_t i = 0; i < values.size(); ++i)
    (*t.buffer_)[i] = cast_to(dtype, values[i]);
  return t;
}

int64_t Tensor::size() const { return shape_size(shape_); }

bool Tensor::contiguous() const {
  int64_t expect = 1;
  for (size_t d = shape_.size(); d-- > 0;) {
    if (strides_[d] != expect) return false;
    expect *= shape_[d];
  }
  return true;
}

double& Tensor::at(const std::vector<int64_t>& idx) {
  DACE_CHECK(idx.size() == shape_.size(), "tensor: index rank mismatch");
  int64_t off = offset_;
  for (size_t d = 0; d < idx.size(); ++d) {
    DACE_CHECK(idx[d] >= 0 && idx[d] < shape_[d], "tensor: index ", idx[d],
               " out of bounds for dim ", d, " (size ", shape_[d], ")");
    off += idx[d] * strides_[d];
  }
  return (*buffer_)[off];
}

double Tensor::at(const std::vector<int64_t>& idx) const {
  return const_cast<Tensor*>(this)->at(idx);
}

double Tensor::get_flat(int64_t i) const {
  if (contiguous()) return (*buffer_)[offset_ + i];
  int64_t off = offset_;
  for (size_t d = shape_.size(); d-- > 0;) {
    off += (i % shape_[d]) * strides_[d];
    i /= shape_[d];
  }
  return (*buffer_)[off];
}

void Tensor::set_flat(int64_t i, double v) {
  v = cast_to(dtype_, v);
  if (contiguous()) {
    (*buffer_)[offset_ + i] = v;
    return;
  }
  int64_t off = offset_;
  for (size_t d = shape_.size(); d-- > 0;) {
    off += (i % shape_[d]) * strides_[d];
    i /= shape_[d];
  }
  (*buffer_)[off] = v;
}

double Tensor::value() const {
  DACE_CHECK(size() == 1, "tensor: value() on non-scalar of size ", size());
  return (*buffer_)[offset_];
}

Tensor Tensor::slice(const std::vector<int64_t>& begin,
                     const std::vector<int64_t>& end,
                     const std::vector<int64_t>& step,
                     const std::vector<bool>& drop) const {
  DACE_CHECK(begin.size() == rank() && end.size() == rank() &&
                 step.size() == rank(),
             "tensor: slice rank mismatch");
  Tensor out = *this;
  out.shape_.clear();
  out.strides_.clear();
  out.offset_ = offset_;
  for (size_t d = 0; d < rank(); ++d) {
    DACE_CHECK(step[d] > 0, "tensor: non-positive slice step");
    DACE_CHECK(begin[d] >= 0 && begin[d] <= shape_[d] && end[d] >= begin[d] &&
                   end[d] <= shape_[d],
               "tensor: slice [", begin[d], ":", end[d], "] out of bounds ",
               "for dim ", d, " (size ", shape_[d], ")");
    out.offset_ += begin[d] * strides_[d];
    bool dropped = d < drop.size() && drop[d];
    if (!dropped) {
      int64_t extent = (end[d] - begin[d] + step[d] - 1) / step[d];
      out.shape_.push_back(extent);
      out.strides_.push_back(strides_[d] * step[d]);
    } else {
      DACE_CHECK(end[d] - begin[d] == 1, "tensor: dropping non-unit dim");
    }
  }
  return out;
}

Tensor Tensor::transpose() const {
  std::vector<size_t> perm(rank());
  std::iota(perm.rbegin(), perm.rend(), 0);
  return transpose(perm);
}

Tensor Tensor::transpose(const std::vector<size_t>& perm) const {
  DACE_CHECK(perm.size() == rank(), "tensor: transpose rank mismatch");
  Tensor out = *this;
  for (size_t d = 0; d < rank(); ++d) {
    out.shape_[d] = shape_[perm[d]];
    out.strides_[d] = strides_[perm[d]];
  }
  return out;
}

Tensor Tensor::reshape(std::vector<int64_t> new_shape) const {
  DACE_CHECK(contiguous(), "tensor: reshape of non-contiguous view");
  DACE_CHECK(shape_size(new_shape) == size(),
             "tensor: reshape element count mismatch");
  Tensor out = *this;
  out.shape_ = std::move(new_shape);
  out.strides_ = row_major_strides(out.shape_);
  return out;
}

Tensor Tensor::copy() const {
  Tensor out(dtype_, shape_);
  out.assign_from(*this);
  return out;
}

Tensor Tensor::astype(DType t) const {
  Tensor out(t, shape_);
  out.assign_from(*this);
  return out;
}

void Tensor::assign_from(const Tensor& src) {
  DACE_CHECK(src.shape_ == shape_, "tensor: assign shape mismatch");
  int64_t n = size();
  if (contiguous() && src.contiguous() && dtype_ == src.dtype_) {
    std::copy(src.buffer_->data() + src.offset_,
              src.buffer_->data() + src.offset_ + n,
              buffer_->data() + offset_);
    return;
  }
  // Aliasing-safe: if the views may overlap, stage through a buffer.
  if (same_buffer(src)) {
    std::vector<double> tmp(static_cast<size_t>(n));
    std::vector<int64_t> tmp_strides = row_major_strides(shape_);
    strided_copy(shape_, tmp.data(), tmp_strides, src.data(), src.strides_,
                 DType::f64);
    strided_copy(shape_, data(), strides_, tmp.data(), tmp_strides, dtype_);
    return;
  }
  strided_copy(shape_, data(), strides_, src.data(), src.strides_, dtype_);
}

void Tensor::fill(double v) {
  v = cast_to(dtype_, v);
  int64_t n = size();
  if (contiguous()) {
    std::fill(buffer_->data() + offset_, buffer_->data() + offset_ + n, v);
    return;
  }
  for (int64_t i = 0; i < n; ++i) set_flat(i, v);
}

std::string Tensor::to_string(int64_t max_elems) const {
  std::ostringstream os;
  os << dtype_name(dtype_) << "[";
  for (size_t d = 0; d < shape_.size(); ++d) {
    if (d) os << ", ";
    os << shape_[d];
  }
  os << "] {";
  int64_t n = std::min<int64_t>(size(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << get_flat(i);
  }
  if (size() > n) os << ", ...";
  os << "}";
  return os.str();
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  DACE_CHECK(a.shape() == b.shape(), "max_abs_diff: shape mismatch");
  double m = 0;
  for (int64_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.get_flat(i) - b.get_flat(i)));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, double rtol, double atol) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    double x = a.get_flat(i), y = b.get_flat(i);
    if (std::isnan(x) != std::isnan(y)) return false;
    if (std::isnan(x)) continue;
    if (std::abs(x - y) > atol + rtol * std::max(std::abs(x), std::abs(y)))
      return false;
  }
  return true;
}

}  // namespace dace::rt
