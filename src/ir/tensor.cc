#include "ir/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

namespace disc {

Tensor::Tensor(DType dtype, std::vector<int64_t> dims)
    : dtype_(dtype), dims_(std::move(dims)) {
  int64_t n = num_elements();
  DISC_CHECK_GE(n, 0);
  if (dtype_ == DType::kF32) {
    fdata_ = std::make_shared<std::vector<float>>(n, 0.0f);
  } else {
    idata_ = std::make_shared<std::vector<int64_t>>(n, 0);
  }
}

Tensor Tensor::F32(std::vector<int64_t> dims, std::vector<float> values) {
  Tensor t;
  t.dtype_ = DType::kF32;
  t.dims_ = std::move(dims);
  DISC_CHECK_EQ(t.num_elements(), static_cast<int64_t>(values.size()));
  t.fdata_ = std::make_shared<std::vector<float>>(std::move(values));
  return t;
}

Tensor Tensor::I64(std::vector<int64_t> dims, std::vector<int64_t> values) {
  Tensor t;
  t.dtype_ = DType::kI64;
  t.dims_ = std::move(dims);
  DISC_CHECK_EQ(t.num_elements(), static_cast<int64_t>(values.size()));
  t.idata_ = std::make_shared<std::vector<int64_t>>(std::move(values));
  return t;
}

Tensor Tensor::I1(std::vector<int64_t> dims, std::vector<int64_t> values) {
  Tensor t = I64(std::move(dims), std::move(values));
  t.dtype_ = DType::kI1;
  for (int64_t& v : *t.idata_) v = (v != 0) ? 1 : 0;
  return t;
}

double Tensor::ElementAsDouble(int64_t linear_index) const {
  DISC_CHECK_GE(linear_index, 0);
  DISC_CHECK_LT(linear_index, num_elements());
  if (dtype_ == DType::kF32) return (*fdata_)[linear_index];
  return static_cast<double>((*idata_)[linear_index]);
}

void Tensor::SetElementFromDouble(int64_t linear_index, double value) {
  DISC_CHECK_GE(linear_index, 0);
  DISC_CHECK_LT(linear_index, num_elements());
  if (dtype_ == DType::kF32) {
    (*fdata_)[linear_index] = static_cast<float>(value);
  } else if (dtype_ == DType::kI1) {
    (*idata_)[linear_index] = (value != 0.0) ? 1 : 0;
  } else {
    (*idata_)[linear_index] = static_cast<int64_t>(value);
  }
}

Tensor Tensor::Clone() const {
  Tensor t;
  t.dtype_ = dtype_;
  t.dims_ = dims_;
  if (fdata_) t.fdata_ = std::make_shared<std::vector<float>>(*fdata_);
  if (idata_) t.idata_ = std::make_shared<std::vector<int64_t>>(*idata_);
  return t;
}

std::vector<int64_t> Tensor::Strides() const {
  std::vector<int64_t> strides(dims_.size(), 1);
  for (int64_t i = static_cast<int64_t>(dims_.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * dims_[i + 1];
  }
  return strides;
}

std::string Tensor::TypeString() const {
  std::ostringstream out;
  out << DTypeName(dtype_) << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) out << "x";
    out << dims_[i];
  }
  out << "]";
  return out.str();
}

std::string Tensor::ToString(int64_t max_elements) const {
  std::ostringstream out;
  out << TypeString() << " {";
  int64_t n = std::min(num_elements(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i) out << ", ";
    out << ElementAsDouble(i);
  }
  if (n < num_elements()) out << ", ...";
  out << "}";
  return out.str();
}

double Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  DISC_CHECK(a.dtype() == b.dtype());
  DISC_CHECK(a.dims() == b.dims());
  double max_diff = 0.0;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(a.ElementAsDouble(i) - b.ElementAsDouble(i)));
  }
  return max_diff;
}

bool Tensor::AllClose(const Tensor& a, const Tensor& b, double rtol,
                      double atol) {
  if (a.dtype() != b.dtype() || a.dims() != b.dims()) return false;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    double av = a.ElementAsDouble(i);
    double bv = b.ElementAsDouble(i);
    if (std::isnan(av) != std::isnan(bv)) return false;
    if (std::isnan(av)) continue;
    // An infinity matches only itself: atol + rtol * inf would admit any
    // value.
    if (std::isinf(av) || std::isinf(bv)) {
      if (av != bv) return false;
      continue;
    }
    if (std::abs(av - bv) > atol + rtol * std::abs(bv)) return false;
  }
  return true;
}

bool Tensor::BitEqual(const Tensor& a, const Tensor& b) {
  if (a.dtype() != b.dtype() || a.dims() != b.dims()) return false;
  const size_t n = static_cast<size_t>(a.num_elements());
  if (n == 0) return true;
  if (a.dtype() == DType::kF32) {
    return std::memcmp(a.fdata_->data(), b.fdata_->data(),
                       n * sizeof(float)) == 0;
  }
  return std::memcmp(a.idata_->data(), b.idata_->data(),
                     n * sizeof(int64_t)) == 0;
}

}  // namespace disc
