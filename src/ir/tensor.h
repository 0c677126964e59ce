// Concrete tensors: the runtime data container used by constants, the
// execution engines and tests.
//
// Storage model: f32 data lives in a float buffer; i64/i1 data lives in an
// int64 buffer (booleans stored as 0/1). Buffers are shared_ptr so tensors
// are cheap to copy (aliasing semantics like most ML runtimes).
#ifndef DISC_IR_TENSOR_H_
#define DISC_IR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/dtype.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace disc {

/// \brief A dense, row-major, concretely-shaped tensor.
class Tensor {
 public:
  Tensor() : dtype_(DType::kF32) {}

  /// \brief Allocates a zero-initialized tensor.
  Tensor(DType dtype, std::vector<int64_t> dims);

  /// \brief Creates an f32 tensor from explicit values (size must match).
  static Tensor F32(std::vector<int64_t> dims, std::vector<float> values);
  /// \brief Creates an i64 tensor from explicit values.
  static Tensor I64(std::vector<int64_t> dims, std::vector<int64_t> values);
  /// \brief Creates an i1 tensor from explicit 0/1 values.
  static Tensor I1(std::vector<int64_t> dims, std::vector<int64_t> values);
  /// \brief Rank-0 f32 scalar.
  static Tensor ScalarF32(float value) { return F32({}, {value}); }
  /// \brief Rank-0 i64 scalar.
  static Tensor ScalarI64(int64_t value) { return I64({}, {value}); }

  DType dtype() const { return dtype_; }
  const std::vector<int64_t>& dims() const { return dims_; }
  int64_t rank() const { return static_cast<int64_t>(dims_.size()); }
  int64_t num_elements() const { return Product(dims_); }
  int64_t byte_size() const { return num_elements() * DTypeSize(dtype_); }

  /// \brief Mutable f32 data; requires dtype()==kF32.
  float* f32_data() {
    DISC_CHECK(dtype_ == DType::kF32);
    return fdata_->data();
  }
  const float* f32_data() const {
    DISC_CHECK(dtype_ == DType::kF32);
    return fdata_->data();
  }
  /// \brief Mutable integer data; requires an integral dtype.
  int64_t* i64_data() {
    DISC_CHECK(IsIntegral(dtype_));
    return idata_->data();
  }
  const int64_t* i64_data() const {
    DISC_CHECK(IsIntegral(dtype_));
    return idata_->data();
  }

  /// \brief The element buffer, whatever the dtype: float for f32, int64_t
  /// for i64 and i1. Null for a default-constructed tensor, and possibly for
  /// an empty one.
  void* raw_data() {
    return dtype_ == DType::kF32 ? static_cast<void*>(fdata_ ? fdata_->data()
                                                             : nullptr)
                                 : (idata_ ? idata_->data() : nullptr);
  }
  const void* raw_data() const {
    return const_cast<Tensor*>(this)->raw_data();
  }
  /// \brief Element read as double regardless of dtype (for tests/printing).
  double ElementAsDouble(int64_t linear_index) const;
  /// \brief Element write from double regardless of dtype.
  void SetElementFromDouble(int64_t linear_index, double value);

  /// \brief Deep copy (new buffers).
  Tensor Clone() const;

  /// \brief Row-major strides for the current dims.
  std::vector<int64_t> Strides() const;

  /// \brief Short description, e.g. "f32[2x3]".
  std::string TypeString() const;
  /// \brief Values (truncated for large tensors), for debugging.
  std::string ToString(int64_t max_elements = 16) const;

  /// \brief Max |a-b| over elements; tensors must match in type and dims.
  static double MaxAbsDiff(const Tensor& a, const Tensor& b);
  /// \brief True when shapes/dtypes match and values agree within atol+rtol;
  /// NaN matches only NaN, and an infinity only the same infinity.
  static bool AllClose(const Tensor& a, const Tensor& b, double rtol = 1e-4,
                       double atol = 1e-5);
  /// \brief True when dtypes, dims and the bits of every element match.
  static bool BitEqual(const Tensor& a, const Tensor& b);

 private:
  DType dtype_;
  std::vector<int64_t> dims_;
  std::shared_ptr<std::vector<float>> fdata_;
  std::shared_ptr<std::vector<int64_t>> idata_;
};

}  // namespace disc

#endif  // DISC_IR_TENSOR_H_
