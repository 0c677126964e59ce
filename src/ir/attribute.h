// Node attributes: a small tagged union plus an ordered attribute map.
#ifndef DISC_IR_ATTRIBUTE_H_
#define DISC_IR_ATTRIBUTE_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "ir/dtype.h"
#include "ir/tensor.h"
#include "support/logging.h"

namespace disc {

/// \brief Attribute value: int, float, string, int list, dtype or tensor.
class Attribute {
 public:
  Attribute() : value_(int64_t{0}) {}
  /*implicit*/ Attribute(int64_t v) : value_(v) {}
  /*implicit*/ Attribute(int v) : value_(static_cast<int64_t>(v)) {}
  /*implicit*/ Attribute(bool v) : value_(static_cast<int64_t>(v)) {}
  /*implicit*/ Attribute(double v) : value_(v) {}
  /*implicit*/ Attribute(std::string v) : value_(std::move(v)) {}
  /*implicit*/ Attribute(const char* v) : value_(std::string(v)) {}
  /*implicit*/ Attribute(std::vector<int64_t> v) : value_(std::move(v)) {}
  /*implicit*/ Attribute(DType v) : value_(v) {}
  /*implicit*/ Attribute(Tensor v) : value_(std::move(v)) {}

  bool IsInt() const { return std::holds_alternative<int64_t>(value_); }
  bool IsFloat() const { return std::holds_alternative<double>(value_); }
  bool IsString() const { return std::holds_alternative<std::string>(value_); }
  bool IsIntList() const {
    return std::holds_alternative<std::vector<int64_t>>(value_);
  }
  bool IsDType() const { return std::holds_alternative<DType>(value_); }
  bool IsTensor() const { return std::holds_alternative<Tensor>(value_); }

  int64_t AsInt() const { return std::get<int64_t>(value_); }
  double AsFloat() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }
  const std::vector<int64_t>& AsIntList() const {
    return std::get<std::vector<int64_t>>(value_);
  }
  DType AsDType() const { return std::get<DType>(value_); }
  const Tensor& AsTensor() const { return std::get<Tensor>(value_); }

  /// \brief Debug rendering, e.g. "[2, 3]" or "f32[2x2]{...}".
  std::string ToString() const;

  /// \brief Structural equality. Floats and tensors compare by bits, so
  /// -0.0 differs from +0.0 and a NaN equals a NaN with the same bits:
  /// equal attributes are interchangeable wherever they are read.
  bool operator==(const Attribute& other) const;

  /// \brief Hash consistent with operator==. A tensor contributes its
  /// dtype, its dims and the bits of its first 64 elements, so hashing a
  /// large constant costs no more than hashing a small one.
  size_t Hash() const;

 private:
  std::variant<int64_t, double, std::string, std::vector<int64_t>, DType,
               Tensor>
      value_;
};

/// Ordered attribute map (ordered so printing/hashing is deterministic).
using AttrMap = std::map<std::string, Attribute>;

}  // namespace disc

#endif  // DISC_IR_ATTRIBUTE_H_
