// Element types supported by the compiler.
//
// The set is deliberately small: f32 carries all "real" model data, i64
// carries shapes/indices (mirroring how real stacks compute shapes in i64),
// and i1 carries predicates. This keeps the execution engine simple while
// exercising every dtype-related code path (casts, mixed-type ops, shape
// tensors) the paper's system needs.
#ifndef DISC_IR_DTYPE_H_
#define DISC_IR_DTYPE_H_

#include <cstdint>
#include <string>

namespace disc {

enum class DType : uint8_t {
  kF32 = 0,
  kI64 = 1,
  kI1 = 2,  // boolean
};

/// \brief Size of one element in bytes.
inline int64_t DTypeSize(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return 4;
    case DType::kI64:
      return 8;
    case DType::kI1:
      return 1;
  }
  return 0;
}

/// \brief Lower-case name ("f32", "i64", "i1").
const char* DTypeName(DType dtype);

/// \brief True for i64/i1.
constexpr bool IsIntegral(DType dtype) { return dtype != DType::kF32; }

}  // namespace disc

#endif  // DISC_IR_DTYPE_H_
