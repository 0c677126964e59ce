// Library-backed kernels (the cuBLAS/cuDNN analog).
//
// MatMul and Conv2D are not code-generated — like the paper's system, the
// compiler schedules them as calls into a tuned vendor library and fuses
// the memory-bound operators around them. Execution runs the variant of
// the ir/contraction kernels that SelectContraction picks for the host CPU,
// dtype and shape, through the ContractionCall the launch plan resolved
// (ResolveContraction in ir/eval.h, which the reference evaluator shares);
// this header supplies the resource footprint the device model charges for
// the call.
#ifndef DISC_KERNEL_LIBRARY_H_
#define DISC_KERNEL_LIBRARY_H_

#include "ir/graph.h"
#include "shape/shape_analysis.h"
#include "support/status.h"

namespace disc {

struct LibraryCallStats {
  int64_t flops = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
};

/// \brief True for ops dispatched to the vendor library.
inline bool IsLibraryOp(OpKind kind) {
  return GetOpInfo(kind).op_class == OpClass::kLibrary;
}

/// \brief Footprint of a library call at the dims `shapes` holds.
Result<LibraryCallStats> ComputeLibraryStats(const Node& node,
                                             const ShapeTable& shapes);

}  // namespace disc

#endif  // DISC_KERNEL_LIBRARY_H_
