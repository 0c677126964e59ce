#include "kernel/library.h"

namespace disc {

Result<LibraryCallStats> ComputeLibraryStats(const Node& node,
                                             const ShapeTable& shapes) {
  LibraryCallStats stats;
  for (const Value* operand : node.operands()) {
    stats.bytes_read +=
        shapes.num_elements(operand) * DTypeSize(operand->dtype());
  }
  for (const Value* out : node.outputs()) {
    stats.bytes_written += shapes.num_elements(out) * DTypeSize(out->dtype());
  }

  switch (node.kind()) {
    case OpKind::kMatMul: {
      const std::span<const int64_t> a = shapes.dims(node.operand(0));
      bool ta = node.GetIntAttr("transpose_a", 0) != 0;
      int64_t k = a[a.size() - (ta ? 2 : 1)];
      // out = [batch..., m, n]; flops = 2 * batch * m * n * k.
      stats.flops = 2 * shapes.num_elements(node.output(0)) * k;
      return stats;
    }
    case OpKind::kConv2D: {
      const std::span<const int64_t> filter = shapes.dims(node.operand(1));
      // flops = 2 * (N*OH*OW*OC) * (KH*KW*C).
      stats.flops = 2 * shapes.num_elements(node.output(0)) * filter[0] *
                    filter[1] * filter[2];
      return stats;
    }
    default:
      return Status::InvalidArgument(std::string(OpName(node.kind())) +
                                     " is not a library op");
  }
}

}  // namespace disc
