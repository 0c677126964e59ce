#include "ir/attribute.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <sstream>
#include <string_view>

#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

std::string Attribute::ToString() const {
  std::ostringstream out;
  if (IsInt()) {
    out << AsInt();
  } else if (IsFloat()) {
    out << AsFloat();
  } else if (IsString()) {
    out << '"' << AsString() << '"';
  } else if (IsIntList()) {
    out << "[" << Join(AsIntList(), ", ") << "]";
  } else if (IsDType()) {
    out << DTypeName(AsDType());
  } else if (IsTensor()) {
    out << AsTensor().ToString(64);
  }
  return out.str();
}

bool Attribute::operator==(const Attribute& other) const {
  if (value_.index() != other.value_.index()) return false;
  if (IsInt()) return AsInt() == other.AsInt();
  if (IsFloat()) {
    return std::bit_cast<uint64_t>(AsFloat()) ==
           std::bit_cast<uint64_t>(other.AsFloat());
  }
  if (IsString()) return AsString() == other.AsString();
  if (IsIntList()) return AsIntList() == other.AsIntList();
  if (IsDType()) return AsDType() == other.AsDType();
  if (IsTensor()) return Tensor::BitEqual(AsTensor(), other.AsTensor());
  return false;
}

size_t Attribute::Hash() const {
  uint64_t h = HashMix(0, value_.index());
  if (IsInt()) return HashMix(h, static_cast<uint64_t>(AsInt()));
  if (IsFloat()) return HashMix(h, std::bit_cast<uint64_t>(AsFloat()));
  if (IsString()) return HashMix(h, std::hash<std::string>()(AsString()));
  if (IsDType()) return HashMix(h, static_cast<uint64_t>(AsDType()));
  if (IsIntList()) {
    for (int64_t v : AsIntList()) h = HashMix(h, static_cast<uint64_t>(v));
    return h;
  }
  const Tensor& t = AsTensor();
  h = HashMix(h, static_cast<uint64_t>(t.dtype()));
  for (int64_t d : t.dims()) h = HashMix(h, static_cast<uint64_t>(d));
  const int64_t prefix = std::min<int64_t>(t.num_elements(), 64);
  if (prefix == 0) return h;
  const size_t bytes = static_cast<size_t>(prefix) *
                       (t.dtype() == DType::kF32 ? sizeof(float)
                                                 : sizeof(int64_t));
  return HashMix(h, std::hash<std::string_view>()(std::string_view(
                        static_cast<const char*>(t.raw_data()), bytes)));
}

}  // namespace disc
