#include "runtime/allocator.h"

#include <algorithm>

#include "support/failpoint.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

namespace {
int64_t SizeClass(int64_t bytes) {
  return std::max<int64_t>(RoundUp(bytes, 256), 256);
}

Status NegativeSize(int64_t bytes) {
  return Status::InvalidArgument(StrFormat(
      "negative allocation size %lld", static_cast<long long>(bytes)));
}
}  // namespace

Result<int64_t> CachingAllocator::Allocate(int64_t bytes) {
  if (Status checked =
          CheckAllocation(bytes, stats_.bytes_in_use, memory_limit_bytes_);
      !checked.ok()) {
    // A negative size is misuse, not an allocator call.
    if (bytes >= 0) {
      ++stats_.alloc_calls;
      ++stats_.failed_allocs;
    }
    return checked;
  }
  return Reserve(bytes);
}

Status CachingAllocator::CheckAllocation(int64_t bytes, int64_t bytes_in_use,
                                         int64_t memory_limit_bytes) {
  if (bytes < 0) return NegativeSize(bytes);
  DISC_INJECT_FAILPOINT("runtime.alloc");
  const int64_t size = SizeClass(bytes);
  if (memory_limit_bytes > 0 && bytes_in_use + size > memory_limit_bytes) {
    return Status::ResourceExhausted(StrFormat(
        "allocating %lld B would exceed the %lld B device limit "
        "(%lld B in use)",
        static_cast<long long>(size),
        static_cast<long long>(memory_limit_bytes),
        static_cast<long long>(bytes_in_use)));
  }
  return Status::OK();
}

Result<int64_t> CachingAllocator::Reserve(int64_t bytes) {
  if (bytes < 0) return NegativeSize(bytes);
  const int64_t size = SizeClass(bytes);
  ++stats_.alloc_calls;
  auto it = free_lists_.find(size);
  int64_t block_id;
  if (it != free_lists_.end() && !it->second.empty()) {
    block_id = it->second.back();
    it->second.pop_back();
    ++stats_.cache_hits;
  } else {
    block_id = static_cast<int64_t>(blocks_.size());
    blocks_.push_back({size, false});
    stats_.bytes_reserved += size;
  }
  Block& block = blocks_[block_id];
  if (block.in_use) {
    return Status::Internal(StrFormat("free-list block %lld is in use",
                                      static_cast<long long>(block_id)));
  }
  block.in_use = true;
  stats_.bytes_rounding_waste += size - bytes;
  stats_.bytes_in_use += size;
  stats_.peak_bytes_in_use =
      std::max(stats_.peak_bytes_in_use, stats_.bytes_in_use);
  stats_.peak_bytes_reserved =
      std::max(stats_.peak_bytes_reserved, stats_.bytes_reserved);
  return block_id;
}

Status CachingAllocator::Free(int64_t block_id) {
  if (block_id < 0 || block_id >= static_cast<int64_t>(blocks_.size())) {
    return Status::InvalidArgument(StrFormat(
        "unknown block id %lld", static_cast<long long>(block_id)));
  }
  Block& block = blocks_[block_id];
  if (!block.in_use) {
    return Status::InvalidArgument(StrFormat(
        "double free of block %lld", static_cast<long long>(block_id)));
  }
  block.in_use = false;
  stats_.bytes_in_use -= block.size;
  free_lists_[block.size].push_back(block_id);
  return Status::OK();
}

void CachingAllocator::TrimCache() {
  for (auto& [size, list] : free_lists_) {
    stats_.bytes_reserved -= size * static_cast<int64_t>(list.size());
    list.clear();
  }
}

}  // namespace disc
