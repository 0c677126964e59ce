// Size-class caching device-memory allocator (accounting model).
//
// Mirrors the behaviour of the RAL/framework caching allocators the paper's
// runtime sits on: frees return blocks to per-size-class free lists, repeat
// allocations of the same (rounded) size hit the cache, and the high-water
// mark reports the device footprint an execution strategy needs. No real
// device memory exists in the simulation, so this class tracks bytes only —
// but the cache-hit dynamics under changing shapes are real, which is what
// the memory experiments measure.
//
// Exhaustion is a *runtime* event under dynamic shapes (the footprint is a
// function of the symbolic dims each request binds), so Allocate reports it
// as Status::ResourceExhausted for the serving layer to retry or shed —
// never as a process abort. Misuse (negative sizes, double frees) also
// surfaces as Status so a single bad request cannot take the server down.
#ifndef DISC_RUNTIME_ALLOCATOR_H_
#define DISC_RUNTIME_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "support/status.h"

namespace disc {

class CachingAllocator {
 public:
  struct Stats {
    int64_t alloc_calls = 0;
    int64_t cache_hits = 0;
    int64_t bytes_in_use = 0;
    int64_t bytes_reserved = 0;  // in-use + cached free blocks
    int64_t peak_bytes_in_use = 0;
    int64_t peak_bytes_reserved = 0;
    int64_t failed_allocs = 0;  // limit exceeded or fault injected
    /// Cumulative bytes lost to size-class rounding (rounded size minus
    /// requested size, summed over successful allocations). The arena
    /// planner aligns slot sizes to the 256-B quantum precisely so its
    /// single allocation contributes zero here.
    int64_t bytes_rounding_waste = 0;
  };

  CachingAllocator() = default;
  /// \brief Caps bytes_in_use at `memory_limit_bytes` (device capacity);
  /// 0 = unlimited.
  explicit CachingAllocator(int64_t memory_limit_bytes)
      : memory_limit_bytes_(memory_limit_bytes) {}

  /// \brief Allocates `bytes` (rounded up to a 256-B-aligned size class);
  /// returns an opaque block id. ResourceExhausted when the allocation
  /// would push bytes_in_use past the memory limit (or the `runtime.alloc`
  /// failpoint fires); InvalidArgument for negative sizes. Composes
  /// CheckAllocation and Reserve.
  Result<int64_t> Allocate(int64_t bytes);

  /// \brief The checks Allocate makes before it books anything, given the
  /// `bytes_in_use` at that point: InvalidArgument for a negative size,
  /// then the `runtime.alloc` failpoint, then ResourceExhausted when the
  /// size class would push bytes_in_use past `memory_limit_bytes` (0 =
  /// unlimited). Reads nothing but its arguments and the failpoint
  /// registry, so a Run can check an allocation that a launch plan
  /// recorded without replaying the allocator (runtime/launch_plan.h).
  static Status CheckAllocation(int64_t bytes, int64_t bytes_in_use,
                                int64_t memory_limit_bytes);

  /// \brief The size-class bookkeeping of one allocation whose checks
  /// passed: takes a cached block of the size class or reserves a new one,
  /// and counts the call. Consults neither the failpoint nor the memory
  /// limit, so recording a plan's allocation tape consumes no fault fires.
  /// InvalidArgument for a negative size.
  Result<int64_t> Reserve(int64_t bytes);

  /// \brief Returns the block to its size-class free list. InvalidArgument
  /// on an unknown id or double free.
  Status Free(int64_t block_id);

  /// \brief Releases all cached free blocks (cudaEmptyCache analog).
  void TrimCache();

  const Stats& stats() const { return stats_; }
  int64_t memory_limit_bytes() const { return memory_limit_bytes_; }

 private:
  struct Block {
    int64_t size = 0;
    bool in_use = false;
  };
  std::vector<Block> blocks_;
  std::map<int64_t, std::vector<int64_t>> free_lists_;  // size -> block ids
  Stats stats_;
  int64_t memory_limit_bytes_ = 0;
};

}  // namespace disc

#endif  // DISC_RUNTIME_ALLOCATOR_H_
