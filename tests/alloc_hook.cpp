#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_bytes{0};
std::atomic<int64_t> g_calls{0};

void* CountedAlloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
    g_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace disc {

void StartCountingAllocations() {
  g_bytes.store(0);
  g_calls.store(0);
  g_counting.store(true);
}

int64_t StopCountingAllocations() {
  g_counting.store(false);
  return g_bytes.load();
}

int64_t CountedAllocationCalls() { return g_calls.load(); }

}  // namespace disc
