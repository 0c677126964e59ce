// Disabled tracing must not allocate: the first TraceScope of a process
// creates the global TraceSession, and with tracing off that may cost no
// more than the session object itself (the event ring waits for Enable).
// This binary holds only this test, so nothing touches the session first.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "support/trace.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_bytes{0};

void* CountedAlloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The operator-new hook: replaces this binary's global (unaligned)
// allocation functions so the test can count the bytes a call allocates.
// The nothrow forms are replaced too, so every unaligned new and delete
// pair goes through malloc and free (sanitizers check that they match).
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
namespace {

TEST(TraceAllocTest, FirstDisabledScopeAllocatesAlmostNothing) {
  g_counting.store(true);
  { DISC_TRACE_SCOPE("first-span", "test"); }
  g_counting.store(false);
  EXPECT_FALSE(TraceSession::Global().enabled());
  EXPECT_LT(g_bytes.load(), 4096) << "bytes allocated by the first scope";

  // Enabling allocates the ring, and recording works as before.
  TraceSession::Global().Enable();
  { DISC_TRACE_SCOPE("recorded-span", "test"); }
  TraceSession::Global().Disable();
  EXPECT_EQ(TraceSession::Global().num_events(), 1u);
}

}  // namespace
}  // namespace disc
