// Disabled tracing must not allocate: the first TraceScope of a process
// creates the global TraceSession, and with tracing off that may cost no
// more than the session object itself (the event ring waits for Enable).
// This binary holds only this test, so nothing touches the session first.
#include <gtest/gtest.h>

#include "alloc_hook.h"
#include "support/trace.h"

namespace disc {
namespace {

TEST(TraceAllocTest, FirstDisabledScopeAllocatesAlmostNothing) {
  StartCountingAllocations();
  { DISC_TRACE_SCOPE("first-span", "test"); }
  const int64_t bytes = StopCountingAllocations();
  EXPECT_FALSE(TraceSession::Global().enabled());
  EXPECT_LT(bytes, 4096) << "bytes allocated by the first scope";

  // Enabling allocates the ring, and recording works as before.
  TraceSession::Global().Enable();
  { DISC_TRACE_SCOPE("recorded-span", "test"); }
  TraceSession::Global().Disable();
  EXPECT_EQ(TraceSession::Global().num_events(), 1u);
}

}  // namespace
}  // namespace disc
