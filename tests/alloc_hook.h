// Counts the bytes a test binary allocates through the global operator
// new, and the calls that allocate them. Linking alloc_hook.cpp into a test binary replaces its global
// (unaligned) allocation functions; the nothrow forms are replaced too, so
// every unaligned new and delete pair goes through malloc and free
// (sanitizers check that they match).
#ifndef DISC_TESTS_ALLOC_HOOK_H_
#define DISC_TESTS_ALLOC_HOOK_H_

#include <cstdint>

namespace disc {

/// \brief Starts counting, from zero, the bytes any thread allocates and
/// the allocation calls.
void StartCountingAllocations();

/// \brief Stops counting; returns the bytes allocated since the start.
int64_t StopCountingAllocations();

/// \brief The allocation calls counted between the last start and stop.
int64_t CountedAllocationCalls();

}  // namespace disc

#endif  // DISC_TESTS_ALLOC_HOOK_H_
