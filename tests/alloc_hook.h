// Counts the bytes a test binary allocates through the global operator
// new. Linking alloc_hook.cpp into a test binary replaces its global
// (unaligned) allocation functions; the nothrow forms are replaced too, so
// every unaligned new and delete pair goes through malloc and free
// (sanitizers check that they match).
#ifndef DISC_TESTS_ALLOC_HOOK_H_
#define DISC_TESTS_ALLOC_HOOK_H_

#include <cstdint>

namespace disc {

/// \brief Starts counting, from zero, the bytes any thread allocates.
void StartCountingAllocations();

/// \brief Stops counting; returns the bytes allocated since the start.
int64_t StopCountingAllocations();

}  // namespace disc

#endif  // DISC_TESTS_ALLOC_HOOK_H_
