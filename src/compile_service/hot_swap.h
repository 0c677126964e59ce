// ExecutableSlot: atomic hot-swap point between the serving path and the
// background compile service.
//
// The serving thread Acquire()s a shared_ptr snapshot per query and runs
// against it; a service worker Swap()s in a freshly compiled executable at
// any time. shared_ptr ownership makes the handoff torn-read-free: a Run
// in flight keeps its snapshot alive until it finishes, even if the swap
// happens mid-run, and the old executable is destroyed only when the last
// in-flight Run drops it.
//
// Launch-plan-cache safety (PR 1 interaction): plans memoize buffer sizes
// and variant choices of ONE executable, so they must never survive a
// swap. Plan caches are per-Executable members — a swapped-in executable
// starts with an empty cache by construction — and Swap() additionally
// clears the outgoing executable's cache so a later re-install (e.g.
// respecialization rollback) cannot replay plans from its previous life.
#ifndef DISC_COMPILE_SERVICE_HOT_SWAP_H_
#define DISC_COMPILE_SERVICE_HOT_SWAP_H_

#include <memory>
#include <mutex>

#include "runtime/executable.h"

namespace disc {

class ExecutableSlot {
 public:
  /// \brief Snapshot for one query; null until the first Swap. The caller
  /// may keep running against it across a concurrent Swap.
  std::shared_ptr<const Executable> Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// \brief Installs `next` (may be null to clear) and returns the
  /// previous executable, its launch-plan cache already cleared.
  ///
  /// With `keep_history`, the displaced executable is additionally
  /// *retained* as the previous generation so a post-swap guard violation
  /// or output divergence can Rollback() to it. Only one generation of
  /// history is kept: swapping twice forgets the older incumbent. Without
  /// it the slot keeps no history, and the displaced executable lives only
  /// as long as the returned pointer and in-flight Runs hold it.
  std::shared_ptr<const Executable> Swap(std::shared_ptr<const Executable> next,
                                         bool keep_history = true) {
    std::shared_ptr<const Executable> previous;
    {
      std::lock_guard<std::mutex> lock(mu_);
      previous = std::move(current_);
      previous_ = keep_history ? previous : nullptr;
      current_ = std::move(next);
      ++generation_;
    }
    if (previous != nullptr) previous->ClearPlanCache();
    return previous;
  }

  /// \brief Reinstates the previous generation, discarding the current
  /// executable (its plan cache cleared so a later re-install cannot
  /// replay stale plans). Returns false when there is no previous
  /// generation to roll back to — the caller must fall back instead.
  /// A successful rollback consumes the history: a second Rollback()
  /// without an intervening Swap() returns false.
  bool Rollback() {
    std::shared_ptr<const Executable> rejected;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (previous_ == nullptr) return false;
      rejected = std::move(current_);
      current_ = std::move(previous_);
      previous_ = nullptr;
      ++generation_;
      ++rollbacks_;
    }
    if (rejected != nullptr) rejected->ClearPlanCache();
    return true;
  }

  /// \brief Drops BOTH generations (plan caches cleared). For the
  /// poisoned-with-no-history case: the current executable is proven bad
  /// and there is nothing to roll back to, so the slot must empty out
  /// rather than retain the bad executable as a rollback target.
  void Clear() {
    std::shared_ptr<const Executable> cur;
    std::shared_ptr<const Executable> prev;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cur = std::move(current_);
      prev = std::move(previous_);
      current_ = nullptr;
      previous_ = nullptr;
      ++generation_;
    }
    if (cur != nullptr) cur->ClearPlanCache();
    if (prev != nullptr) prev->ClearPlanCache();
  }

  bool has_executable() const { return Acquire() != nullptr; }
  /// True when a Rollback() would succeed (a previous generation exists).
  bool has_previous() const {
    std::lock_guard<std::mutex> lock(mu_);
    return previous_ != nullptr;
  }
  /// Number of Swap()+Rollback() transitions; lets engines detect "a new
  /// executable arrived since I last looked" without holding the snapshot.
  int64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
  }
  /// Number of successful Rollback() calls over the slot's lifetime.
  int64_t rollbacks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rollbacks_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Executable> current_;
  std::shared_ptr<const Executable> previous_;  // rollback target
  int64_t generation_ = 0;
  int64_t rollbacks_ = 0;
};

}  // namespace disc

#endif  // DISC_COMPILE_SERVICE_HOT_SWAP_H_
