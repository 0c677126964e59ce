// Deterministic fault injection ("failpoints") for robustness testing.
//
// A failpoint is a named site on a real failure seam (compilation, device
// allocation, kernel execution, ...). Normally it is inert: the check
// compiles down to one relaxed atomic load (same discipline as the tracer
// in support/trace.h), so shipping the sites in production code is free.
// A chaos harness arms failpoints — programmatically or via the
// DISC_FAILPOINTS environment variable — and armed sites return an error
// Status on a seeded, reproducible schedule instead of doing their work.
// The layers above must then degrade gracefully; the chaos tests assert
// that they do.
//
// Spec grammar (env var or ArmFromSpec):
//   DISC_FAILPOINTS="<entry>[;<entry>...]"
//   entry   := <name>=<trigger>[:<param>...]
//   trigger := always | once | every:<N> | prob:<P>
//   param   := seed=<S> | max=<M> | code=<status-code>
// where <status-code> is a kebab-case StatusCode name (e.g. "unavailable",
// "resource-exhausted", "internal"). Examples:
//   compiler.compile=once
//   runtime.alloc=every:50:code=resource-exhausted
//   runtime.kernel=prob:0.05:seed=7:max=20:code=unavailable
//
// Triggers (evaluated per hit of the armed site):
//   always   — every hit fires;
//   once     — the first hit fires, later hits pass;
//   every:N  — hits N, 2N, 3N, ... fire;
//   prob:P   — each hit fires with probability P (seeded Rng, so the
//              schedule is a pure function of the seed and hit order).
// `max=M` caps the total number of fires regardless of trigger.
#ifndef DISC_SUPPORT_FAILPOINT_H_
#define DISC_SUPPORT_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/rng.h"
#include "support/status.h"

namespace disc {

/// When and how an armed failpoint fires.
struct FailpointSpec {
  enum class Trigger { kAlways, kOnce, kEveryNth, kProbability };

  Trigger trigger = Trigger::kOnce;
  /// kEveryNth: fire when hit_count is a multiple of every_n (>= 1).
  int64_t every_n = 1;
  /// kProbability: per-hit fire probability in [0, 1].
  double probability = 1.0;
  /// kProbability: Rng seed — the fire schedule is reproducible.
  uint64_t seed = 0;
  /// Cap on total fires; -1 = unlimited.
  int64_t max_fires = -1;
  /// StatusCode of the injected error.
  StatusCode code = StatusCode::kUnavailable;

  /// \brief Parses the `<trigger>[:<param>...]` part of a spec entry.
  static Result<FailpointSpec> Parse(const std::string& spec);
  /// \brief Canonical spec string (round-trips through Parse).
  std::string ToString() const;
};

/// \brief Process-global registry of armed failpoints. Thread-safe.
class FailpointRegistry {
 public:
  static FailpointRegistry& Global();

  /// The one check on every hot path when nothing is armed.
  static bool AnyArmed() {
    return any_armed_.load(std::memory_order_relaxed);
  }

  /// \brief Arms (or re-arms, resetting counters) the named failpoint.
  void Arm(const std::string& name, FailpointSpec spec);

  /// \brief Arms every entry of a `name=spec;name=spec` string (the
  /// DISC_FAILPOINTS grammar). Invalid entries make the whole call fail
  /// with InvalidArgument; valid entries before the bad one stay armed.
  Status ArmFromSpec(const std::string& spec_list);

  void Disarm(const std::string& name);
  void DisarmAll();

  /// \brief Slow path of CheckFailpoint: decides whether the named site
  /// fires on this hit. Unarmed names always pass.
  Status Check(const char* name);

  /// Counters of one armed failpoint.
  struct Info {
    std::string name;
    FailpointSpec spec;
    int64_t hits = 0;
    int64_t fires = 0;
  };
  std::vector<Info> Snapshot() const;
  /// \brief Fires so far of the named failpoint (0 if unarmed).
  int64_t fires(const std::string& name) const;
  /// \brief Human-readable list of armed failpoints, one per line; empty
  /// string when nothing is armed. Printed by every disc_explain mode so
  /// a degraded run is diagnosable from its artifacts.
  std::string Summary() const;

 private:
  FailpointRegistry();  // arms from the DISC_FAILPOINTS env var, if set

  struct Armed {
    FailpointSpec spec;
    int64_t hits = 0;
    int64_t fires = 0;
    Rng rng;
  };

  static std::atomic<bool> any_armed_;
  mutable std::mutex mu_;
  std::map<std::string, Armed> points_;
};

/// \brief Returns the error an armed failpoint injects at this site, or OK.
/// One relaxed atomic load when no failpoint is armed anywhere.
inline Status CheckFailpoint(const char* name) {
  if (!FailpointRegistry::AnyArmed()) return Status::OK();
  return FailpointRegistry::Global().Check(name);
}

}  // namespace disc

/// Injects an armed fault at this site by returning its error Status from
/// the enclosing function (which must return Status or Result<T>). Free
/// when nothing is armed.
#define DISC_INJECT_FAILPOINT(name) \
  DISC_RETURN_IF_ERROR(::disc::CheckFailpoint(name))

#endif  // DISC_SUPPORT_FAILPOINT_H_
