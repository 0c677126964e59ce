// PersistentArtifactCache: disk-backed cache of compiled-artifact recipes,
// so a warm process restart restores every executable without paying
// compilation again (BladeDISC's deployment requirement; Nimble's AOT
// compile-once argument).
//
// Layout under `options.dir`:
//
//   manifest.json           versioned index: id -> {bytes, last_used,
//                           model, constraints} + an LRU sequence counter.
//                           Rewritten tmp+rename after every mutation; if
//                           missing or corrupt it is rebuilt by scanning
//                           entries/ (the manifest is an index, never the
//                           source of truth).
//   entries/<id>.json       one artifact per CacheKey::ToId(): the full
//                           key, the CompileOptions that produced the
//                           executable (hints included), report summary,
//                           and a truncated IR preview for humans. Written
//                           tmp+rename so a crash mid-store leaves either
//                           the old entry or none — never a torn file.
//   quarantine/<id>.json    entries that failed to parse/validate on load,
//                           moved aside (not deleted — debuggable) and
//                           recompiled fresh.
//   poisoned.json           persisted quarantine list: CacheKey ids that
//                           differential validation proved miscompiled
//                           (output divergence / guard violation). Unlike
//                           quarantine/ (corrupt bytes: recompiling fresh
//                           is safe), a poisoned key's *recipe* is wrong —
//                           Lookup and Store refuse it in this process and
//                           after a warm restart, until the list is
//                           cleared or kCompileCodeVersion is bumped.
//
// What an "artifact" is here: this repo's executables hold live pointers
// into their owning Graph, and IR text does not round-trip large constant
// tensors, so entries store a *recipe* (options + key), not object code.
// A warm load replays DiscCompiler deterministically from the recipe —
// the simulation stand-in for mapping a serialized binary, charged as
// `simulated_cache_load_latency_us`, not as a compile job.
#ifndef DISC_COMPILE_SERVICE_ARTIFACT_CACHE_H_
#define DISC_COMPILE_SERVICE_ARTIFACT_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "compile_service/cache_key.h"

namespace disc {

struct ArtifactCacheOptions {
  /// Root directory. Empty disables the cache (every Lookup misses, every
  /// Store is a no-op) — the `--no-compile-cache` behavior.
  std::string dir;
  /// LRU eviction bound on total entry bytes (manifest excluded).
  /// <= 0 = unlimited.
  int64_t byte_budget = 64 * 1024 * 1024;
};

/// One cached artifact, parsed and validated.
struct CacheArtifact {
  CacheKey key;
  std::string model_name;
  CompileOptions options;
  /// Report one-liner from the original compile ("N kernels, M variants");
  /// informational.
  std::string report_summary;
  int64_t entry_bytes = 0;
};

struct ArtifactCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t stores = 0;
  int64_t evictions = 0;
  int64_t quarantined = 0;
  /// Keys on the persisted poison list (durable) plus session-poisoned ids.
  int64_t poisoned = 0;
  /// Lookups/Stores refused because the key was poisoned.
  int64_t poison_rejects = 0;
  int64_t entries = 0;
  int64_t total_bytes = 0;
};

/// \brief Thread-safe disk cache. All methods are safe to call
/// concurrently from service workers and the foreground.
class PersistentArtifactCache {
 public:
  explicit PersistentArtifactCache(ArtifactCacheOptions options);

  bool enabled() const { return !options_.dir.empty(); }

  /// \brief Loads the entry for `key`, if present and valid. A present but
  /// corrupt/mismatched entry is quarantined and reported as a miss.
  std::optional<CacheArtifact> Lookup(const CacheKey& key);

  /// \brief Persists an artifact (tmp+rename), updates the manifest, and
  /// evicts least-recently-used entries past the byte budget. Failures are
  /// returned, never fatal — the in-memory executable is unaffected.
  Status Store(const CacheKey& key, const std::string& model_name,
               const CompileOptions& options,
               const std::string& report_summary);

  /// \brief Durably poisons `key`: the admission gate proved the artifact
  /// it produces is wrong (divergence, guard violation). Any on-disk entry
  /// is moved to quarantine/, the id is appended to poisoned.json, and
  /// Lookup/Store refuse the key from now on — including after a warm
  /// restart. Recovery: delete poisoned.json or bump kCompileCodeVersion
  /// (a new code_version yields a different id).
  Status Poison(const CacheKey& key, const std::string& reason);

  /// \brief True when `key` is on the poison list (durable or session).
  bool IsPoisoned(const CacheKey& key);

  ArtifactCacheStats stats() const;

  /// \brief Human-readable manifest dump printed by disc_explain:
  /// schema version, entry count/bytes, per-entry id, model, size, LRU
  /// rank.
  std::string ManifestSummary() const;

 private:
  struct ManifestEntry {
    int64_t bytes = 0;
    int64_t last_used = 0;
    std::string model;
    std::string constraints;
  };

  std::string EntryPath(const std::string& id) const;
  std::string ManifestPath() const;
  std::string PoisonPath() const;
  // All private helpers assume mu_ is held.
  void LoadManifestLocked();
  void RebuildManifestLocked();
  Status WriteManifestLocked();
  Status WritePoisonListLocked();
  void QuarantineLocked(const std::string& id, const std::string& reason);
  bool IsPoisonedLocked(const std::string& id) const;
  void EvictOverBudgetLocked();

  ArtifactCacheOptions options_;
  mutable std::mutex mu_;
  bool manifest_loaded_ = false;
  int64_t lru_clock_ = 0;
  std::map<std::string, ManifestEntry> manifest_;
  /// Durable poison list (mirrors poisoned.json): id -> reason.
  std::map<std::string, std::string> poisoned_;
  /// Session-only poison: ids whose on-disk entry was quarantined as
  /// corrupt. Not persisted (recompiling fresh is safe after a restart),
  /// but within this process the same CacheKey must not be re-stored and
  /// immediately re-served from the cache it just corrupted.
  std::map<std::string, std::string> session_poisoned_;
  ArtifactCacheStats stats_;
};

/// Schema version of entry/manifest files; bump on layout changes. Entries
/// from another schema are quarantined on load.
inline constexpr int kArtifactSchemaVersion = 1;

}  // namespace disc

#endif  // DISC_COMPILE_SERVICE_ARTIFACT_CACHE_H_
