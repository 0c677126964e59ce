// Low-overhead span/event tracer with Chrome-trace JSON export.
//
// The paper's claims are about *where time goes* — host shape work vs.
// device time, per-pass compile cost, queue wait vs. execution in serving.
// This tracer records those phases as spans and exports them in the Chrome
// trace-event format, loadable in chrome://tracing or Perfetto
// (ui.perfetto.dev).
//
// Design constraints:
//   * zero cost when disabled — DISC_TRACE_SCOPE is one relaxed atomic
//     load, no allocation, no lock; the ring buffer itself is allocated
//     only when tracing is first enabled or its capacity is set;
//   * thread-safe — spans from concurrent Runs interleave into one
//     bounded ring buffer (oldest events drop when full, counted);
//   * two timelines — wall-clock spans record real time (pid 1); the
//     serving simulator emits events on its *simulated* clock (pid 2)
//     via AddCompleteEvent, so queue-wait spans are meaningful.
//
// Usage:
//   TraceSession::Global().Enable();
//   { DISC_TRACE_SCOPE("fusion-planning", "compile"); ... }
//   TraceSession::Global().WriteJson("out.trace.json");
#ifndef DISC_SUPPORT_TRACE_H_
#define DISC_SUPPORT_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/status.h"

namespace disc {

/// One key/value annotation on an event ("args" in the Chrome format).
using TraceArg = std::pair<std::string, std::string>;

/// One recorded event. dur_us < 0 marks an instant event ("ph":"i");
/// otherwise a complete span ("ph":"X").
struct TraceEvent {
  std::string name;
  const char* category = "";  // static string, not owned
  double ts_us = 0.0;
  double dur_us = -1.0;
  int pid = 1;
  int tid = 0;
  std::vector<TraceArg> args;
};

/// \brief Process-global trace recorder. All members are thread-safe.
class TraceSession {
 public:
  /// Timeline ids: wall-clock instrumentation vs. the serving simulator's
  /// simulated clock. Rendered as two separate "processes" by the viewers.
  static constexpr int kWallPid = 1;
  static constexpr int kSimPid = 2;

  static TraceSession& Global();

  /// Allocates the ring buffer on first use, then turns recording on.
  void Enable();
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  /// The one check on every hot path; relaxed load, nothing else.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief Microseconds since the session was created (steady clock).
  double NowUs() const;

  /// \brief Records a span with explicit timing. Used by TraceScope for
  /// wall-clock spans and by the serving simulator for simulated-clock
  /// spans (pid = kSimPid). No-op when disabled.
  void AddCompleteEvent(std::string name, const char* category, double ts_us,
                        double dur_us, int pid, int tid,
                        std::vector<TraceArg> args = {});

  /// \brief Records an instant event at NowUs(). No-op when disabled.
  void AddInstantEvent(std::string name, const char* category,
                       std::vector<TraceArg> args = {});

  /// \brief Dense per-thread id (0, 1, ...) for the calling thread.
  int CurrentThreadTid();

  /// \brief Chrome-trace JSON ({"traceEvents":[...]}) of the buffered
  /// events, oldest first. Valid JSON even with zero events.
  void WriteJson(std::ostream& os) const;
  /// \brief WriteJson to a file path.
  Status WriteJson(const std::string& path) const;

  /// \brief Ring-buffer capacity in events; shrinking drops oldest.
  void set_capacity(size_t capacity);

  size_t num_events() const;
  /// Events overwritten because the ring buffer was full.
  int64_t dropped_events() const;

  /// \brief Copy of the buffered events, oldest first, optionally filtered
  /// by category (nullptr = all). Used by the introspection layer to join
  /// per-pass span times into the pipeline summary.
  std::vector<TraceEvent> Snapshot(const char* category = nullptr) const;

  /// \brief Drops all buffered events and the dropped counter (the
  /// enabled flag and thread ids are untouched).
  void Clear();

 private:
  TraceSession();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  // Ring buffer: ring_[(head_ + i) % capacity_] for i in [0, size_).
  // Empty until Enable or set_capacity sizes it to capacity_.
  std::vector<TraceEvent> ring_;
  size_t capacity_;
  size_t head_ = 0;
  size_t size_ = 0;
  int64_t dropped_ = 0;
  std::unordered_map<std::thread::id, int> thread_ids_;
};

/// \brief RAII span: records [construction, destruction) as one complete
/// event on the wall-clock timeline. When tracing is disabled the
/// constructor is a single atomic load and every method is a no-op.
class TraceScope {
 public:
  /// `name` with static storage duration (string literal, OpName, ...).
  TraceScope(const char* name, const char* category);
  /// Dynamic name; copied only when tracing is enabled.
  TraceScope(const std::string& name, const char* category);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// \brief Attaches a key/value annotation. No-op when inactive, so
  /// callers may pass already-computed strings unconditionally but should
  /// guard expensive formatting with `active()`.
  void AddArg(std::string key, std::string value);

  bool active() const { return active_; }

 private:
  bool active_ = false;
  const char* name_ = "";       // used when dyn_name_ is empty
  std::string dyn_name_;
  const char* category_ = "";
  double start_us_ = 0.0;
  std::vector<TraceArg> args_;
};

#define DISC_TRACE_CONCAT_IMPL_(a, b) a##b
#define DISC_TRACE_CONCAT_(a, b) DISC_TRACE_CONCAT_IMPL_(a, b)

/// \brief Traces the enclosing scope as a span. One relaxed atomic load
/// when tracing is disabled.
#define DISC_TRACE_SCOPE(name, category)                       \
  ::disc::TraceScope DISC_TRACE_CONCAT_(disc_trace_scope_,     \
                                        __LINE__)(name, category)

}  // namespace disc

#endif  // DISC_SUPPORT_TRACE_H_
