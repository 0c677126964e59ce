// CompileService: background compilation workers, so serving never blocks
// on the compiler.
//
// BladeDISC serves dynamic-shape traffic from compiled executables, but a
// cold process (or a respecialization) has nothing compiled yet. The old
// answer — compile synchronously on the query thread — stalls the query
// for the whole compile. The service moves compilation onto a worker pool:
//
//   * priority queue: foreground cache-misses preempt profile-guided
//     respecializations, which preempt speculative prefetches;
//   * in-flight dedup by CacheKey: N queries missing on one model share
//     one job (and one future), they do not stampede the compiler;
//   * cancellation + per-job deadline: a job whose engine gave up (or that
//     sat queued past its budget) is dropped at dequeue, not compiled;
//   * persistent artifact cache consulted before compiling, populated
//     after — a warm restart turns every job into a disk hit;
//   * all submissions return a CompileJobHandle future. A
//     DynamicCompilerEngine built with a service serves through its
//     fallback leg until done() and then hot-swaps the result in via
//     ExecutableSlot (see hot_swap.h) — the query path never waits.
//
// Instrumented with compile_service.* metrics (queue depth, job latency
// histograms, cache verdicts) and "compile_service"-category trace spans;
// failpoints compile_service.worker and compile_service.cache.load|store
// let the chaos harness kill workers and corrupt stores.
#ifndef DISC_COMPILE_SERVICE_COMPILE_SERVICE_H_
#define DISC_COMPILE_SERVICE_COMPILE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compile_service/artifact_cache.h"
#include "compile_service/cache_key.h"
#include "compile_service/hot_swap.h"

namespace disc {

enum class JobPriority : uint8_t {
  kForegroundMiss = 0,  // a live query is degrading to the fallback leg
  kRespecialize = 1,    // profile feedback wants better kernels
  kPrefetch = 2,        // nothing is waiting; warm the cache
  kValidate = 3,        // shadow-validate a candidate before adoption
};

const char* JobPriorityName(JobPriority priority);

struct CompileJobRequest {
  std::string model_name;
  /// Cloned at Submit — the caller's graph is not referenced afterwards.
  const Graph* graph = nullptr;
  std::vector<std::vector<std::string>> labels;
  CompileOptions options;
  JobPriority priority = JobPriority::kForegroundMiss;
  /// Wall-clock budget from Submit to dequeue; a job still queued past it
  /// completes with DeadlineExceeded instead of compiling. <= 0 = none.
  double deadline_ms = 0.0;
  /// Test seam: runs on the worker thread after dequeue, before the cache
  /// lookup/compile. Lets tests hold a job "in flight" while asserting the
  /// query path does not block on it.
  std::function<void()> pre_compile_hook;
  /// Causal-trace id of the serving request that triggered this job (0 =
  /// none). When left 0, Submit captures RequestContext::CurrentTraceId()
  /// from the submitting thread, so a compile job spawned under a serving
  /// request's context is attributable even though it runs on a worker
  /// thread where the thread-local context does not reach.
  uint64_t origin_trace_id = 0;
};

/// Terminal state of one job. Immutable once the handle reports done().
struct CompileJobOutcome {
  Status status = Status::OK();
  std::shared_ptr<const Executable> executable;  // null unless status.ok()
  /// True when the executable came from the persistent cache (restored,
  /// not compiled).
  bool from_disk_cache = false;
  CacheKey key;
};

namespace internal {
struct CompileJobState;
}  // namespace internal

/// \brief Future for one submitted job. Copyable; all copies (including
/// handles deduplicated onto the same in-flight job) observe one outcome.
class CompileJobHandle {
 public:
  CompileJobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  /// \brief Non-blocking: the outcome once done, nullptr before.
  const CompileJobOutcome* TryGet() const;
  /// \brief Blocks until the job completes (ok or not). The outcome lives
  /// in the job state the handle shares, so Wait on a temporary handle is
  /// deleted: the reference would dangle at the end of the expression.
  const CompileJobOutcome& Wait() const&;
  const CompileJobOutcome& Wait() const&& = delete;
  /// \brief Requests cancellation. Queued jobs complete with
  /// FailedPrecondition at dequeue; a job already running (or done) is
  /// unaffected. Affects every handle deduplicated onto this job.
  void Cancel();
  int64_t job_id() const;

 private:
  friend class CompileService;
  explicit CompileJobHandle(std::shared_ptr<internal::CompileJobState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::CompileJobState> state_;
};

struct CompileServiceOptions {
  int num_workers = 2;
  ArtifactCacheOptions cache;
};

struct CompileServiceStats {
  int64_t submitted = 0;
  int64_t deduplicated = 0;  // Submits coalesced onto an in-flight job
  int64_t completed = 0;     // terminal outcomes, any verdict
  int64_t compiled = 0;      // ran the real compiler
  int64_t disk_hits = 0;     // restored from the persistent cache
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t deadline_expired = 0;
  int64_t max_queue_depth = 0;
  /// Generic worker tasks (SubmitTask) — counted apart from compile jobs
  /// so compile/disk-hit accounting stays comparable across configs.
  int64_t tasks_submitted = 0;
  int64_t tasks_completed = 0;
  int64_t tasks_failed = 0;
};

/// One row of the job timeline (disc_explain output).
struct JobTimelineEntry {
  int64_t job_id = 0;
  std::string model;
  JobPriority priority = JobPriority::kForegroundMiss;
  std::string key_id;
  /// Wall-clock microseconds since service construction; -1 = not reached.
  double submit_us = -1.0;
  double start_us = -1.0;
  double finish_us = -1.0;
  /// "compiled" | "disk-hit" | "failed" | "cancelled" | "deadline-expired".
  std::string verdict;
  /// Trace id of the request that caused the job (0 = background/prefetch).
  uint64_t origin_trace_id = 0;
};

/// \brief The worker pool. Thread-safe. Destruction shuts down (pending
/// jobs complete as cancelled).
class CompileService {
 public:
  explicit CompileService(CompileServiceOptions options = {});
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// \brief Enqueues a job (or coalesces onto the in-flight job with the
  /// same CacheKey) and returns its future. Never blocks on compilation.
  CompileJobHandle Submit(CompileJobRequest request);

  /// \brief Enqueues a generic worker task (shadow validation, tuning)
  /// under the same priority queue — low-priority classes like kValidate
  /// never delay a foreground compile, and serving never blocks on them.
  /// The task's returned outcome resolves the handle; a non-OK status
  /// counts as tasks_failed, never as a compile failure. Tasks are not
  /// deduplicated (each carries its own closure) and skip the artifact
  /// cache entirely.
  CompileJobHandle SubmitTask(const std::string& name, JobPriority priority,
                              std::function<CompileJobOutcome()> task);

  /// \brief Blocks until every submitted job has completed. Test/shutdown
  /// aid; serving never calls this.
  void Drain();

  /// \brief Stops workers. Queued jobs complete as cancelled; the running
  /// jobs finish. Idempotent.
  void Shutdown();

  PersistentArtifactCache& cache() { return cache_; }
  CompileServiceStats stats() const;
  std::vector<JobTimelineEntry> JobTimeline() const;
  /// Human-readable submit->start->finish table.
  std::string JobTimelineString() const;

 private:
  void WorkerLoop(int worker_index);
  void RunJob(const std::shared_ptr<internal::CompileJobState>& job);
  void FinishJob(const std::shared_ptr<internal::CompileJobState>& job,
                 CompileJobOutcome outcome, const std::string& verdict);
  double NowUs() const;

  CompileServiceOptions options_;
  PersistentArtifactCache cache_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  /// Pending jobs, popped lowest (priority, job_id) first: strict priority,
  /// FIFO within a class.
  std::vector<std::shared_ptr<internal::CompileJobState>> queue_;
  /// key id -> in-flight (queued or running) job, for dedup.
  std::map<std::string, std::shared_ptr<internal::CompileJobState>> in_flight_;
  std::vector<JobTimelineEntry> timeline_;
  CompileServiceStats stats_;
  int64_t next_job_id_ = 1;
  int active_jobs_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace disc

#endif  // DISC_COMPILE_SERVICE_COMPILE_SERVICE_H_
