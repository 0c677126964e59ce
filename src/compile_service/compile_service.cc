#include "compile_service/compile_service.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "support/blame.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace disc {

namespace internal {

struct CompileJobState {
  int64_t job_id = 0;
  CompileJobRequest request;
  std::unique_ptr<Graph> graph_copy;
  CacheKey key;
  std::string key_id;
  std::chrono::steady_clock::time_point submit_time;
  size_t timeline_index = 0;
  /// Non-null for SubmitTask jobs: runs instead of the compile pipeline.
  std::function<CompileJobOutcome()> task;

  std::atomic<bool> cancel_requested{false};

  std::mutex mu;
  std::condition_variable done_cv;
  bool done = false;
  CompileJobOutcome outcome;
};

}  // namespace internal

using internal::CompileJobState;

const char* JobPriorityName(JobPriority priority) {
  switch (priority) {
    case JobPriority::kForegroundMiss:
      return "foreground-miss";
    case JobPriority::kRespecialize:
      return "respecialize";
    case JobPriority::kPrefetch:
      return "prefetch";
    case JobPriority::kValidate:
      return "validate";
  }
  return "unknown";
}

const CompileJobOutcome* CompileJobHandle::TryGet() const {
  if (state_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done ? &state_->outcome : nullptr;
}

const CompileJobOutcome& CompileJobHandle::Wait() const& {
  DISC_CHECK(state_ != nullptr) << "Wait on an invalid CompileJobHandle";
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->done_cv.wait(lock, [this] { return state_->done; });
  return state_->outcome;
}

void CompileJobHandle::Cancel() {
  if (state_ != nullptr) {
    state_->cancel_requested.store(true, std::memory_order_relaxed);
  }
}

int64_t CompileJobHandle::job_id() const {
  return state_ != nullptr ? state_->job_id : -1;
}

CompileService::CompileService(CompileServiceOptions options)
    : options_(options),
      cache_(options.cache),
      epoch_(std::chrono::steady_clock::now()) {
  int n = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

CompileService::~CompileService() { Shutdown(); }

double CompileService::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

CompileJobHandle CompileService::Submit(CompileJobRequest request) {
  DISC_CHECK(request.graph != nullptr) << "Submit without a graph";
  // Capture the submitting thread's request context here: the job runs on
  // a worker thread where the serving thread-local does not reach, so the
  // trace id must travel inside the job request itself.
  if (request.origin_trace_id == 0) {
    request.origin_trace_id = RequestContext::CurrentTraceId();
  }
  TraceScope scope("job.submit", "compile_service");
  scope.AddArg("model", request.model_name);
  scope.AddArg("priority", JobPriorityName(request.priority));
  if (request.origin_trace_id != 0) {
    scope.AddArg("trace_id", std::to_string(request.origin_trace_id));
  }

  CacheKey key = CacheKey::Make(*request.graph, request.labels,
                                request.options);
  std::string key_id = key.ToId();

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (shutdown_) {
    // No workers left to resolve the future — fail it synchronously.
    auto job = std::make_shared<CompileJobState>();
    job->job_id = next_job_id_++;
    job->done = true;
    job->outcome.key = std::move(key);
    job->outcome.status = Status::FailedPrecondition("service shut down");
    ++stats_.cancelled;
    return CompileJobHandle(std::move(job));
  }
  auto it = in_flight_.find(key_id);
  if (it != in_flight_.end()) {
    // Same artifact already queued or compiling: coalesce. N concurrent
    // misses on one model produce one compile, not a stampede.
    ++stats_.deduplicated;
    CountMetric("compile_service.job.deduplicated");
    return CompileJobHandle(it->second);
  }

  auto job = std::make_shared<CompileJobState>();
  job->job_id = next_job_id_++;
  job->graph_copy = request.graph->Clone();
  job->request = std::move(request);
  job->request.graph = job->graph_copy.get();
  job->key = std::move(key);
  job->key_id = key_id;
  job->submit_time = std::chrono::steady_clock::now();

  JobTimelineEntry entry;
  entry.job_id = job->job_id;
  entry.model = job->request.model_name;
  entry.priority = job->request.priority;
  entry.key_id = key_id;
  entry.origin_trace_id = job->request.origin_trace_id;
  entry.submit_us = NowUs();
  job->timeline_index = timeline_.size();
  timeline_.push_back(std::move(entry));

  in_flight_[key_id] = job;
  queue_.push_back(job);
  int64_t depth = static_cast<int64_t>(queue_.size());
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
  ObserveMetric("compile_service.queue_depth", static_cast<double>(depth));
  CountMetric("compile_service.job.submitted");
  work_cv_.notify_one();
  return CompileJobHandle(job);
}

CompileJobHandle CompileService::SubmitTask(
    const std::string& name, JobPriority priority,
    std::function<CompileJobOutcome()> task) {
  DISC_CHECK(task != nullptr) << "SubmitTask without a task";
  TraceScope scope("task.submit", "compile_service");
  scope.AddArg("name", name);
  scope.AddArg("priority", JobPriorityName(priority));

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.tasks_submitted;
  if (shutdown_) {
    auto job = std::make_shared<CompileJobState>();
    job->job_id = next_job_id_++;
    job->done = true;
    job->outcome.status = Status::FailedPrecondition("service shut down");
    ++stats_.cancelled;
    return CompileJobHandle(std::move(job));
  }

  auto job = std::make_shared<CompileJobState>();
  job->job_id = next_job_id_++;
  job->request.model_name = name;
  job->request.priority = priority;
  job->request.origin_trace_id = RequestContext::CurrentTraceId();
  job->task = std::move(task);
  // Unique pseudo-id: tasks are never deduplicated and must not collide
  // with compile-job CacheKey ids in in_flight_.
  job->key_id = "task:" + std::to_string(job->job_id);
  job->submit_time = std::chrono::steady_clock::now();

  JobTimelineEntry entry;
  entry.job_id = job->job_id;
  entry.model = name;
  entry.priority = priority;
  entry.key_id = job->key_id;
  entry.origin_trace_id = job->request.origin_trace_id;
  entry.submit_us = NowUs();
  job->timeline_index = timeline_.size();
  timeline_.push_back(std::move(entry));

  in_flight_[job->key_id] = job;
  queue_.push_back(job);
  int64_t depth = static_cast<int64_t>(queue_.size());
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
  ObserveMetric("compile_service.queue_depth", static_cast<double>(depth));
  CountMetric("compile_service.task.submitted");
  work_cv_.notify_one();
  return CompileJobHandle(job);
}

void CompileService::WorkerLoop(int worker_index) {
  (void)worker_index;
  for (;;) {
    std::shared_ptr<CompileJobState> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left
      // Strict priority, FIFO within a class (job_id is monotonic).
      auto best = queue_.begin();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        auto rank = [](const std::shared_ptr<CompileJobState>& j) {
          return std::make_pair(
              static_cast<int>(j->request.priority), j->job_id);
        };
        if (rank(*it) < rank(*best)) best = it;
      }
      job = *best;
      queue_.erase(best);
      ++active_jobs_;
      timeline_[job->timeline_index].start_us = NowUs();
      ObserveMetric("compile_service.queue_depth",
                    static_cast<double>(queue_.size()));
    }
    RunJob(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_jobs_;
    }
    idle_cv_.notify_all();
  }
}

void CompileService::RunJob(const std::shared_ptr<CompileJobState>& job) {
  TraceScope scope("job.run", "compile_service");
  scope.AddArg("model", job->request.model_name);
  scope.AddArg("priority", JobPriorityName(job->request.priority));
  if (job->request.origin_trace_id != 0) {
    scope.AddArg("trace_id", std::to_string(job->request.origin_trace_id));
  }

  double queued_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - job->submit_time)
          .count();
  ObserveMetric("compile_service.job.queue_us", queued_us);

  CompileJobOutcome outcome;
  outcome.key = job->key;

  if (job->cancel_requested.load(std::memory_order_relaxed)) {
    outcome.status = Status::FailedPrecondition("job cancelled");
    FinishJob(job, std::move(outcome), "cancelled");
    return;
  }
  if (job->request.deadline_ms > 0.0 &&
      queued_us > job->request.deadline_ms * 1000.0) {
    outcome.status = Status::DeadlineExceeded(
        "job queued " + std::to_string(queued_us / 1000.0) + "ms, budget " +
        std::to_string(job->request.deadline_ms) + "ms");
    FinishJob(job, std::move(outcome), "deadline-expired");
    return;
  }
  if (job->request.pre_compile_hook) job->request.pre_compile_hook();

  if (job->task) {
    // Generic worker task (shadow validation, tuning): the closure is the
    // whole job — no cache, no compiler.
    outcome = job->task();
    const char* verdict = outcome.status.ok() ? "task-done" : "task-failed";
    FinishJob(job, std::move(outcome), verdict);
    return;
  }

  // Fault seam: a worker dying mid-job must fail only this job; the engine
  // keeps serving on its fallback leg and may resubmit.
  Status injected = CheckFailpoint("compile_service.worker");
  if (!injected.ok()) {
    outcome.status = injected;
    FinishJob(job, std::move(outcome), "failed");
    return;
  }

  // Disk first: a restart (or a re-requested respecialization) restores
  // the artifact without compiling. The stored recipe replays the compiler
  // deterministically — the simulation's stand-in for mapping serialized
  // object code; it is counted as a disk hit, never as a compile.
  if (auto artifact = cache_.Lookup(job->key)) {
    auto restored = DiscCompiler::Compile(*job->request.graph,
                                          job->request.labels,
                                          artifact->options);
    if (restored.ok()) {
      outcome.executable = std::shared_ptr<const Executable>(
          std::move(*restored));
      outcome.from_disk_cache = true;
      FinishJob(job, std::move(outcome), "disk-hit");
      return;
    }
    // A recipe that no longer replays is as bad as a corrupt file.
    outcome.status = restored.status();
  }

  auto compiled = DiscCompiler::Compile(*job->request.graph,
                                        job->request.labels,
                                        job->request.options);
  if (!compiled.ok()) {
    outcome.status = compiled.status();
    FinishJob(job, std::move(outcome), "failed");
    return;
  }
  outcome.status = Status::OK();
  outcome.executable = std::shared_ptr<const Executable>(std::move(*compiled));
  Status stored = cache_.Store(job->key, job->request.model_name,
                               job->request.options,
                               outcome.executable->report().ToString());
  if (!stored.ok()) {
    // Store failures degrade persistence, not serving: the executable is
    // live in memory either way.
    DISC_LOG(Warning) << "artifact store failed for " << job->key_id << ": "
                      << stored.ToString();
  }
  FinishJob(job, std::move(outcome), "compiled");
}

void CompileService::FinishJob(const std::shared_ptr<CompileJobState>& job,
                               CompileJobOutcome outcome,
                               const std::string& verdict) {
  double total_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - job->submit_time)
          .count();
  ObserveMetric("compile_service.job.total_us", total_us);
  CountMetric("compile_service.job." + verdict);
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.erase(job->key_id);
    JobTimelineEntry& entry = timeline_[job->timeline_index];
    entry.finish_us = NowUs();
    entry.verdict = verdict;
    ++stats_.completed;
    if (verdict == "compiled") ++stats_.compiled;
    if (verdict == "disk-hit") ++stats_.disk_hits;
    if (verdict == "failed") ++stats_.failed;
    if (verdict == "cancelled") ++stats_.cancelled;
    if (verdict == "deadline-expired") ++stats_.deadline_expired;
    if (verdict == "task-done") ++stats_.tasks_completed;
    if (verdict == "task-failed") {
      ++stats_.tasks_completed;
      ++stats_.tasks_failed;
    }
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->outcome = std::move(outcome);
    job->done = true;
  }
  job->done_cv.notify_all();
}

void CompileService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && active_jobs_ == 0;
  });
}

void CompileService::Shutdown() {
  std::vector<std::shared_ptr<CompileJobState>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    orphans.assign(queue_.begin(), queue_.end());
    queue_.clear();
  }
  // Queued-but-never-started jobs must still resolve their futures.
  for (const auto& job : orphans) {
    CompileJobOutcome outcome;
    outcome.key = job->key;
    outcome.status = Status::FailedPrecondition("service shut down");
    FinishJob(job, std::move(outcome), "cancelled");
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

CompileServiceStats CompileService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<JobTimelineEntry> CompileService::JobTimeline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeline_;
}

std::string CompileService::JobTimelineString() const {
  std::vector<JobTimelineEntry> timeline = JobTimeline();
  std::string out = "compile-service job timeline (" +
                    std::to_string(timeline.size()) + " jobs)\n";
  char line[256];
  for (const JobTimelineEntry& e : timeline) {
    std::snprintf(line, sizeof(line),
                  "  #%-3lld %-16s %-15s submit=%9.0fus start=%9.0fus "
                  "finish=%9.0fus  %s\n",
                  static_cast<long long>(e.job_id),
                  e.model.substr(0, 16).c_str(), JobPriorityName(e.priority),
                  e.submit_us, e.start_us, e.finish_us,
                  e.verdict.empty() ? "in-flight" : e.verdict.c_str());
    out += line;
    if (e.origin_trace_id != 0) {
      std::snprintf(line, sizeof(line), "       caused-by trace_id=%llu\n",
                    static_cast<unsigned long long>(e.origin_trace_id));
      out += line;
    }
  }
  return out;
}

}  // namespace disc
