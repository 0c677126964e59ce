// The async compilation subsystem: service semantics (priorities, dedup,
// cancellation, deadlines, futures), non-blocking serving through the
// fallback leg with bit-identical results, concurrency-safe hot-swap
// without stale launch plans, and the persistent artifact cache's warm
// restart / corruption / eviction behavior.
#include "compile_service/compile_service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "baselines/dynamic_engine.h"
#include "baselines/interpreter_engine.h"
#include "compile_service/profile_feedback.h"
#include "ir/builder.h"
#include "support/failpoint.h"
#include "support/rng.h"

namespace disc {
namespace {

namespace fs = std::filesystem;

class CacheDir {
 public:
  explicit CacheDir(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("disc_compile_service_" + name + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~CacheDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::unique_ptr<Graph> EwModel(const std::string& name = "svc") {
  auto g = std::make_unique<Graph>(name);
  GraphBuilder b(g.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Relu(b.Add(x, x))});
  return g;
}

CompileJobRequest MakeRequest(const Graph* graph,
                              JobPriority priority = JobPriority::kPrefetch) {
  CompileJobRequest request;
  request.model_name = graph->name();
  request.graph = graph;
  request.labels = {{"B", "S"}};
  request.priority = priority;
  return request;
}

// ---------------------------------------------------------------------------
// Service core.

TEST(CompileServiceTest, SubmitCompilesAndResolvesFuture) {
  auto g = EwModel();
  CompileService service;
  CompileJobHandle handle = service.Submit(MakeRequest(g.get()));
  const CompileJobOutcome& outcome = handle.Wait();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  ASSERT_NE(outcome.executable, nullptr);
  EXPECT_FALSE(outcome.from_disk_cache);
  EXPECT_TRUE(outcome.executable->RunWithShapes({{8, 16}}).ok());
  EXPECT_EQ(service.stats().compiled, 1);
}

TEST(CompileServiceTest, InFlightJobsDedupByKey) {
  auto g = EwModel();
  CompileServiceOptions options;
  options.num_workers = 1;
  CompileService service(options);

  // Hold the single worker hostage so later submits stay queued.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  auto blocker = MakeRequest(g.get());
  blocker.model_name = "blocker";
  blocker.pre_compile_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  CompileJobHandle blocked = service.Submit(std::move(blocker));

  auto g2 = EwModel("deduped");
  CompileJobHandle first = service.Submit(MakeRequest(g2.get()));
  CompileJobHandle second = service.Submit(MakeRequest(g2.get()));
  EXPECT_EQ(first.job_id(), second.job_id());
  EXPECT_EQ(service.stats().deduplicated, 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Drain();
  // One compile for the deduplicated pair; both handles see it.
  EXPECT_TRUE(first.Wait().status.ok());
  EXPECT_TRUE(second.Wait().status.ok());
  EXPECT_EQ(first.TryGet(), second.TryGet());
}

TEST(CompileServiceTest, PriorityQueueServesForegroundFirst) {
  auto g = EwModel();
  CompileServiceOptions options;
  options.num_workers = 1;
  CompileService service(options);

  std::mutex mu;
  std::condition_variable cv;
  bool blocking = false;
  bool release = false;
  auto blocker = MakeRequest(g.get());
  blocker.pre_compile_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    blocking = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  service.Submit(std::move(blocker));
  // The blocker is a prefetch job: it holds the worker only once the worker
  // has dequeued it. Queued later, it would lose to the higher classes.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return blocking; });
  }

  // Queue in worst order; distinct graphs so nothing dedups.
  auto g_pre = EwModel("prefetch");
  auto g_spec = EwModel("respec");
  auto g_fg = EwModel("foreground");
  service.Submit(MakeRequest(g_pre.get(), JobPriority::kPrefetch));
  service.Submit(MakeRequest(g_spec.get(), JobPriority::kRespecialize));
  service.Submit(MakeRequest(g_fg.get(), JobPriority::kForegroundMiss));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Drain();

  // The timeline records dequeue order: foreground < respecialize <
  // prefetch regardless of submit order.
  double fg_start = -1, spec_start = -1, pre_start = -1;
  for (const JobTimelineEntry& e : service.JobTimeline()) {
    if (e.model == "foreground") fg_start = e.start_us;
    if (e.model == "respec") spec_start = e.start_us;
    if (e.model == "prefetch") pre_start = e.start_us;
  }
  ASSERT_GE(fg_start, 0.0);
  EXPECT_LT(fg_start, spec_start);
  EXPECT_LT(spec_start, pre_start);
}

TEST(CompileServiceTest, CancelledQueuedJobNeverCompiles) {
  auto g = EwModel();
  CompileServiceOptions options;
  options.num_workers = 1;
  CompileService service(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  auto blocker = MakeRequest(g.get());
  blocker.pre_compile_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  service.Submit(std::move(blocker));

  auto g2 = EwModel("cancelme");
  CompileJobHandle doomed = service.Submit(MakeRequest(g2.get()));
  doomed.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Drain();
  const CompileJobOutcome& outcome = doomed.Wait();
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.executable, nullptr);
  EXPECT_EQ(service.stats().cancelled, 1);
  EXPECT_EQ(service.stats().compiled, 1);  // only the blocker
}

TEST(CompileServiceTest, QueuedPastDeadlineExpiresInsteadOfCompiling) {
  auto g = EwModel();
  CompileServiceOptions options;
  options.num_workers = 1;
  CompileService service(options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  auto blocker = MakeRequest(g.get());
  blocker.pre_compile_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  service.Submit(std::move(blocker));

  auto g2 = EwModel("latecomer");
  auto late = MakeRequest(g2.get());
  late.deadline_ms = 0.001;  // expires while queued behind the blocker
  CompileJobHandle handle = service.Submit(std::move(late));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Drain();
  EXPECT_EQ(handle.Wait().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_expired, 1);
}

// ---------------------------------------------------------------------------
// (a) Serving never blocks on an in-flight compile; results bit-identical.

TEST(CompileServiceTest, QueryDuringInFlightCompileServesFallback) {
  auto g = EwModel();
  CompileServiceOptions service_options;
  service_options.num_workers = 1;
  CompileService service(service_options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> compiling{false};

  AsyncEngineOptions options;
  DynamicCompilerEngine engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      options);
  // Intercept the engine's own prefetch job: Prepare submits it, we hold
  // the worker inside it.
  // (Prepare's request has no hook, so instead park the worker with a
  // blocker job submitted first.)
  auto blocker = MakeRequest(g.get());
  blocker.model_name = "blocker";
  blocker.pre_compile_hook = [&] {
    compiling.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  service.Submit(std::move(blocker));
  ASSERT_TRUE(engine.Prepare(*g, {{"B", "S"}}).ok());

  // The worker is stuck; the engine's executable cannot be ready.
  Tensor in(DType::kF32, {4, 8});
  Rng rng(7);
  for (int64_t i = 0; i < in.num_elements(); ++i) {
    in.f32_data()[i] = rng.Normal();
  }
  InterpreterEngine reference(InterpreterProfile::PyTorch());
  ASSERT_TRUE(reference.Prepare(*g, {{"B", "S"}}).ok());
  auto want = reference.Execute({in});
  ASSERT_TRUE(want.ok());

  // Queries complete promptly on the fallback leg — no blocking on the
  // stuck compile — and the math is bit-identical to the interpreter.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
    auto got = engine.Execute({in});
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), want->size());
    for (size_t o = 0; o < got->size(); ++o) {
      ASSERT_EQ((*got)[o].num_elements(), (*want)[o].num_elements());
      for (int64_t e = 0; e < (*got)[o].num_elements(); ++e) {
        EXPECT_EQ((*got)[o].f32_data()[e], (*want)[o].f32_data()[e]);
      }
    }
  }
  EXPECT_GE(engine.stats().fallback_queries, 3);
  EXPECT_EQ(engine.swaps(), 0);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  service.Drain();

  // Compiled executable picked up on a later query (atomic hot-swap), and
  // numerics stay bit-identical.
  EXPECT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
  EXPECT_EQ(engine.swaps(), 1);
  auto compiled = engine.Execute({in});
  ASSERT_TRUE(compiled.ok());
  for (int64_t e = 0; e < (*compiled)[0].num_elements(); ++e) {
    EXPECT_EQ((*compiled)[0].f32_data()[e], (*want)[0].f32_data()[e]);
  }
  EXPECT_TRUE(compiling.load());
}

// ---------------------------------------------------------------------------
// (b) Hot-swap under concurrent Run: torn-read-free, no stale plans.

TEST(CompileServiceTest, HotSwapUnderConcurrentRunHasNoStalePlans) {
  auto g = EwModel();
  // Two executables of the same model, swapped repeatedly while 4 threads
  // Run. Each Run must see a coherent executable (its snapshot), and after
  // every swap the outgoing executable's launch-plan cache must be empty.
  auto exe_a = DiscCompiler::Compile(*g, {{"B", "S"}});
  auto exe_b = DiscCompiler::Compile(*g, {{"B", "S"}});
  ASSERT_TRUE(exe_a.ok() && exe_b.ok());
  std::shared_ptr<const Executable> a(std::move(*exe_a));
  std::shared_ptr<const Executable> b(std::move(*exe_b));

  ExecutableSlot slot;
  slot.Swap(a);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load()) {
        std::shared_ptr<const Executable> snapshot = slot.Acquire();
        ASSERT_NE(snapshot, nullptr);
        int64_t rows = 1 + static_cast<int64_t>(rng.Uniform() * 6);
        auto result = snapshot->RunWithShapes({{rows, 16}});
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ++runs;
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    std::shared_ptr<const Executable> out = slot.Swap(i % 2 == 0 ? b : a);
    ASSERT_NE(out, nullptr);
    // The swapped-out executable has no memoized plans from its last life.
    // In-flight Runs against the old snapshot may repopulate entries
    // *after* this check — that is fine, they are keyed to that same
    // executable and cleared again on its next swap-out.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(runs.load(), 0);

  // Quiescent check: swap both out and verify cleared caches.
  slot.Swap(nullptr);
  EXPECT_EQ(a->plan_cache_stats().entries, 0);
  b->ClearPlanCache();
  EXPECT_EQ(b->plan_cache_stats().entries, 0);
}

// ---------------------------------------------------------------------------
// (c) Warm restart: second lifetime restores everything from disk.

TEST(CompileServiceTest, WarmRestartRestoresFromDiskWithZeroCompiles) {
  CacheDir dir("warm_restart");
  auto g1 = EwModel("model_one");
  auto g2 = EwModel("model_two");

  CompileServiceOptions options;
  options.cache.dir = dir.path();

  {
    CompileService first_life(options);
    auto h1 = first_life.Submit(MakeRequest(g1.get()));
    auto h2 = first_life.Submit(MakeRequest(g2.get()));
    EXPECT_TRUE(h1.Wait().status.ok());
    EXPECT_TRUE(h2.Wait().status.ok());
    EXPECT_EQ(first_life.stats().compiled, 2);
    EXPECT_EQ(first_life.cache().stats().stores, 2);
  }

  // Fresh service, same directory: every artifact restores from disk.
  CompileService second_life(options);
  auto h1 = second_life.Submit(MakeRequest(g1.get()));
  auto h2 = second_life.Submit(MakeRequest(g2.get()));
  const CompileJobOutcome& o1 = h1.Wait();
  const CompileJobOutcome& o2 = h2.Wait();
  ASSERT_TRUE(o1.status.ok() && o2.status.ok());
  EXPECT_TRUE(o1.from_disk_cache);
  EXPECT_TRUE(o2.from_disk_cache);
  EXPECT_EQ(second_life.stats().compiled, 0);
  EXPECT_EQ(second_life.stats().disk_hits, 2);
  EXPECT_TRUE(o1.executable->RunWithShapes({{8, 16}}).ok());

  // Different options = different key = not a hit.
  auto varied = MakeRequest(g1.get());
  varied.options.fusion.enable_stitch = false;
  auto h3 = second_life.Submit(std::move(varied));
  EXPECT_TRUE(h3.Wait().status.ok());
  EXPECT_EQ(second_life.stats().compiled, 1);
}

// ---------------------------------------------------------------------------
// (d) Corruption: quarantined and recompiled, never crashed on.

TEST(CompileServiceTest, CorruptedEntryIsQuarantinedAndRecompiled) {
  CacheDir dir("corruption");
  auto g = EwModel("fragile");
  CompileServiceOptions options;
  options.cache.dir = dir.path();

  {
    CompileService first_life(options);
    auto first = first_life.Submit(MakeRequest(g.get()));
    EXPECT_TRUE(first.Wait().status.ok());
  }

  // Truncate every entry file to garbage.
  int corrupted = 0;
  for (const auto& entry :
       fs::directory_iterator(dir.path() + "/entries")) {
    std::ofstream out(entry.path());
    out << "{ this is not json";
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 1);

  CompileService second_life(options);
  auto second = second_life.Submit(MakeRequest(g.get()));
  const CompileJobOutcome& outcome = second.Wait();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_FALSE(outcome.from_disk_cache);
  EXPECT_EQ(second_life.stats().compiled, 1);
  EXPECT_EQ(second_life.cache().stats().quarantined, 1);
  // The bad entry was moved aside, not deleted. The key whose bytes just
  // lied is session-poisoned: the recompiled artifact is NOT re-stored by
  // the same lifetime (no trusting a key that served corruption).
  EXPECT_TRUE(fs::exists(dir.path() + "/quarantine"));
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path() + "/quarantine"),
                          fs::directory_iterator{}),
            1);

  // Third lifetime: a fresh session carries no session poison (bitrot
  // convicts the copy, not the artifact) — it compiles honestly and its
  // store sticks.
  {
    CompileService third_life(options);
    auto third_job = third_life.Submit(MakeRequest(g.get()));
    const CompileJobOutcome& third = third_job.Wait();
    ASSERT_TRUE(third.status.ok()) << third.status.ToString();
    EXPECT_FALSE(third.from_disk_cache);
    EXPECT_EQ(third_life.cache().stats().stores, 1);
  }

  // Fourth lifetime: the re-stored entry hits clean.
  CompileService fourth_life(options);
  auto fourth = fourth_life.Submit(MakeRequest(g.get()));
  EXPECT_TRUE(fourth.Wait().from_disk_cache);
}

// ---------------------------------------------------------------------------
// (e) Miscompile quarantine: poisoned keys are refused durably; corrupt
// loads are refused for the rest of the session.

TEST(CompileServiceTest, PoisonedKeyIsRefusedDurablyAcrossRestart) {
  CacheDir dir("poison");
  auto g = EwModel("poisoned");
  ArtifactCacheOptions cache_options;
  cache_options.dir = dir.path();
  CompileOptions copts;
  CacheKey key = CacheKey::Make(*g, {{"B", "S"}}, copts);

  PersistentArtifactCache cache(cache_options);
  ASSERT_TRUE(cache.Store(key, g->name(), copts, "report").ok());
  ASSERT_TRUE(cache.Lookup(key).has_value());

  ASSERT_TRUE(cache.Poison(key, "admission gate: divergence").ok());
  EXPECT_TRUE(cache.IsPoisoned(key));
  EXPECT_EQ(cache.stats().poisoned, 1);
  // Lookup refuses without touching the (quarantined) entry...
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_GE(cache.stats().poison_rejects, 1);
  // ...and Store refuses to re-create it under the same key.
  EXPECT_EQ(cache.Store(key, g->name(), copts, "report").code(),
            StatusCode::kFailedPrecondition);
  // The on-disk entry was moved aside (quarantine/ counts it), and the
  // poison list lives beside the manifest, not inside quarantine/.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path() + "/quarantine"),
                          fs::directory_iterator{}),
            1);
  EXPECT_TRUE(fs::exists(dir.path() + "/poisoned.json"));

  // A warm restart reloads the poison list before anything else.
  PersistentArtifactCache revived(cache_options);
  EXPECT_TRUE(revived.IsPoisoned(key));
  EXPECT_FALSE(revived.Lookup(key).has_value());
  EXPECT_EQ(revived.Store(key, g->name(), copts, "report").code(),
            StatusCode::kFailedPrecondition);
}

TEST(CompileServiceTest, BitrotLoadIsQuarantinedAndSessionPoisoned) {
  CacheDir dir("bitrot");
  auto g = EwModel("rotten");
  ArtifactCacheOptions cache_options;
  cache_options.dir = dir.path();
  CompileOptions copts;
  CacheKey key = CacheKey::Make(*g, {{"B", "S"}}, copts);
  {
    PersistentArtifactCache writer(cache_options);
    ASSERT_TRUE(writer.Store(key, g->name(), copts, "report").ok());
  }

  ASSERT_TRUE(
      FailpointRegistry::Global().ArmFromSpec("cache.bitrot=once").ok());
  PersistentArtifactCache cache(cache_options);
  // The flipped byte breaks the parse: miss, entry quarantined.
  EXPECT_FALSE(cache.Lookup(key).has_value());
  FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(cache.stats().quarantined, 1);

  // Session poison: the same key cannot be re-stored or re-served in this
  // process — a corrupt artifact must not come straight back under the
  // CacheKey that just failed.
  EXPECT_TRUE(cache.IsPoisoned(key));
  EXPECT_EQ(cache.Store(key, g->name(), copts, "report").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_GE(cache.stats().poison_rejects, 1);

  // Unlike Poison(), the session quarantine is NOT persisted: a fresh
  // process may re-store a good artifact under the key.
  PersistentArtifactCache fresh(cache_options);
  EXPECT_FALSE(fresh.IsPoisoned(key));
  EXPECT_TRUE(fresh.Store(key, g->name(), copts, "report").ok());
  EXPECT_TRUE(fresh.Lookup(key).has_value());
}

TEST(CompileServiceTest, ValidateJobClassRunsAtLowestPriority) {
  CompileService service;
  CompileJobHandle task = service.SubmitTask(
      "probe-task", JobPriority::kValidate,
      [] { return CompileJobOutcome(); });
  ASSERT_TRUE(task.valid());
  const CompileJobOutcome& outcome = task.Wait();
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.executable, nullptr);
  service.Drain();
  EXPECT_EQ(service.stats().tasks_submitted, 1);
  EXPECT_EQ(service.stats().tasks_completed, 1);
  EXPECT_EQ(service.stats().tasks_failed, 0);
  // Worker tasks are not compiles: compile accounting stays untouched.
  EXPECT_EQ(service.stats().compiled, 0);

  CompileJobHandle failing = service.SubmitTask(
      "doomed-task", JobPriority::kValidate,
      [] {
        CompileJobOutcome outcome;
        outcome.status = Status::DataLoss("caught");
        return outcome;
      });
  EXPECT_EQ(failing.Wait().status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(service.stats().tasks_failed, 1);
}

TEST(CompileServiceTest, CacheStoreFaultDegradesNotCrashes) {
  CacheDir dir("store_fault");
  auto g = EwModel("unstorable");
  CompileServiceOptions options;
  options.cache.dir = dir.path();
  CompileService service(options);

  FailpointSpec spec;
  spec.trigger = FailpointSpec::Trigger::kAlways;
  FailpointRegistry::Global().Arm("compile_service.cache.store", spec);
  auto job = service.Submit(MakeRequest(g.get()));
  const CompileJobOutcome& outcome = job.Wait();
  FailpointRegistry::Global().Disarm("compile_service.cache.store");

  // The compile itself succeeded; only persistence was lost.
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(service.cache().stats().stores, 0);
}

TEST(CompileServiceTest, AsyncEngineRunsWithItsProfilesMemorySettings) {
  // The compiled path runs in the profile's memory mode under its limit,
  // and memory-aware admission reads whatever serves the next query: the
  // fallback leg until the executable is installed, then its peak formula.
  // The caching allocator would make three calls here (the weight, the
  // product, the activation); the arena makes one.
  Graph g("arena");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 64});
  b.Output({b.Relu(b.MatMul(x, b.Constant(Tensor(DType::kF32, {64, 64}))))});
  const std::vector<std::vector<std::string>> labels = {{"B", ""}};
  const std::vector<std::vector<int64_t>> dims = {{64, 64}};
  DynamicProfile arena = DynamicProfile::DiscArena();
  arena.per_alloc_host_us = 1.0;
  DynamicCompilerEngine reference(arena);
  ASSERT_TRUE(reference.Prepare(g, labels).ok());
  auto want = reference.Query(dims, DeviceSpec::T4());
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto want_peak = reference.PredictPeakBytes(dims);
  ASSERT_TRUE(want_peak.ok()) << want_peak.status().ToString();
  ASSERT_GT(*want_peak, 1024);

  CompileService service;
  AsyncEngineOptions options;
  options.profile = arena;
  options.sync_compile = true;
  DynamicCompilerEngine engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      options);
  ASSERT_TRUE(engine.Prepare(g, labels).ok());
  auto before_install = engine.PredictPeakBytes(dims);
  ASSERT_TRUE(before_install.ok()) << before_install.status().ToString();
  EXPECT_EQ(*before_install, 0);  // the interpreter admits unconditionally
  auto got = engine.Query(dims, DeviceSpec::T4());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(engine.swaps(), 1);
  EXPECT_EQ(got->alloc_us, 1.0);  // the arena: one allocator call
  EXPECT_EQ(got->peak_memory_bytes, want->peak_memory_bytes);
  auto peak = engine.PredictPeakBytes(dims);
  ASSERT_TRUE(peak.ok()) << peak.status().ToString();
  EXPECT_EQ(*peak, *want_peak);
  EXPECT_EQ(engine.stats().memory_predictions, 1);
  EXPECT_EQ(engine.stats().last_predicted_peak_bytes, *want_peak);

  options.profile.memory_limit_bytes = 1024;
  DynamicCompilerEngine limited(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      options);
  ASSERT_TRUE(limited.Prepare(g, labels).ok());
  auto over = limited.Query(dims, DeviceSpec::T4());
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted)
      << over.status().ToString();
}

TEST(CompileServiceTest, WorkerFaultFailsJobAndFallbackKeepsServing) {
  auto g = EwModel("doomed");
  CompileService service;
  DynamicCompilerEngine engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()));

  FailpointSpec spec;
  spec.trigger = FailpointSpec::Trigger::kAlways;
  FailpointRegistry::Global().Arm("compile_service.worker", spec);
  ASSERT_TRUE(engine.Prepare(*g, {{"B", "S"}}).ok());
  service.Drain();
  // The job died; queries still succeed via the fallback leg.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
  }
  EXPECT_GE(engine.stats().fallback_queries, 3);
  FailpointRegistry::Global().Disarm("compile_service.worker");

  // Healed: the next query adopts the pending job if it compiled, or else
  // resubmits it. Draining after that query makes the second one adopt
  // deterministically instead of racing the worker.
  service.Drain();
  EXPECT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
  service.Drain();
  EXPECT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
  EXPECT_EQ(engine.swaps(), 1);
}

// ---------------------------------------------------------------------------
// LRU eviction by byte budget.

TEST(CompileServiceTest, EvictsLeastRecentlyUsedPastByteBudget) {
  CacheDir dir("eviction");
  std::vector<std::unique_ptr<Graph>> graphs;
  for (int i = 0; i < 4; ++i) {
    graphs.push_back(EwModel("model_" + std::to_string(i)));
  }
  CompileServiceOptions options;
  options.cache.dir = dir.path();
  CompileService service(options);
  // Learn a single entry's size, then budget for ~2.
  auto first = service.Submit(MakeRequest(graphs[0].get()));
  EXPECT_TRUE(first.Wait().status.ok());
  int64_t entry_bytes = service.cache().stats().total_bytes;
  ASSERT_GT(entry_bytes, 0);

  ArtifactCacheOptions bounded;
  bounded.dir = dir.path();
  bounded.byte_budget = entry_bytes * 2 + entry_bytes / 2;
  PersistentArtifactCache cache(bounded);
  CompileOptions copts;
  for (int i = 1; i < 4; ++i) {
    CacheKey key = CacheKey::Make(*graphs[i], {{"B", "S"}}, copts);
    EXPECT_TRUE(
        cache.Store(key, graphs[i]->name(), copts, "report").ok());
  }
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_LE(cache.stats().total_bytes, bounded.byte_budget);
  // The newest entry always survives.
  CacheKey newest = CacheKey::Make(*graphs[3], {{"B", "S"}}, copts);
  EXPECT_TRUE(cache.Lookup(newest).has_value());
}

// ---------------------------------------------------------------------------
// Cache key + options serialization.

TEST(CompileServiceTest, OptionsJsonRoundTripsEverySemanticField) {
  CompileOptions options;
  options.run_graph_passes = false;
  options.fusion.enable_stitch = false;
  options.fusion.max_group_size = 17;
  options.specialize.max_speculative_variants = 5;
  options.specialize.enable_vectorization = false;
  options.likely_dim_values = {{"B", {4, 512}}, {"S", {64}}};
  options.dim_divisors = {{"B", 4}};

  CompileOptions back = OptionsFromJson(OptionsToJson(options));
  EXPECT_EQ(OptionsToJson(back).Serialize(),
            OptionsToJson(options).Serialize());
  EXPECT_EQ(back.likely_dim_values, options.likely_dim_values);
  EXPECT_EQ(back.dim_divisors, options.dim_divisors);
  EXPECT_EQ(back.fusion.max_group_size, 17);
}

TEST(CompileServiceTest, CacheKeySeparatesModelOptionsAndHints) {
  auto g1 = EwModel("one");
  auto g2 = EwModel("two");
  CompileOptions base;
  CacheKey k1 = CacheKey::Make(*g1, {{"B", "S"}}, base);

  EXPECT_EQ(k1.ToId(), CacheKey::Make(*g1, {{"B", "S"}}, base).ToId());
  EXPECT_NE(k1.ToId(), CacheKey::Make(*g2, {{"B", "S"}}, base).ToId());
  EXPECT_NE(k1.ToId(), CacheKey::Make(*g1, {{"B", "T"}}, base).ToId());

  CompileOptions tweaked = base;
  tweaked.fusion.enable_stitch = false;
  EXPECT_NE(k1.ToId(), CacheKey::Make(*g1, {{"B", "S"}}, tweaked).ToId());

  // Hints change the constraint signature, not the options hash.
  CompileOptions hinted = base;
  hinted.likely_dim_values = {{"B", {512}}};
  CacheKey k_hint = CacheKey::Make(*g1, {{"B", "S"}}, hinted);
  EXPECT_NE(k1.ToId(), k_hint.ToId());
  EXPECT_EQ(k1.options_hash, k_hint.options_hash);
  EXPECT_NE(k1.constraint_signature, k_hint.constraint_signature);
}

// ---------------------------------------------------------------------------
// Profile feedback.

TEST(CompileServiceTest, ProfileFeedbackEmitsMostFrequentLast) {
  ShapeProfileOptions options;
  options.min_observations = 4;
  ShapeProfileFeedback feedback(options);
  std::vector<std::vector<std::string>> labels = {{"B"}};
  for (int i = 0; i < 3; ++i) feedback.Observe(labels, {{512}});
  EXPECT_FALSE(feedback.MaybeRespecialize().has_value());
  feedback.Observe(labels, {{8}});

  auto hints = feedback.MaybeRespecialize();
  ASSERT_TRUE(hints.has_value());
  ASSERT_EQ(hints->size(), 1u);
  EXPECT_EQ((*hints)[0].first, "B");
  // Ascending frequency: 8 (1x) before 512 (3x) — the speculative-variant
  // builder takes from the back, so under truncation 512 wins.
  EXPECT_EQ((*hints)[0].second, (std::vector<int64_t>{8, 512}));
}

TEST(CompileServiceTest, ProfileShiftTriggersFreshRespecialization) {
  ShapeProfileOptions options;
  options.min_observations = 4;
  options.recheck_interval = 4;
  ShapeProfileFeedback feedback(options);
  std::vector<std::vector<std::string>> labels = {{"B"}};
  for (int i = 0; i < 4; ++i) feedback.Observe(labels, {{512}});
  ASSERT_TRUE(feedback.MaybeRespecialize().has_value());
  EXPECT_EQ(feedback.respecializations(), 1);

  // Stable profile: no re-emission.
  for (int i = 0; i < 8; ++i) feedback.Observe(labels, {{512}});
  EXPECT_FALSE(feedback.MaybeRespecialize().has_value());

  // Traffic shifts: 64 overtakes 512 — a fresh hint set is emitted.
  for (int i = 0; i < 40; ++i) feedback.Observe(labels, {{64}});
  auto shifted = feedback.MaybeRespecialize();
  ASSERT_TRUE(shifted.has_value());
  EXPECT_EQ((*shifted)[0].second.back(), 64);
  EXPECT_EQ(feedback.respecializations(), 2);
}

TEST(CompileServiceTest, FlatDistributionEmitsNothing) {
  ShapeProfileOptions options;
  options.min_observations = 4;
  options.confidence = 0.5;
  ShapeProfileFeedback feedback(options);
  std::vector<std::vector<std::string>> labels = {{"B"}};
  for (int64_t v : {1, 2, 3, 4, 5, 6, 7, 8}) {
    feedback.Observe(labels, {{v}});
  }
  EXPECT_FALSE(feedback.MaybeRespecialize().has_value());
}

// ---------------------------------------------------------------------------
// Engine integration: profile feedback through the service, and the
// inline and service modes of the one engine.

std::unique_ptr<Engine> Interpreter() {
  return std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch());
}

TEST(CompileServiceTest, EngineRespecializesThroughServiceOffTheQueryThread) {
  auto g = EwModel();
  CompileService service;
  AsyncEngineOptions options;
  options.profile = DynamicProfile::DiscWithSpeculation();
  DynamicCompilerEngine engine(&service, Interpreter(), options);
  ASSERT_TRUE(engine.Prepare(*g, {{"B", "S"}}).ok());
  service.Drain();  // the prefetch compile

  std::vector<std::vector<int64_t>> hot = {{512, 1024}};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.Query(hot, DeviceSpec::T4()).ok());
  }
  // The eighth query tripped the feedback and submitted the
  // respecialization; nothing compiled on the query thread (the one
  // compilation is the adopted prefetch).
  EXPECT_EQ(engine.respecializations(), 1);
  EXPECT_EQ(engine.stats().compilations, 1);
  service.Drain();
  EXPECT_EQ(service.stats().compiled, 2);

  // A later query adopts the specialized executable, which counts as a
  // compilation.
  auto before = engine.stats().compilations;
  ASSERT_TRUE(engine.Query(hot, DeviceSpec::T4()).ok());
  EXPECT_EQ(engine.stats().compilations, before + 1);
  EXPECT_EQ(engine.swaps(), 2);

  // The traffic shifts; the profile respecializes again (the old one-shot
  // feedback_applied_ flag would have stopped after the first).
  std::vector<std::vector<int64_t>> shifted = {{64, 128}};
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine.Query(shifted, DeviceSpec::T4()).ok());
  }
  service.Drain();
  ASSERT_TRUE(engine.Query(shifted, DeviceSpec::T4()).ok());
  EXPECT_GE(engine.respecializations(), 2);
  EXPECT_GE(engine.stats().compilations, 3);
}

TEST(CompileServiceTest, KernelRegretSubmitsRespecializationJob) {
  auto g = EwModel();
  CompileService service;
  AsyncEngineOptions options;
  options.profile = DynamicProfile::DiscWithSpeculation();
  DynamicCompilerEngine engine(&service, Interpreter(), options);
  ASSERT_TRUE(engine.Prepare(*g, {{"B", "S"}}).ok());
  service.Drain();
  // Four flat observations: below min_observations, nothing trips.
  for (int64_t b : {4, 5, 6, 7}) {
    ASSERT_TRUE(engine.Query({{b, 2 * b}}, DeviceSpec::T4()).ok());
  }
  ASSERT_EQ(engine.respecializations(), 0);

  // The regret-weighted sighting makes {512, 1024} the confident hot
  // value: a respecialization job goes to the service, not the caller. It
  // counts regret_observation_weight (4) observations, no more.
  ASSERT_EQ(engine.profile_observations(), 4);
  const int64_t submitted = service.stats().submitted;
  ASSERT_TRUE(engine.NoteKernelRegret({{512, 1024}}, 5.0).ok());
  EXPECT_EQ(engine.profile_observations(), 8);
  EXPECT_EQ(engine.respecializations(), 1);
  EXPECT_EQ(service.stats().submitted, submitted + 1);
  EXPECT_EQ(engine.stats().compilations, 1);
  service.Drain();
  ASSERT_TRUE(engine.Query({{512, 1024}}, DeviceSpec::T4()).ok());
  EXPECT_EQ(engine.swaps(), 2);
}

TEST(CompileServiceTest, InlineSwapReleasesTheDisplacedExecutable) {
  // Inline mode never rolls back (a kDataLoss goes to the caller), so a
  // respecialization keeps no rollback generation: the displaced
  // executable, and its pooled Run buffer, die at the swap.
  auto g = EwModel();
  DynamicCompilerEngine engine(DynamicProfile::DiscWithSpeculation());
  ASSERT_TRUE(engine.Prepare(*g, {{"B", "S"}}).ok());
  std::weak_ptr<const Executable> first = engine.executable();
  ASSERT_FALSE(first.expired());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.Query({{512, 1024}}, DeviceSpec::T4()).ok());
  }
  ASSERT_EQ(engine.respecializations(), 1);
  EXPECT_EQ(engine.swaps(), 2);
  EXPECT_FALSE(engine.slot().has_previous());
  EXPECT_TRUE(first.expired());
}

TEST(CompileServiceTest, InlineAndServiceModesAgree) {
  auto g = EwModel();
  const std::vector<std::vector<std::string>> labels = {{"B", "S"}};
  // A hot shape long enough to trip DiscWithSpeculation's feedback (after
  // 8 queries), then a cold tail.
  std::vector<std::vector<std::vector<int64_t>>> trace(12, {{512, 1024}});
  for (int64_t b : {3, 64, 17}) trace.push_back({{b, 96}});

  for (const DynamicProfile& profile :
       {DynamicProfile::Disc(), DynamicProfile::DiscWithSpeculation()}) {
    SCOPED_TRACE(profile.name);
    DynamicCompilerEngine inline_engine(profile);
    CompileService service;
    AsyncEngineOptions options;
    options.profile = profile;
    DynamicCompilerEngine service_engine(&service, Interpreter(), options);
    ASSERT_TRUE(inline_engine.Prepare(*g, labels).ok());
    ASSERT_TRUE(service_engine.Prepare(*g, labels).ok());
    service.Drain();

    // The service engine adopts on its first query, then runs the same
    // installs as the inline engine. A respecialization lands there one
    // query later (its job finishes after the query that submitted it),
    // so the query that trips it and the next, whose plan-cache states
    // differ, are not compared.
    int compared = 0;
    for (size_t q = 0; q < trace.size(); ++q) {
      const bool in_step = q == 0 || service_engine.swaps() ==
                                         inline_engine.swaps();
      auto want = inline_engine.Query(trace[q], DeviceSpec::T4());
      auto got = service_engine.Query(trace[q], DeviceSpec::T4());
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      service.Drain();
      if (!in_step || service_engine.swaps() != inline_engine.swaps()) {
        continue;
      }
      ++compared;
      EXPECT_EQ(got->total_us, want->total_us) << "query " << q;
      EXPECT_EQ(got->device_us, want->device_us) << "query " << q;
      EXPECT_EQ(got->host_us, want->host_us) << "query " << q;
      EXPECT_EQ(got->compile_us, want->compile_us) << "query " << q;
      EXPECT_EQ(got->alloc_us, want->alloc_us) << "query " << q;
      EXPECT_EQ(got->kernel_launches, want->kernel_launches) << "query " << q;
      EXPECT_EQ(got->bytes_moved, want->bytes_moved) << "query " << q;
      EXPECT_EQ(got->padded_waste_bytes, want->padded_waste_bytes)
          << "query " << q;
      EXPECT_EQ(got->peak_memory_bytes, want->peak_memory_bytes)
          << "query " << q;
    }
    const bool respecialized = profile.feedback_after > 0;
    EXPECT_EQ(compared, static_cast<int>(trace.size()) -
                            (respecialized ? 2 : 0));
    EXPECT_EQ(service_engine.stats().fallback_queries, 0);
    EXPECT_EQ(service_engine.respecializations(),
              inline_engine.respecializations());
    EXPECT_EQ(service_engine.respecializations(), respecialized ? 1 : 0);
    EXPECT_EQ(service_engine.stats().compilations,
              inline_engine.stats().compilations);

    // Every distinct shape of the trace: the last hot query and the tail.
    for (size_t q = trace.size() - 4; q < trace.size(); ++q) {
      const auto& dims = trace[q][0];
      Tensor in(DType::kF32, dims);
      Rng rng(q + 1);
      for (int64_t i = 0; i < in.num_elements(); ++i) {
        in.f32_data()[i] = rng.Normal();
      }
      auto want = inline_engine.Execute({in});
      auto got = service_engine.Execute({in});
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), want->size());
      for (size_t o = 0; o < got->size(); ++o) {
        EXPECT_TRUE(Tensor::BitEqual((*got)[o], (*want)[o])) << "query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace disc
