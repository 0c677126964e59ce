// The differential admission gate: probe-set assembly, differential
// replay verdicts (miscompile divergence, guard violation, bitrot),
// versioned rollback in the slot and the engine, and the persistent
// miscompile quarantine — a caught artifact must never serve a wrong
// result, not in this process and not after a warm restart.
#include "compile_service/shadow_validate.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "baselines/dynamic_engine.h"
#include "baselines/interpreter_engine.h"
#include "compile_service/compile_service.h"
#include "compile_service/hot_swap.h"
#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "runtime/launch_plan.h"
#include "support/failpoint.h"
#include "support/json.h"
#include "support/rng.h"

namespace disc {
namespace {

namespace fs = std::filesystem;

class CacheDir {
 public:
  explicit CacheDir(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("disc_shadow_validate_" + name + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~CacheDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::unique_ptr<Graph> EwModel(const std::string& name = "gate") {
  auto g = std::make_unique<Graph>(name);
  GraphBuilder b(g.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Relu(b.Add(x, x))});
  return g;
}

const std::vector<std::vector<std::string>> kLabels = {{"B", "S"}};

Tensor DeterministicInput(int64_t rows, int64_t cols) {
  std::vector<float> values;
  values.reserve(rows * cols);
  for (int64_t i = 0; i < rows * cols; ++i) {
    values.push_back(static_cast<float>((i * 37) % 101) / 50.0f - 1.0f);
  }
  return Tensor::F32({rows, cols}, values);
}

class ShadowValidateTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Probe-set assembly.

TEST_F(ShadowValidateTest, BuildProbesDrawsFromEverySource) {
  auto g = EwModel();
  CompileOptions options;
  options.likely_dim_values = {{"B", {8}}, {"S", {128}}};
  auto exe = DiscCompiler::Compile(*g, kLabels, options);
  ASSERT_TRUE(exe.ok());

  ShadowValidateOptions vopts;
  vopts.max_probes = 32;
  ShadowValidator validator(vopts);
  std::vector<ProbeBinding> probes = validator.BuildProbes(
      **exe, kLabels, {{{4, 16}}, {{2, 32}}}, {{"B", {4, 2}}, {"S", {64}}},
      {"6x48;", "not a signature"});

  std::set<std::string> sources;
  std::set<std::string> signatures;
  for (const ProbeBinding& probe : probes) {
    sources.insert(probe.source);
    // Deduplicated by signature.
    EXPECT_TRUE(signatures.insert(ShapeSignature(probe.input_dims)).second);
  }
  EXPECT_TRUE(sources.count("observed")) << probes.size();
  EXPECT_TRUE(sources.count("profile"));
  EXPECT_TRUE(sources.count("outlier"));
  // The hinted compile has guarded variants, so boundary probes exist.
  EXPECT_TRUE(sources.count("boundary"));
  EXPECT_LE(probes.size(), 32u);

  // Most recent observed binding comes first.
  ASSERT_FALSE(probes.empty());
  EXPECT_EQ(probes[0].source, "observed");
  EXPECT_EQ(ShapeSignature(probes[0].input_dims), ShapeSignature({{2, 32}}));
}

TEST_F(ShadowValidateTest, BuildProbesCapReservesBoundaryShare) {
  auto g = EwModel();
  CompileOptions options;
  options.likely_dim_values = {{"B", {8}}, {"S", {128}}};
  auto exe = DiscCompiler::Compile(*g, kLabels, options);
  ASSERT_TRUE(exe.ok());

  // A long observed history would crowd out boundary probes without the
  // reserved quota.
  std::vector<std::vector<std::vector<int64_t>>> observed;
  for (int64_t i = 1; i <= 20; ++i) observed.push_back({{i, 1000 + i}});

  ShadowValidateOptions vopts;
  vopts.max_probes = 8;
  ShadowValidator validator(vopts);
  std::vector<ProbeBinding> probes =
      validator.BuildProbes(**exe, kLabels, observed, {}, {});
  ASSERT_LE(probes.size(), 8u);
  int boundary = 0;
  for (const ProbeBinding& probe : probes) {
    if (probe.source == "boundary") ++boundary;
  }
  EXPECT_GE(boundary, 1);
  EXPECT_LE(boundary, 4);
}

// ---------------------------------------------------------------------------
// Differential replay verdicts.

TEST_F(ShadowValidateTest, CleanCandidatePassesAgainstReferenceEvaluator) {
  auto g = EwModel();
  auto exe = DiscCompiler::Compile(*g, kLabels);
  ASSERT_TRUE(exe.ok());

  ShadowValidator validator;
  auto probes = validator.BuildProbes(**exe, kLabels, {{{4, 8}}}, {}, {});
  ASSERT_FALSE(probes.empty());
  ValidationReport report =
      validator.Validate(**exe, nullptr, *g, probes, "gate", "key0");
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_STREQ(report.verdict(), "pass");
  EXPECT_EQ(report.reference, "reference-evaluator");
  EXPECT_GT(report.probes, 0);
  EXPECT_EQ(report.divergences, 0);
  EXPECT_EQ(report.guard_violations, 0);
}

TEST_F(ShadowValidateTest, CleanRespecializationPassesBitwiseVsIncumbent) {
  auto g = EwModel();
  auto incumbent = DiscCompiler::Compile(*g, kLabels);
  ASSERT_TRUE(incumbent.ok());
  CompileOptions options;
  options.likely_dim_values = {{"B", {4}}, {"S", {8}}};
  auto candidate = DiscCompiler::Compile(*g, kLabels, options);
  ASSERT_TRUE(candidate.ok());

  ShadowValidator validator;
  auto probes =
      validator.BuildProbes(**candidate, kLabels, {{{4, 8}}, {{3, 5}}}, {}, {});
  ValidationReport report = validator.Validate(
      **candidate, incumbent->get(), *g, probes, "gate", "key1");
  EXPECT_TRUE(report.passed) << report.Summary();
  EXPECT_EQ(report.reference, "incumbent");
}

TEST_F(ShadowValidateTest, MiscompiledCandidateIsCaughtAsDivergence) {
  auto g = EwModel();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("kernel.miscompile=always")
                  .ok());
  auto exe = DiscCompiler::Compile(*g, kLabels);
  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(exe.ok());

  ShadowValidator validator;
  auto probes = validator.BuildProbes(**exe, kLabels, {{{4, 8}}}, {}, {});
  ValidationReport report =
      validator.Validate(**exe, nullptr, *g, probes, "gate", "key2");
  EXPECT_FALSE(report.passed);
  EXPECT_STREQ(report.verdict(), "caught");
  EXPECT_GE(report.divergences, 1) << report.Summary();
}

// The injected miscompile must change its element whatever the value: a
// NaN, an infinity, an f32 too large for + 1 to show, an i1 that is already
// 1 and an i64 beyond 2^53 included, each beyond the validator's tolerance.
TEST_F(ShadowValidateTest, InjectedMiscompileMovesEveryValueBeyondTolerance) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kMax = std::numeric_limits<float>::max();
  const ShadowValidateOptions tolerances;
  struct Case {
    DType dtype;
    std::function<Value*(GraphBuilder*, Value*)> op;
    Tensor input;
  };
  auto neg = [](GraphBuilder* b, Value* x) { return b->Neg(x); };
  auto positive = [](GraphBuilder* b, Value* x) {
    return b->Greater(x, b->ScalarI64(0));
  };
  const std::vector<Case> cases = {
      {DType::kF32, neg, Tensor::F32({3}, {0.5f, 1.0f, 2.0f})},
      {DType::kF32, neg, Tensor::F32({3}, {3e7f, 1.0f, 2.0f})},
      {DType::kF32, neg, Tensor::F32({3}, {-3e7f, 1.0f, 2.0f})},
      {DType::kF32, neg, Tensor::F32({3}, {kMax, 1.0f, 2.0f})},
      {DType::kF32, neg, Tensor::F32({3}, {-kMax, 1.0f, 2.0f})},
      {DType::kF32, neg, Tensor::F32({3}, {kInf, 1.0f, 2.0f})},
      {DType::kF32, neg, Tensor::F32({3}, {-kInf, 1.0f, 2.0f})},
      {DType::kF32, neg, Tensor::F32({3}, {kNan, 1.0f, 2.0f})},
      {DType::kI64, neg, Tensor::I64({3}, {(int64_t{1} << 60) + 1, 1, 2})},
      {DType::kI64, neg, Tensor::I64({3}, {-12345678, 1, 2})},
      {DType::kI64, neg, Tensor::I64({3}, {0, 1, 2})},
      {DType::kI64, positive, Tensor::I64({3}, {5, 1, 2})},  // i1 true
      {DType::kI64, positive, Tensor::I64({3}, {-5, 1, 2})},  // i1 false
  };
  for (const Case& c : cases) {
    Graph g("miscompiled");
    GraphBuilder b(&g);
    Value* x = b.Input("x", c.dtype, {kDynamicDim});
    b.Output({c.op(&b, x)});
    ASSERT_TRUE(FailpointRegistry::Global()
                    .ArmFromSpec("kernel.miscompile=always")
                    .ok());
    auto exe = DiscCompiler::Compile(g, {{"N"}});
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(exe.ok()) << exe.status().ToString();
    auto got = (*exe)->Run({c.input});
    auto want = EvaluateGraph(g, {c.input});
    ASSERT_TRUE(got.ok() && want.ok());
    const Tensor& out = got->outputs[0];
    const Tensor& ref = (*want)[0];
    EXPECT_FALSE(Tensor::BitEqual(out, ref)) << c.input.ToString();
    EXPECT_FALSE(Tensor::AllClose(out, ref, tolerances.rtol, tolerances.atol))
        << c.input.ToString() << ": " << out.ToString() << " vs "
        << ref.ToString();
  }
}

TEST_F(ShadowValidateTest, GuardMispredictIsCaughtAsGuardViolation) {
  auto g = EwModel();
  CompileOptions options;
  options.likely_dim_values = {{"B", {8}}, {"S", {128}}};
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("kernel.guard.mispredict=always")
                  .ok());
  auto exe = DiscCompiler::Compile(*g, kLabels, options);
  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(exe.ok());

  // A binding away from the specialized hot shape: the forced variant's
  // guard rejects it, which the validator's per-probe guard re-check (or
  // the runtime's own launch-plan verification) must flag.
  ShadowValidator validator;
  auto probes = validator.BuildProbes(**exe, kLabels, {{{3, 7}}}, {}, {});
  ValidationReport report =
      validator.Validate(**exe, nullptr, *g, probes, "gate", "key3");
  EXPECT_FALSE(report.passed);
  EXPECT_GE(report.guard_violations, 1) << report.Summary();
}

TEST_F(ShadowValidateTest, ReportJsonIsDeterministicAndParseable) {
  auto g = EwModel();
  auto exe = DiscCompiler::Compile(*g, kLabels);
  ASSERT_TRUE(exe.ok());
  ShadowValidator validator;
  auto probes = validator.BuildProbes(**exe, kLabels, {{{4, 8}}}, {}, {});
  ValidationReport report =
      validator.Validate(**exe, nullptr, *g, probes, "gate", "key4");

  std::string once = report.ToJson().SerializePretty();
  std::string twice = report.ToJson().SerializePretty();
  EXPECT_EQ(once, twice);

  auto parsed = ParseJson(once);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->is_object());
  for (const char* field :
       {"model", "key_id", "reference", "verdict", "passed", "probes",
        "divergences", "guard_violations", "probe_errors",
        "probe_outcomes"}) {
    EXPECT_NE(parsed->Find(field), nullptr) << field;
  }
  EXPECT_EQ(parsed->Find("verdict")->as_string(), "pass");

  CacheDir dir("report");
  fs::create_directories(dir.path());
  std::string path = dir.path() + "/validation_report.json";
  ASSERT_TRUE(report.WriteJsonFile(path).ok());
  EXPECT_TRUE(fs::exists(path));
}

// ---------------------------------------------------------------------------
// Engine admission gate.

TEST_F(ShadowValidateTest, EngineAdmitsCleanCandidateAfterValidation) {
  auto g = EwModel();
  CompileService service;
  AsyncEngineOptions options;
  options.validate_adoptions = true;
  DynamicCompilerEngine engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      options);
  ASSERT_TRUE(engine.Prepare(*g, kLabels).ok());
  service.Drain();  // compile done

  // First query hands the finished compile to the validator instead of
  // adopting it; the candidate is NOT serving yet.
  ASSERT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
  EXPECT_EQ(engine.swaps(), 0);
  service.Drain();  // validation done

  ASSERT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
  EXPECT_EQ(engine.swaps(), 1);
  EXPECT_EQ(engine.validations_run(), 1);
  EXPECT_EQ(engine.validations_caught(), 0);
  ASSERT_NE(engine.last_validation_report(), nullptr);
  EXPECT_TRUE(engine.last_validation_report()->passed);
  EXPECT_GE(service.stats().tasks_completed, 1);
}

TEST_F(ShadowValidateTest, EngineRejectsAndQuarantinesMiscompiledCandidate) {
  auto g = EwModel();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("kernel.miscompile=once")
                  .ok());
  CompileService service;
  AsyncEngineOptions options;
  options.validate_adoptions = true;
  DynamicCompilerEngine engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      options);
  ASSERT_TRUE(engine.Prepare(*g, kLabels).ok());
  service.Drain();
  ASSERT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());  // to validator
  service.Drain();
  ASSERT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());  // verdict

  // Caught: nothing was ever installed, the report says why, and the key
  // is poisoned so the engine refuses to resubmit the same compile.
  EXPECT_EQ(engine.swaps(), 0);
  EXPECT_EQ(engine.validations_caught(), 1);
  ASSERT_NE(engine.last_validation_report(), nullptr);
  EXPECT_FALSE(engine.last_validation_report()->passed);
  CacheKey key =
      CacheKey::Make(*g, kLabels, AsyncEngineOptions{}.profile.compile_options);
  EXPECT_TRUE(service.cache().IsPoisoned(key));
  ASSERT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
  EXPECT_GE(engine.poisoned_skips(), 1);

  // Zero wrong results: Execute keeps serving interpreter-identical math.
  InterpreterEngine reference(InterpreterProfile::PyTorch());
  ASSERT_TRUE(reference.Prepare(*g, kLabels).ok());
  Tensor in = DeterministicInput(4, 8);
  auto want = reference.Execute({in});
  auto got = engine.Execute({in});
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  for (int64_t e = 0; e < (*want)[0].num_elements(); ++e) {
    EXPECT_EQ((*got)[0].f32_data()[e], (*want)[0].f32_data()[e]);
  }
}

TEST_F(ShadowValidateTest, RuntimeGuardViolationRollsBackAndPoisons) {
  auto g = EwModel();
  CompileService service;
  AsyncEngineOptions options;
  options.profile.feedback_after = 4;  // enables respecialization
  DynamicCompilerEngine engine(
      &service,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      options);
  ASSERT_TRUE(engine.Prepare(*g, kLabels).ok());
  service.Drain();
  ASSERT_TRUE(engine.Query({{8, 128}}, DeviceSpec::T4()).ok());
  ASSERT_EQ(engine.swaps(), 1);  // clean generation installed

  // Drive the profile hot enough to respecialize, with the guard
  // mispredict failpoint armed: the respecialized generation dispatches
  // its specialized variant unconditionally.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("kernel.guard.mispredict=always")
                  .ok());
  for (int i = 0; i < 8 && engine.swaps() < 2; ++i) {
    ASSERT_TRUE(engine.Query({{8, 128}}, DeviceSpec::T4()).ok());
    service.Drain();
  }
  FailpointRegistry::Global().DisarmAll();
  ASSERT_EQ(engine.swaps(), 2);

  // The hot shape satisfies the forced variant's guard, so it serves; a
  // different shape trips the runtime guard check -> kDataLoss ->
  // rollback to the clean generation, retried on the same query.
  auto timing = engine.Query({{3, 7}}, DeviceSpec::T4());
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  EXPECT_EQ(engine.data_loss_events(), 1);
  EXPECT_EQ(engine.rollbacks(), 1);
  EXPECT_EQ(engine.slot().rollbacks(), 1);

  // The offending (respecialized) key is quarantined; the clean one
  // is not.
  CacheKey clean_key =
      CacheKey::Make(*g, kLabels, options.profile.compile_options);
  EXPECT_FALSE(service.cache().IsPoisoned(clean_key));

  // The restored generation serves bit-identical math.
  InterpreterEngine reference(InterpreterProfile::PyTorch());
  ASSERT_TRUE(reference.Prepare(*g, kLabels).ok());
  Tensor in = DeterministicInput(3, 7);
  auto want = reference.Execute({in});
  auto got = engine.Execute({in});
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  for (int64_t e = 0; e < (*want)[0].num_elements(); ++e) {
    EXPECT_EQ((*got)[0].f32_data()[e], (*want)[0].f32_data()[e]);
  }
}

TEST_F(ShadowValidateTest, QuarantineSurvivesWarmRestartWithZeroCompiles) {
  auto g = EwModel();
  CacheDir dir("restart");
  CompileServiceOptions service_options;
  service_options.cache.dir = dir.path();

  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("kernel.miscompile=once")
                  .ok());
  {
    CompileService service(service_options);
    AsyncEngineOptions options;
    options.validate_adoptions = true;
    DynamicCompilerEngine engine(
        &service,
        std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
        options);
    ASSERT_TRUE(engine.Prepare(*g, kLabels).ok());
    service.Drain();
    ASSERT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
    service.Drain();
    ASSERT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
    ASSERT_EQ(engine.validations_caught(), 1);
    ASSERT_EQ(engine.swaps(), 0);
  }
  FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(fs::exists(dir.path() + "/poisoned.json"));

  // Warm restart: the poison list is reloaded from disk, the engine
  // refuses to resubmit the poisoned key, and the service compiles
  // NOTHING for it — fallback serves correct math indefinitely.
  CompileService restarted(service_options);
  AsyncEngineOptions options;
  options.validate_adoptions = true;
  DynamicCompilerEngine engine(
      &restarted,
      std::make_unique<InterpreterEngine>(InterpreterProfile::PyTorch()),
      options);
  ASSERT_TRUE(engine.Prepare(*g, kLabels).ok());
  restarted.Drain();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Query({{4, 8}}, DeviceSpec::T4()).ok());
  }
  EXPECT_GE(engine.poisoned_skips(), 1);
  EXPECT_EQ(engine.swaps(), 0);
  EXPECT_EQ(restarted.stats().submitted, 0);
  EXPECT_EQ(restarted.stats().compiled, 0);
}

// ---------------------------------------------------------------------------
// Versioned slot under concurrency (satellite).

TEST_F(ShadowValidateTest, SlotSurvivesConcurrentRunSwapRollback) {
  auto g = EwModel();
  auto a = DiscCompiler::Compile(*g, kLabels);
  auto b = DiscCompiler::Compile(*g, kLabels);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::shared_ptr<const Executable> exe_a = std::move(*a);
  std::shared_ptr<const Executable> exe_b = std::move(*b);

  ExecutableSlot slot;
  slot.Swap(exe_a);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> runs{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        std::shared_ptr<const Executable> exe = slot.Acquire();
        if (exe == nullptr) continue;
        // The snapshot stays valid across concurrent Swap/Rollback: the
        // run below must never observe a torn executable.
        auto run = exe->RunWithShapes({{4, 8}});
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ++runs;
      }
    });
  }
  // Keep churning generations until the readers have raced plenty of
  // Runs against Swap/Rollback (bounded so a wedged reader cannot hang
  // the test).
  int iterations = 0;
  while (iterations < 200 || (runs.load() < 50 && iterations < 2000000)) {
    slot.Swap(iterations % 2 == 0 ? exe_b : exe_a);
    if (iterations % 3 == 0) slot.Rollback();
    ++iterations;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(runs.load(), 0);
  EXPECT_GT(slot.generation(), 200);
  EXPECT_GT(slot.rollbacks(), 0);
  EXPECT_TRUE(slot.has_executable());
}

TEST_F(ShadowValidateTest, SlotRollbackSemantics) {
  auto g = EwModel();
  auto a = DiscCompiler::Compile(*g, kLabels);
  auto b = DiscCompiler::Compile(*g, kLabels);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::shared_ptr<const Executable> exe_a = std::move(*a);
  std::shared_ptr<const Executable> exe_b = std::move(*b);

  ExecutableSlot slot;
  EXPECT_FALSE(slot.Rollback());  // nothing installed
  slot.Swap(exe_a);
  EXPECT_FALSE(slot.has_previous());  // previous generation was empty
  slot.Swap(exe_b);
  EXPECT_TRUE(slot.has_previous());

  // Warm both plan caches, then roll back: the displaced executable's
  // plans must be gone (a later re-install cannot replay its old life),
  // and the restored one serves.
  ASSERT_TRUE(exe_a->RunWithShapes({{4, 8}}).ok());
  ASSERT_TRUE(exe_b->RunWithShapes({{4, 8}}).ok());
  EXPECT_GT(exe_b->plan_cache_stats().entries, 0);
  int64_t generation = slot.generation();
  ASSERT_TRUE(slot.Rollback());
  EXPECT_EQ(slot.Acquire().get(), exe_a.get());
  EXPECT_EQ(exe_b->plan_cache_stats().entries, 0);
  EXPECT_EQ(slot.generation(), generation + 1);
  EXPECT_EQ(slot.rollbacks(), 1);
  EXPECT_FALSE(slot.Rollback());  // history consumed

  // Clear drops both generations.
  slot.Swap(exe_b);
  slot.Clear();
  EXPECT_FALSE(slot.has_executable());
  EXPECT_FALSE(slot.has_previous());
  EXPECT_FALSE(slot.Rollback());
}

}  // namespace
}  // namespace disc
