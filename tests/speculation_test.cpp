// Shape speculation: exact-shape variants from likely-value hints and the
// runtime feedback loop in the DISC engine.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "baselines/dynamic_engine.h"
#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "support/rng.h"

namespace disc {
namespace {

std::unique_ptr<Graph> EwModel() {
  auto g = std::make_unique<Graph>("spec");
  GraphBuilder b(g.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Relu(b.Add(x, x))});
  return g;
}

TEST(SpeculationTest, HintsProduceExactVariants) {
  auto g = EwModel();
  CompileOptions options;
  options.likely_dim_values = {{"B", {512}}, {"S", {1024}}};
  auto exe = DiscCompiler::Compile(*g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());
  ASSERT_EQ((*exe)->kernels().size(), 1u);
  const auto& variants = (*exe)->kernels()[0]->variants();
  ASSERT_GE(variants.size(), 3u);
  EXPECT_TRUE(variants[0].exact_shape) << variants[0].ToString();
  EXPECT_FALSE(variants[0].guard.always_true());

  // Hot shape dispatches to the exact variant...
  auto hot = (*exe)->RunWithShapes({{512, 1024}});
  ASSERT_TRUE(hot.ok());
  bool used_exact = false;
  for (const auto& [name, count] : *hot->profile.variant_counts) {
    if (name.find("exact_") != std::string::npos && count > 0) {
      used_exact = true;
    }
  }
  EXPECT_TRUE(used_exact) << hot->profile.ToString();

  // ...and is faster than the same shape without hints.
  auto plain = DiscCompiler::Compile(*g, {{"B", "S"}});
  ASSERT_TRUE(plain.ok());
  auto cold = (*plain)->RunWithShapes({{512, 1024}});
  ASSERT_TRUE(cold.ok());
  EXPECT_LT(hot->profile.device_time_us, cold->profile.device_time_us);

  // Off-hint shapes fall back and still run.
  auto other = (*exe)->RunWithShapes({{3, 17}});
  ASSERT_TRUE(other.ok());
  for (const auto& [name, count] : *other->profile.variant_counts) {
    EXPECT_EQ(name.find("exact_"), std::string::npos) << name;
  }
}

TEST(SpeculationTest, SpeculationNeverChangesNumerics) {
  auto g = EwModel();
  CompileOptions options;
  options.likely_dim_values = {{"B", {4}}, {"S", {6}}};
  auto exe = DiscCompiler::Compile(*g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());
  Rng rng(2);
  for (auto dims : std::vector<std::vector<int64_t>>{{4, 6}, {5, 7}}) {
    Tensor in(DType::kF32, dims);
    for (int64_t i = 0; i < in.num_elements(); ++i) {
      in.f32_data()[i] = rng.Normal();
    }
    auto got = (*exe)->Run({in});
    auto want = EvaluateGraph(*g, {in});
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(Tensor::AllClose(got->outputs[0], (*want)[0]));
  }
}

TEST(SpeculationTest, SpeculationOffByOption) {
  auto g = EwModel();
  CompileOptions options;
  options.specialize.enable_shape_speculation = false;
  options.likely_dim_values = {{"B", {8}}, {"S", {128}}};
  auto exe = DiscCompiler::Compile(*g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());
  for (const auto& variant : (*exe)->kernels()[0]->variants()) {
    EXPECT_FALSE(variant.exact_shape);
  }
}

TEST(SpeculationTest, MultipleHotValuesGetOwnVariants) {
  auto g = EwModel();
  CompileOptions options;
  options.likely_dim_values = {{"B", {8, 4}}, {"S", {128, 64}}};
  auto exe = DiscCompiler::Compile(*g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());
  int exact_count = 0;
  for (const auto& variant : (*exe)->kernels()[0]->variants()) {
    if (variant.exact_shape) ++exact_count;
  }
  EXPECT_EQ(exact_count, 2);
}

TEST(SpeculationTest, ReduceKernelSpeculatesScheduleStatically) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.ReduceSum(x, {1})});
  CompileOptions options;
  options.likely_dim_values = {{"B", {4096}}, {"S", {64}}};
  auto exe = DiscCompiler::Compile(g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());
  const auto& variants = (*exe)->kernels()[0]->variants();
  ASSERT_TRUE(variants[0].exact_shape);
  EXPECT_EQ(variants[0].schedule, ReduceSchedule::kWarpPerRow);
}

TEST(SpeculationTest, EngineFeedbackLoopRecompilesAndSpeedsUpHotShape) {
  auto g = EwModel();
  DynamicCompilerEngine engine(DynamicProfile::DiscWithSpeculation());
  ASSERT_TRUE(engine.Prepare(*g, {{"B", "S"}}).ok());

  // A hot shape dominates the trace.
  std::vector<std::vector<int64_t>> hot = {{512, 1024}};
  auto before = engine.Query(hot, DeviceSpec::T4());
  ASSERT_TRUE(before.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Query(hot, DeviceSpec::T4()).ok());
  }
  EXPECT_EQ(engine.stats().compilations, 2);  // initial + feedback
  auto after = engine.Query(hot, DeviceSpec::T4());
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->device_us, before->device_us);
  // Cold shapes still served by guarded fallbacks.
  EXPECT_TRUE(engine.Query({{3, 5}}, DeviceSpec::T4()).ok());
}

TEST(SpeculationTest, PlainDiscEngineNeverRecompiles) {
  auto g = EwModel();
  DynamicCompilerEngine engine(DynamicProfile::Disc());
  ASSERT_TRUE(engine.Prepare(*g, {{"B", "S"}}).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(engine.Query({{16, 256}}, DeviceSpec::T4()).ok());
  }
  EXPECT_EQ(engine.stats().compilations, 1);
}

int CountExactVariants(const Executable& exe) {
  int exact = 0;
  for (const auto& kernel : exe.kernels()) {
    for (const auto& variant : kernel->variants()) {
      if (variant.exact_shape) ++exact;
    }
  }
  return exact;
}

TEST(SpeculationTest, DuplicateHintsDedupToOneVariant) {
  // Profile noise can repeat a value; the hint pipeline must collapse it
  // rather than burn a speculative-variant slot on an identical guard.
  auto g = EwModel();
  CompileOptions options;
  options.likely_dim_values = {{"B", {512, 512}}, {"S", {1024, 1024}}};
  auto exe = DiscCompiler::Compile(*g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());
  EXPECT_EQ(CountExactVariants(**exe), 1);
}

TEST(SpeculationTest, TruncationKeepsMostFrequentHint) {
  // Hints arrive ascending-by-frequency (most frequent last); speculation
  // builds combination k from each symbol's k-th-from-the-back value, so
  // with max_speculative_variants = 1 the most frequent combination must
  // be the one that survives truncation.
  auto g = EwModel();
  CompileOptions options;
  options.specialize.max_speculative_variants = 1;
  options.likely_dim_values = {{"B", {8, 512}}, {"S", {64, 1024}}};
  auto exe = DiscCompiler::Compile(*g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());
  EXPECT_EQ(CountExactVariants(**exe), 1);

  auto hot = (*exe)->RunWithShapes({{512, 1024}});
  ASSERT_TRUE(hot.ok());
  bool used_exact = false;
  for (const auto& [name, count] : *hot->profile.variant_counts) {
    if (name.find("exact_") != std::string::npos && count > 0) {
      used_exact = true;
    }
  }
  EXPECT_TRUE(used_exact) << hot->profile.ToString();

  // The rarer combination lost its slot: no exact variant admits it.
  auto rare = (*exe)->RunWithShapes({{8, 64}});
  ASSERT_TRUE(rare.ok());
  for (const auto& [name, count] : *rare->profile.variant_counts) {
    EXPECT_EQ(name.find("exact_"), std::string::npos) << name;
  }
}

TEST(SpeculationTest, HintViolatingDivisibilityIsBlockedNotSpecialized) {
  auto g = EwModel();
  CompileOptions options;
  options.dim_divisors = {{"B", 4}};
  options.likely_dim_values = {{"B", {7, 512}}, {"S", {1024}}};
  auto exe = DiscCompiler::Compile(*g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());

  // The contradiction was recorded, not silently dropped and not fatal.
  bool saw_blocked = false, saw_divisibility = false, saw_accepted = false;
  for (const ConstraintRecord& record : (*exe)->analysis().constraint_log()) {
    if (record.kind == "divisibility" && record.source == "user-hint") {
      saw_divisibility = true;
    }
    if (record.kind == "likely-value" &&
        record.detail.rfind("blocked: B=7", 0) == 0) {
      saw_blocked = true;
    }
    if (record.kind == "likely-value" &&
        record.detail.find("512") != std::string::npos) {
      saw_accepted = true;
    }
  }
  EXPECT_TRUE(saw_divisibility);
  EXPECT_TRUE(saw_blocked);
  EXPECT_TRUE(saw_accepted);

  // Only the consistent hint became a variant: B=512 speculated, B=7 not.
  EXPECT_EQ(CountExactVariants(**exe), 1);
  auto rare = (*exe)->RunWithShapes({{7, 1024}});
  ASSERT_TRUE(rare.ok());
  for (const auto& [name, count] : *rare->profile.variant_counts) {
    EXPECT_EQ(name.find("exact_"), std::string::npos) << name;
  }
}

TEST(SpeculationTest, BlockedHintReasonLandsInConstraintDump) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("disc_spec_dump_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  auto g = EwModel();
  CompileOptions options;
  options.dump.dir = dir;
  options.dim_divisors = {{"B", 4}};
  options.likely_dim_values = {{"B", {7}}};
  auto exe = DiscCompiler::Compile(*g, {{"B", "S"}}, options);
  ASSERT_TRUE(exe.ok());
  auto json = ReadFileToString(dir + "/shape_constraints.json");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("blocked: B=7 violates divisibility B % 4 == 0"),
            std::string::npos)
      << *json;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace disc
