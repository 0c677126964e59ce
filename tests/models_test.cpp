#include "models/models.h"

#include <gtest/gtest.h>

#include <set>

#include "baselines/baselines.h"
#include "compiler/compiler.h"
#include "ir/eval.h"

namespace disc {
namespace {

class ModelSuiteTest : public ::testing::TestWithParam<std::string> {
 protected:
  Model GetModel() {
    ModelConfig config;
    config.trace_length = 8;
    for (Model& model : BuildModelSuite(config)) {
      if (model.name == GetParam()) return std::move(model);
    }
    ADD_FAILURE() << "model not found: " << GetParam();
    return {};
  }
};

TEST_P(ModelSuiteTest, GraphVerifies) {
  Model model = GetModel();
  ASSERT_NE(model.graph, nullptr);
  EXPECT_TRUE(model.graph->Verify().ok());
  EXPECT_GT(model.graph->num_nodes(), 0);
}

TEST_P(ModelSuiteTest, CompiledOutputMatchesReference) {
  Model model = GetModel();
  std::vector<Tensor> inputs = model.make_inputs(model.small_shapes, 42);
  auto want = EvaluateGraph(*model.graph, inputs);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  auto got = (*exe)->Run(inputs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->outputs.size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(Tensor::AllClose(got->outputs[i], (*want)[i], 1e-3, 1e-4))
        << model.name << " output " << i;
  }
}

TEST_P(ModelSuiteTest, FusionActuallyHappens) {
  Model model = GetModel();
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  const auto& stats = (*exe)->report().fusion;
  EXPECT_GT(stats.num_fused_nodes, 0) << model.name;
  // Every model has at least one softmax or layernorm -> stitch fusion.
  if (model.name != "dlrm") {
    EXPECT_GT(stats.num_stitch_groups, 0) << model.name;
  }
}

TEST_P(ModelSuiteTest, AblationsAgreeOnModelNumerics) {
  Model model = GetModel();
  std::vector<Tensor> inputs = model.make_inputs(model.small_shapes, 77);
  auto want = EvaluateGraph(*model.graph, inputs);
  ASSERT_TRUE(want.ok());
  for (const CompileOptions& options :
       {CompileOptions::NoFusion(), CompileOptions::NoSpecialization(),
        CompileOptions::NoSymbolicShapes()}) {
    auto exe =
        DiscCompiler::Compile(*model.graph, model.input_dim_labels, options);
    ASSERT_TRUE(exe.ok()) << model.name;
    auto got = (*exe)->Run(inputs);
    ASSERT_TRUE(got.ok()) << model.name << ": " << got.status().ToString();
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_TRUE(Tensor::AllClose(got->outputs[i], (*want)[i], 1e-3, 1e-4))
          << model.name;
    }
  }
}

TEST_P(ModelSuiteTest, TraceShapesAllExecutable) {
  Model model = GetModel();
  ASSERT_FALSE(model.trace.empty());
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  for (const ShapeSet& shapes : model.trace) {
    auto r = (*exe)->RunWithShapes(shapes);
    ASSERT_TRUE(r.ok()) << model.name << ": " << r.status().ToString();
    EXPECT_GT(r->profile.device_time_us, 0.0);
  }
}

TEST_P(ModelSuiteTest, EveryEngineHandlesTheTrace) {
  Model model = GetModel();
  for (const std::string& name : AllBaselineNames()) {
    if (name == "TVM") continue;  // per-shape tuning stall; covered below
    auto engine = MakeBaseline(name);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Prepare(*model.graph, model.input_dim_labels).ok())
        << name << " on " << model.name;
    for (size_t q = 0; q < 3 && q < model.trace.size(); ++q) {
      auto timing = (*engine)->Query(model.trace[q], DeviceSpec::T4());
      ASSERT_TRUE(timing.ok())
          << name << " on " << model.name << ": "
          << timing.status().ToString();
      EXPECT_GT(timing->total_us, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelSuiteTest,
                         ::testing::Values("bert", "seq2seq-step", "crnn",
                                           "fastspeech2", "dlrm", "mlp"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class ExtraModelTest : public ::testing::TestWithParam<std::string> {
 protected:
  Model GetModel() {
    ModelConfig config;
    config.trace_length = 6;
    if (GetParam() == "bert-masked") return BuildBertWithMask(config);
    return BuildGptStep(config);
  }
};

TEST_P(ExtraModelTest, CompiledOutputMatchesReference) {
  Model model = GetModel();
  ASSERT_TRUE(model.graph->Verify().ok());
  std::vector<Tensor> inputs = model.make_inputs(model.small_shapes, 11);
  auto want = EvaluateGraph(*model.graph, inputs);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  auto got = (*exe)->Run(inputs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->outputs.size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(Tensor::AllClose(got->outputs[i], (*want)[i], 1e-3, 1e-4))
        << model.name << " output " << i;
  }
}

TEST_P(ExtraModelTest, TraceShapesAllExecutable) {
  Model model = GetModel();
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  for (const ShapeSet& shapes : model.trace) {
    ASSERT_TRUE((*exe)->RunWithShapes(shapes).ok()) << model.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Extras, ExtraModelTest,
                         ::testing::Values("bert-masked", "gpt-step"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Every data-mode Run equals the reference evaluator on the compiled graph
// bit for bit: at small and trace shapes, on a launch-plan miss and the
// following hit, under every memory mode.
class ModelBitIdentityTest : public ::testing::TestWithParam<std::string> {};

Model BuildNamedModel(const std::string& name, const ModelConfig& config) {
  if (name == "bert-masked") return BuildBertWithMask(config);
  if (name == "gpt-step") return BuildGptStep(config);
  if (name == "gpt-step-batch") return BuildGptStepBatch(config);
  for (Model& model : BuildModelSuite(config)) {
    if (model.name == name) return std::move(model);
  }
  return {};
}

TEST_P(ModelBitIdentityTest, RunsMatchTheCompiledGraphBitwise) {
  ModelConfig config;
  config.trace_length = 1;
  Model model = BuildNamedModel(GetParam(), config);
  ASSERT_NE(model.graph, nullptr) << GetParam();
  ASSERT_FALSE(model.trace.empty());
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  for (const ShapeSet& shapes : {model.small_shapes, model.trace[0]}) {
    std::vector<Tensor> inputs = model.make_inputs(shapes, 13);
    auto want = EvaluateGraph((*exe)->graph(), inputs);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (MemoryMode mode :
         {MemoryMode::kCachingAllocator, MemoryMode::kArena}) {
      RunOptions options;
      options.memory_mode = mode;
      (*exe)->ClearPlanCache();
      for (bool hit : {false, true}) {
        auto got = (*exe)->Run(inputs, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->profile.launch_plan_hit, hit);
        ASSERT_EQ(got->outputs.size(), want->size());
        for (size_t i = 0; i < want->size(); ++i) {
          EXPECT_TRUE(Tensor::BitEqual(got->outputs[i], (*want)[i]))
              << model.name << " output " << i << " mode "
              << static_cast<int>(mode) << " hit " << hit << " max|d|="
              << Tensor::MaxAbsDiff(got->outputs[i], (*want)[i]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelBitIdentityTest,
                         ::testing::Values("bert", "seq2seq-step", "crnn",
                                           "fastspeech2", "dlrm", "mlp",
                                           "bert-masked", "gpt-step",
                                           "gpt-step-batch"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Every suite model's Run equals the reference evaluator bit for bit at
// every distinct shape of its default serving trace (the shapes the
// benchmark's suite runs), on the signature's plan miss and on the hit that
// follows.
TEST_P(ModelSuiteTest, EveryTraceShapeMatchesTheReferenceOnAMissAndAHit) {
  Model model;
  for (Model& m : BuildModelSuite()) {
    if (m.name == GetParam()) model = std::move(m);
  }
  ASSERT_NE(model.graph, nullptr) << GetParam();
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  std::set<ShapeSet> seen;
  for (const ShapeSet& shapes : model.trace) {
    if (!seen.insert(shapes).second) continue;
    std::vector<Tensor> inputs = model.make_inputs(shapes, seen.size());
    auto want = EvaluateGraph((*exe)->graph(), inputs);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (bool hit : {false, true}) {
      auto got = (*exe)->Run(inputs);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->profile.launch_plan_hit, hit);
      ASSERT_EQ(got->outputs.size(), want->size());
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_TRUE(Tensor::BitEqual(got->outputs[i], (*want)[i]))
            << model.name << " output " << i << " at trace shape "
            << seen.size() << " hit " << hit;
      }
    }
  }
}

TEST(ExtraModelTest2, MaskActuallyMasks) {
  // Fully-masked tail positions must not influence attended outputs:
  // changing embedding values at masked positions must not change row 0.
  ModelConfig config;
  Model model = BuildBertWithMask(config);
  std::vector<Tensor> inputs = model.make_inputs({{1, 4, config.hidden},
                                                  {1, 4}},
                                                 3);
  // Force mask = [1, 1, 0, 0].
  inputs[1] = Tensor::F32({1, 4}, {1, 1, 0, 0});
  auto r1 = EvaluateGraph(*model.graph, inputs);
  ASSERT_TRUE(r1.ok());
  // Perturb the masked positions' embeddings.
  for (int64_t c = 2 * config.hidden; c < 4 * config.hidden; ++c) {
    inputs[0].f32_data()[c] += 7.0f;
  }
  auto r2 = EvaluateGraph(*model.graph, inputs);
  ASSERT_TRUE(r2.ok());
  // Attention outputs at position 0 are unchanged up to the residual path
  // (which does not read positions 2/3 at position 0 at all).
  for (int64_t c = 0; c < config.hidden; ++c) {
    EXPECT_NEAR((*r1)[0].f32_data()[c], (*r2)[0].f32_data()[c], 1e-4);
  }
}

TEST(ExtraModelTest2, GptStepGrowsCacheSymbolically) {
  ModelConfig config;
  Model model = BuildGptStep(config);
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  // The grown cache output has symbolic dim T+1.
  const SymShape& k_next_shape =
      (*exe)->analysis().GetShape((*exe)->graph().outputs()[1]);
  EXPECT_NE(k_next_shape[1].ToString().find("+"), std::string::npos)
      << k_next_shape[1].ToString();

  // Drive a real decode loop: feed outputs back as the next cache.
  std::vector<Tensor> inputs = model.make_inputs(model.small_shapes, 5);
  for (int step = 0; step < 4; ++step) {
    auto r = (*exe)->Run(inputs);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->outputs[1].dims()[1], inputs[1].dims()[1] + 1);
    inputs[1] = r->outputs[1];
    inputs[2] = r->outputs[2];
  }
  EXPECT_EQ(inputs[1].dims()[1], 7);  // 3 + 4 steps
}

TEST(ModelSuiteTest2, SuiteHasSixModelsWithTraces) {
  ModelConfig config;
  config.trace_length = 5;
  auto suite = BuildModelSuite(config);
  ASSERT_EQ(suite.size(), 6u);
  for (const Model& model : suite) {
    EXPECT_EQ(model.trace.size(), 5u) << model.name;
    EXPECT_FALSE(model.input_dim_labels.empty()) << model.name;
  }
}

TEST(ModelSuiteTest2, TracesAreDeterministic) {
  ModelConfig config;
  config.trace_length = 6;
  auto a = BuildBert(config);
  auto b = BuildBert(config);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i], b.trace[i]);
  }
}

TEST(ModelSuiteTest2, TracesAreActuallyDynamic) {
  ModelConfig config;
  config.trace_length = 32;
  for (const Model& model : BuildModelSuite(config)) {
    std::set<ShapeSet> distinct(model.trace.begin(), model.trace.end());
    EXPECT_GT(distinct.size(), 4u) << model.name << " trace is too static";
  }
}

}  // namespace
}  // namespace disc
