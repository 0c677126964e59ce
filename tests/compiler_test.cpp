#include "compiler/compiler.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>

#include "golden_digest.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "models/models.h"
#include "support/rng.h"
#include "support/string_util.h"

namespace disc {
namespace {

Tensor RandomF32(Rng* rng, std::vector<int64_t> dims) {
  Tensor t(DType::kF32, std::move(dims));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.f32_data()[i] = rng->Normal();
  }
  return t;
}

// Compiles, runs on concrete inputs and checks against the reference
// evaluator.
void ExpectMatchesReference(const Graph& g,
                            std::vector<std::vector<std::string>> labels,
                            const std::vector<Tensor>& inputs,
                            const CompileOptions& options = {}) {
  auto exe = DiscCompiler::Compile(g, labels, options);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  auto got = (*exe)->Run(inputs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = EvaluateGraph(g, inputs);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->outputs.size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(Tensor::AllClose(got->outputs[i], (*want)[i]))
        << "output " << i << ":\n got: " << got->outputs[i].ToString()
        << "\nwant: " << (*want)[i].ToString();
  }
}

TEST(CompilerTest, ElementwiseChainMatchesReference) {
  Graph g("chain");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Relu(b.Exp(b.Mul(x, b.ScalarF32(0.5f))))});
  Rng rng(1);
  ExpectMatchesReference(g, {{"B", "S"}}, {RandomF32(&rng, {3, 7})});
}

TEST(CompilerTest, SoftmaxMatchesReferenceAcrossShapes) {
  Graph g("softmax");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Softmax(x)});
  Rng rng(2);
  for (auto dims : std::vector<std::vector<int64_t>>{
           {1, 1}, {2, 5}, {7, 32}, {16, 3}}) {
    ExpectMatchesReference(g, {{"B", "S"}}, {RandomF32(&rng, dims)});
  }
}

TEST(CompilerTest, LayerNormMatchesReference) {
  Graph g("ln");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 16});
  Value* scale = b.Input("scale", DType::kF32, {16});
  Value* bias = b.Input("bias", DType::kF32, {16});
  b.Output({b.LayerNorm(x, scale, bias)});
  Rng rng(3);
  ExpectMatchesReference(
      g, {{"B", ""}, {}, {}},
      {RandomF32(&rng, {5, 16}), RandomF32(&rng, {16}), RandomF32(&rng, {16})});
}

TEST(CompilerTest, MatMulWithEpilogueMatchesReference) {
  Graph g("mm");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* w = b.Input("w", DType::kF32, {8, 12});
  Value* bias = b.Input("bias", DType::kF32, {12});
  b.Output({b.Gelu(b.Add(b.MatMul(x, w), bias))});
  Rng rng(4);
  ExpectMatchesReference(g, {{"B", ""}},
                         {RandomF32(&rng, {6, 8}), RandomF32(&rng, {8, 12}),
                          RandomF32(&rng, {12})});
}

TEST(CompilerTest, DynamicReshapeRoundTripMatchesReference) {
  Graph g("reshape");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim, 4});
  Value* flat = b.Reshape(x, {-1, 4});
  Value* act = b.Tanh(flat);
  Value* back = b.ReshapeDynamic(act, b.ShapeOf(x));
  b.Output({back});
  Rng rng(5);
  ExpectMatchesReference(g, {{"B", "S", ""}}, {RandomF32(&rng, {2, 3, 4})});
}

TEST(CompilerTest, TransposeGatherConcatMatchesReference) {
  Graph g("mix");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 6});
  Value* t = b.Transpose(x, {1, 0});
  Value* ids = b.Input("ids", DType::kI64, {kDynamicDim});
  Value* gathered = b.Gather(x, ids, 0);
  Value* padded = b.Pad(gathered, {0, 1}, {0, 1});
  b.Output({t, padded});
  Rng rng(6);
  ExpectMatchesReference(
      g, {{"B", ""}, {"N"}},
      {RandomF32(&rng, {5, 6}), Tensor::I64({3}, {0, 4, 2})});
}

TEST(CompilerTest, MultiOutputFusionMatchesReference) {
  Graph g("multi");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* e = b.Exp(x);
  Value* r = b.Relu(b.Sub(e, b.ScalarF32(1.0f)));
  b.Output({e, r});
  Rng rng(7);
  ExpectMatchesReference(g, {{"B", ""}}, {RandomF32(&rng, {4, 8})});
}

TEST(CompilerTest, AllAblationConfigsAgree) {
  Graph g("abl");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* sm = b.Softmax(b.Mul(x, x));
  b.Output({b.Add(sm, b.ScalarF32(1.0f))});
  Rng rng(8);
  std::vector<Tensor> inputs = {RandomF32(&rng, {3, 9})};
  for (const CompileOptions& options :
       {CompileOptions::Default(), CompileOptions::NoFusion(),
        CompileOptions::NoSpecialization(),
        CompileOptions::NoSymbolicShapes()}) {
    ExpectMatchesReference(g, {{"B", "S"}}, inputs, options);
  }
}

TEST(CompilerTest, CompileOnceRunManyShapes) {
  Graph g("poly");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Softmax(b.Relu(x))});
  auto exe = DiscCompiler::Compile(g, {{"B", "S"}});
  ASSERT_TRUE(exe.ok());

  Rng rng(9);
  auto want_for = [&](const Tensor& t) {
    auto r = EvaluateGraph(g, {t});
    EXPECT_TRUE(r.ok());
    return (*r)[0];
  };
  // One compilation handles every shape — no recompile, different variants.
  for (auto dims : std::vector<std::vector<int64_t>>{
           {1, 4}, {8, 8}, {3, 128}, {2, 1000}, {5, 17}}) {
    Tensor in = RandomF32(&rng, dims);
    auto got = (*exe)->Run({in});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(Tensor::AllClose(got->outputs[0], want_for(in)));
  }
}

TEST(CompilerTest, ProfileCountsKernelsAndLibraryCalls) {
  Graph g("prof");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* w = b.Input("w", DType::kF32, {8, 8});
  b.Output({b.Relu(b.MatMul(b.Exp(x), w))});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  ASSERT_TRUE(exe.ok());
  auto r = (*exe)->RunWithShapes({{16, 8}, {8, 8}});
  ASSERT_TRUE(r.ok());
  // exp -> kernel, matmul -> library, relu -> kernel.
  EXPECT_EQ(r->profile.kernel_launches, 2);
  EXPECT_EQ(r->profile.library_calls, 1);
  EXPECT_GT(r->profile.device_time_us, 0.0);
  EXPECT_GT(r->profile.bytes_read, 0);
  EXPECT_GT(r->profile.peak_memory_bytes, 0);
}

TEST(CompilerTest, FusionReducesLaunchesAndTraffic) {
  Graph g("fuse");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 256});
  Value* v = x;
  for (int i = 0; i < 6; ++i) v = b.Tanh(b.Add(v, b.ScalarF32(0.1f)));
  b.Output({v});

  auto fused = DiscCompiler::Compile(g, {{"B", ""}});
  auto unfused = DiscCompiler::Compile(g, {{"B", ""}},
                                       CompileOptions::NoFusion());
  ASSERT_TRUE(fused.ok() && unfused.ok());
  auto rf = (*fused)->RunWithShapes({{64, 256}});
  auto ru = (*unfused)->RunWithShapes({{64, 256}});
  ASSERT_TRUE(rf.ok() && ru.ok());
  EXPECT_LT(rf->profile.kernel_launches, ru->profile.kernel_launches);
  EXPECT_LT(rf->profile.bytes_read + rf->profile.bytes_written,
            ru->profile.bytes_read + ru->profile.bytes_written);
  EXPECT_LT(rf->profile.device_time_us, ru->profile.device_time_us);
}

TEST(CompilerTest, VariantDispatchFollowsGuards) {
  Graph g("variants");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Relu(b.Add(x, x))});
  auto exe = DiscCompiler::Compile(g, {{"B", "S"}});
  ASSERT_TRUE(exe.ok());

  // 16x16 = 256 elements, divisible by 4 -> vectorized variant.
  auto vec = (*exe)->RunWithShapes({{16, 16}});
  ASSERT_TRUE(vec.ok());
  bool saw_vec = false;
  for (const auto& [name, count] : *vec->profile.variant_counts) {
    if (name.find("vec4") != std::string::npos && count > 0) saw_vec = true;
  }
  EXPECT_TRUE(saw_vec) << vec->profile.ToString();

  // 3x3 = 9 elements -> generic fallback.
  auto gen = (*exe)->RunWithShapes({{3, 3}});
  ASSERT_TRUE(gen.ok());
  bool saw_generic = false;
  for (const auto& [name, count] : *gen->profile.variant_counts) {
    if (name.find("generic") != std::string::npos && count > 0) {
      saw_generic = true;
    }
  }
  EXPECT_TRUE(saw_generic) << gen->profile.ToString();
}

TEST(CompilerTest, ReduceScheduleSwitchesOnRowLength) {
  Graph g("rows");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.ReduceSum(b.Mul(x, x), {1})});
  auto exe = DiscCompiler::Compile(g, {{"B", "S"}});
  ASSERT_TRUE(exe.ok());

  auto short_rows = (*exe)->RunWithShapes({{4096, 128}});
  auto long_rows = (*exe)->RunWithShapes({{4096, 4096}});
  ASSERT_TRUE(short_rows.ok() && long_rows.ok());
  auto has = [](const RunProfile& profile, const std::string& key) {
    for (const auto& [name, count] : *profile.variant_counts) {
      if (name.find(key) != std::string::npos && count > 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(short_rows->profile, "warp_per_row"));
  EXPECT_TRUE(has(long_rows->profile, "block_per_row"));
}

TEST(CompilerTest, RejectsInconsistentRuntimeShapes) {
  Graph g("check");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  Value* y = b.Input("y", DType::kF32, {kDynamicDim, 8});
  b.Output({b.Add(x, y)});
  auto exe = DiscCompiler::Compile(g);
  ASSERT_TRUE(exe.ok());
  // Batch dims must agree (the add unified them).
  EXPECT_FALSE((*exe)->RunWithShapes({{4, 8}, {5, 8}}).ok());
  EXPECT_TRUE((*exe)->RunWithShapes({{4, 8}, {4, 8}}).ok());
}

TEST(CompilerTest, ReportIsPopulated) {
  Graph g("report");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Softmax(x)});
  auto exe = DiscCompiler::Compile(g, {{"B", "S"}});
  ASSERT_TRUE(exe.ok());
  const CompileReport& report = (*exe)->report();
  EXPECT_GT(report.compile_ms, 0.0);
  EXPECT_EQ(report.num_kernels, 1);
  EXPECT_GE(report.num_variants, 2);
  EXPECT_EQ(report.fusion.num_stitch_groups, 1);
  EXPECT_GT(report.shapes.num_symbols, 0);
}

TEST(CompilerTest, PhaseRowsSumToCompileMs) {
  Graph g("phases");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 16});
  Tensor w(DType::kF32, {16, 16});
  b.Output({b.Softmax(b.MatMul(b.Tanh(x), b.Constant(w)))});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  ASSERT_TRUE(exe.ok());
  const CompileReport& report = (*exe)->report();
  ASSERT_FALSE(report.phase_ms.empty());
  EXPECT_EQ(report.phase_ms.back().first, "other");
  double sum = 0.0;
  for (const auto& [name, ms] : report.phase_ms) {
    EXPECT_GE(ms, 0.0) << name;
    EXPECT_NE(name, "buffer-assignment");
    sum += ms;
  }
  EXPECT_NEAR(sum, report.compile_ms, 1e-9 * report.compile_ms);
}

TEST(CompilerTest, GraphOutputsThatAreConstantsOrInputs) {
  Graph g("edge");
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2});
  Value* c = b.Constant(Tensor::F32({2}, {5, 6}));
  b.Output({x, c});
  auto exe = DiscCompiler::Compile(g);
  ASSERT_TRUE(exe.ok());
  auto r = (*exe)->Run({Tensor::F32({2}, {1, 2})});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(Tensor::AllClose(r->outputs[0], Tensor::F32({2}, {1, 2})));
  EXPECT_TRUE(Tensor::AllClose(r->outputs[1], Tensor::F32({2}, {5, 6})));
}

struct GoldenDigest {
  const char* model;
  const char* options;
  const char* artifact;
  uint64_t digest;
};

// Generated from the compiler's own output; see ArtifactsMatchGoldenDigests.
constexpr GoldenDigest kGoldenDigests[] = {
#include "compile_artifact_digests.inc"
};

// Digests of everything one compile produces, by artifact name: each file
// the dumper writes (the pass snapshots folded into one "passes" digest;
// pipeline_summary.json holds wall-clock times and is left out), the
// kernels' variants, the arena release schedule and the report's counts.
std::map<std::string, uint64_t> CompileDigests(const Model& model,
                                               CompileOptions options,
                                               const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  options.dump.dir = dir;
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels,
                                   options);
  EXPECT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
  std::map<std::string, uint64_t> digests;
  if (!exe.ok()) return digests;
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), dir).string());
    }
  }
  std::sort(files.begin(), files.end());
  uint64_t passes = Fnv1a("");
  for (const std::string& name : files) {
    if (name == "pipeline_summary.json") continue;
    auto content = ReadFileToString((fs::path(dir) / name).string());
    EXPECT_TRUE(content.ok()) << name;
    if (!content.ok()) continue;
    if (name.rfind("passes/", 0) == 0) {
      passes = Fnv1a(*content, Fnv1a(name + '\0', passes));
    } else {
      digests[name] = Fnv1a(*content);
    }
  }
  fs::remove_all(dir);
  digests["passes"] = passes;
  std::string kernels;
  for (const auto& kernel : (*exe)->kernels()) kernels += kernel->ToString();
  digests["kernels"] = Fnv1a(kernels);
  std::string schedule;
  for (const auto& released : (*exe)->memory_plan().release_after_step) {
    for (const Value* v : released) schedule += std::to_string(v->id()) + ",";
    schedule += ";";
  }
  digests["schedule"] = Fnv1a(schedule);
  const CompileReport& r = (*exe)->report();
  std::string counts;
  for (int64_t n :
       {r.num_nodes_before, r.num_nodes_after, r.fusion.num_groups,
        r.fusion.num_fused_nodes, r.fusion.num_singleton_groups,
        r.fusion.num_loop_groups, r.fusion.num_input_groups,
        r.fusion.num_stitch_groups, r.fusion.num_internalized_values,
        r.shapes.num_symbols, r.shapes.num_classes,
        r.shapes.num_known_constants, r.shapes.num_product_facts,
        r.num_kernels, r.num_variants, r.arena_slots,
        r.arena_cross_size_reuses, r.arena_fallbacks}) {
    counts += std::to_string(n) + ",";
  }
  digests["report"] = Fnv1a(counts);
  return digests;
}

// Every compile artifact of the six suite models and the batched decode
// step, under default, hinted, no-fusion and static-shape options, must
// match the digests committed in compile_artifact_digests.inc: compile-time
// work may get faster, but not different. A mismatch prints the line that
// would replace the stale one.
TEST(CompilerTest, ArtifactsMatchGoldenDigests) {
  std::vector<Model> models = BuildModelSuite();
  models.push_back(BuildGptStepBatch());
  std::map<std::string, uint64_t> golden;
  for (const GoldenDigest& g : kGoldenDigests) {
    golden[std::string(g.model) + "/" + g.options + "/" + g.artifact] =
        g.digest;
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("disc_golden_digests_" + std::to_string(::getpid())))
          .string();
  size_t checked = 0;
  for (const Model& model : models) {
    CompileOptions hinted;
    hinted.likely_dim_values = TraceHints(model);
    const std::pair<const char*, CompileOptions> configs[] = {
        {"default", CompileOptions::Default()},
        {"hinted", hinted},
        {"nofusion", CompileOptions::NoFusion()},
        {"nosymbolic", CompileOptions::NoSymbolicShapes()}};
    for (const auto& [config, options] : configs) {
      for (const auto& [artifact, digest] :
           CompileDigests(model, options, dir)) {
        const std::string key = model.name + "/" + config + "/" + artifact;
        auto it = golden.find(key);
        EXPECT_TRUE(it != golden.end() && it->second == digest)
            << "new digest line:\n"
            << StrFormat("{\"%s\", \"%s\", \"%s\", 0x%016" PRIx64 "ull},",
                         model.name.c_str(), config, artifact.c_str(), digest);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, golden.size());
}

}  // namespace
}  // namespace disc
