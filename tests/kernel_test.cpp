#include "kernel/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "kernel/elementwise.h"
#include "kernel/library.h"
#include "support/rng.h"

namespace disc {
namespace {

struct Compiled {
  Graph graph;
  std::unique_ptr<ShapeAnalysis> analysis;
  FusionPlan plan;
  std::vector<std::unique_ptr<FusedKernel>> kernels;
};

// Builds a graph, runs analysis + fusion, compiles every group.
std::unique_ptr<Compiled> CompileKernels(
    const std::function<void(GraphBuilder*)>& build,
    std::vector<std::vector<std::string>> labels,
    SpecializeOptions options = {}) {
  auto c = std::make_unique<Compiled>();
  GraphBuilder b(&c->graph);
  build(&b);
  c->analysis = std::make_unique<ShapeAnalysis>(&c->graph, std::move(labels));
  EXPECT_TRUE(c->analysis->Run().ok());
  FusionPlanner planner(&c->graph, c->analysis.get());
  auto plan = planner.Plan();
  EXPECT_TRUE(plan.ok());
  c->plan = std::move(plan).value();
  for (const FusionGroup& group : c->plan.groups) {
    c->kernels.push_back(
        std::make_unique<FusedKernel>(group, c->analysis.get(), options));
  }
  return c;
}

// The dims of every value of `analysis` at `bindings`.
ShapeTable ShapesAt(const ShapeAnalysis& analysis,
                    const SymbolBindings& bindings) {
  Result<ShapeTable> shapes = analysis.EvaluateShapes(bindings);
  EXPECT_TRUE(shapes.ok()) << shapes.status().ToString();
  return std::move(shapes).value();
}

// Runs the single kernel of `c` through FusedKernel::Execute, with graph
// inputs and constants bound the way the runtime binds them, and returns
// the graph outputs.
Result<std::vector<Tensor>> ExecuteSingleKernel(
    const Compiled& c, const std::vector<Tensor>& inputs) {
  if (c.kernels.size() != 1) {
    return Status::Internal(c.plan.ToString() + "is not one kernel");
  }
  std::vector<std::vector<int64_t>> dims;
  for (const Tensor& t : inputs) dims.push_back(t.dims());
  DISC_ASSIGN_OR_RETURN(SymbolBindings bindings, c.analysis->BindInputs(dims));
  std::unordered_map<const Value*, Tensor> env;
  for (size_t i = 0; i < inputs.size(); ++i) {
    env.emplace(c.graph.inputs()[i], inputs[i]);
  }
  for (const Value* v : c.kernels[0]->group().inputs) {
    const Node* producer = v->producer();
    if (producer != nullptr && producer->kind() == OpKind::kConstant) {
      env.emplace(v, producer->GetTensorAttr("value"));
    }
  }
  DISC_RETURN_IF_ERROR(c.kernels[0]->Execute(bindings, &env));
  std::vector<Tensor> outputs;
  for (const Value* out : c.graph.outputs()) {
    auto it = env.find(out);
    if (it == env.end()) return Status::Internal("output not produced");
    outputs.push_back(it->second);
  }
  return outputs;
}

// The kernel's outputs must equal the reference evaluator's bit for bit.
void ExpectMatchesReference(const Compiled& c,
                            const std::vector<Tensor>& inputs) {
  auto want = EvaluateGraph(c.graph, inputs);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = ExecuteSingleKernel(c, inputs);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(Tensor::BitEqual((*got)[i], (*want)[i]))
        << "output " << i << ": " << (*got)[i].ToString() << " vs "
        << (*want)[i].ToString();
  }
}

Tensor RandomF32(uint64_t seed, std::vector<int64_t> dims) {
  Rng rng(seed);
  Tensor t(DType::kF32, std::move(dims));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.f32_data()[i] = rng.Normal();
  }
  return t;
}

TEST(GuardTest, PredicateKinds) {
  SymbolicDimManager m;
  SymbolId s = m.NewSymbol();
  DimExpr e = DimExpr::Symbol(s);
  SymbolBindings bindings = {{s, 12}};

  DimPredicate div{DimPredicate::Kind::kDivisibleBy, e, 4};
  DimPredicate le{DimPredicate::Kind::kLessEqual, e, 10};
  DimPredicate ge{DimPredicate::Kind::kGreaterEqual, e, 10};
  DimPredicate eq{DimPredicate::Kind::kEqual, e, 12};
  EXPECT_TRUE(*div.Evaluate(bindings));
  EXPECT_FALSE(*le.Evaluate(bindings));
  EXPECT_TRUE(*ge.Evaluate(bindings));
  EXPECT_TRUE(*eq.Evaluate(bindings));
}

TEST(GuardTest, UnboundSymbolErrors) {
  DimPredicate p{DimPredicate::Kind::kEqual, DimExpr::Symbol(3), 1};
  EXPECT_FALSE(p.Evaluate({}).ok());
}

TEST(GuardTest, ConjunctionAndEmptyGuard) {
  SymbolicDimManager m;
  SymbolId s = m.NewSymbol();
  DimExpr e = DimExpr::Symbol(s);
  Guard guard;
  EXPECT_TRUE(guard.always_true());
  EXPECT_TRUE(*guard.Evaluate({}));
  guard.predicates.push_back({DimPredicate::Kind::kGreaterEqual, e, 2});
  guard.predicates.push_back({DimPredicate::Kind::kLessEqual, e, 8});
  EXPECT_TRUE(*guard.Evaluate({{s, 5}}));
  EXPECT_FALSE(*guard.Evaluate({{s, 1}}));
  EXPECT_FALSE(*guard.Evaluate({{s, 9}}));
  EXPECT_NE(guard.ToString().find("&&"), std::string::npos);
}

TEST(KernelTest, LoopKernelHasVecAndGenericVariants) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
        b->Output({b->Relu(b->Add(x, x))});
      },
      {{"B", "S"}});
  ASSERT_EQ(c->kernels.size(), 1u);
  const FusedKernel& kernel = *c->kernels[0];
  ASSERT_EQ(kernel.variants().size(), 2u);
  EXPECT_EQ(kernel.variants()[0].name, "vec4");
  EXPECT_EQ(kernel.variants()[1].name, "generic");
  EXPECT_TRUE(kernel.variants()[1].guard.always_true());
  // Both variants are broadcast-free: all shapes provably equal.
  EXPECT_TRUE(kernel.variants()[0].broadcast_free);
  EXPECT_TRUE(kernel.variants()[1].broadcast_free);
}

TEST(KernelTest, ProvenDivisibilityDropsTheGuard) {
  // Innermost static 128 and a dynamic batch: total = 128*B, divisible by
  // 4 regardless of B -> vectorized variant has no runtime guard.
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, 128});
        b->Output({b->Exp(x)});
      },
      {{"B", ""}});
  ASSERT_EQ(c->kernels.size(), 1u);
  EXPECT_EQ(c->kernels[0]->variants()[0].name, "vec4");
  EXPECT_TRUE(c->kernels[0]->variants()[0].guard.always_true());
}

TEST(KernelTest, UnprovenDivisibilityKeepsGuard) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim});
        b->Output({b->Exp(x)});
      },
      {{"N"}});
  const KernelVariant& vec = c->kernels[0]->variants()[0];
  ASSERT_EQ(vec.name, "vec4");
  EXPECT_FALSE(vec.guard.always_true());
  // Dispatch: 8 elements -> vec4; 7 -> generic.
  auto bindings8 = c->analysis->BindInputs({{8}});
  auto bindings7 = c->analysis->BindInputs({{7}});
  ASSERT_TRUE(bindings8.ok() && bindings7.ok());
  EXPECT_EQ((*c->kernels[0]->SelectVariant(*bindings8))->name, "vec4");
  EXPECT_EQ((*c->kernels[0]->SelectVariant(*bindings7))->name, "generic");
}

TEST(KernelTest, BroadcastInGroupDisablesBroadcastFree) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, 64});
        Value* bias = b->Input("bias", DType::kF32, {64});
        b->Output({b->Relu(b->Add(x, bias))});
      },
      {{"B", ""}, {""}});
  ASSERT_EQ(c->kernels.size(), 1u);
  for (const KernelVariant& variant : c->kernels[0]->variants()) {
    EXPECT_FALSE(variant.broadcast_free) << variant.ToString();
  }
}

TEST(KernelTest, NoSpecializationLeavesOnlyGeneric) {
  SpecializeOptions options;
  options.enable_specialization = false;
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, 128});
        b->Output({b->Exp(x)});
      },
      {{"B", ""}}, options);
  ASSERT_EQ(c->kernels[0]->variants().size(), 1u);
  EXPECT_EQ(c->kernels[0]->variants()[0].name, "generic");
}

// Compiles a 1-D elementwise kernel after seeding a likely value for its
// dynamic dim, so the variant list is exact_<domain> -> vec4 -> generic.
std::unique_ptr<Compiled> CompileSpeculativeExpKernel(int64_t likely_n) {
  auto c = std::make_unique<Compiled>();
  GraphBuilder b(&c->graph);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim});
  b.Output({b.Exp(x)});
  c->analysis =
      std::make_unique<ShapeAnalysis>(&c->graph, std::vector<std::vector<std::string>>{{"N"}});
  EXPECT_TRUE(c->analysis->Run().ok());
  const SymShape& shape = c->analysis->GetShape(c->graph.inputs()[0]);
  EXPECT_TRUE(shape[0].IsSymbol());
  c->analysis->manager().AddLikelyValue(shape[0].symbol(), likely_n);
  FusionPlanner planner(&c->graph, c->analysis.get());
  auto plan = planner.Plan();
  EXPECT_TRUE(plan.ok());
  c->plan = std::move(plan).value();
  for (const FusionGroup& group : c->plan.groups) {
    c->kernels.push_back(std::make_unique<FusedKernel>(
        group, c->analysis.get(), SpecializeOptions{}));
  }
  return c;
}

TEST(KernelSelectTest, GuardOrderIsDeterministicFirstAdmittedWins) {
  auto c = CompileSpeculativeExpKernel(64);
  ASSERT_EQ(c->kernels.size(), 1u);
  const FusedKernel& kernel = *c->kernels[0];
  ASSERT_EQ(kernel.variants().size(), 3u);
  EXPECT_EQ(kernel.variants()[0].name, "exact_64");
  EXPECT_EQ(kernel.variants()[1].name, "vec4");
  EXPECT_EQ(kernel.variants()[2].name, "generic");

  // N=64 admits ALL THREE guards (64 == 64, 64 % 4 == 0, unconditional).
  // Selection must resolve the ambiguity by preference order — index 0 —
  // and keep resolving it the same way on every evaluation.
  auto bindings = c->analysis->BindInputs({{64}});
  ASSERT_TRUE(bindings.ok());
  for (const KernelVariant& v : kernel.variants()) {
    EXPECT_TRUE(*v.guard.Evaluate(*bindings)) << v.name;
  }
  for (int i = 0; i < 10; ++i) {
    auto index = kernel.SelectVariantIndex(*bindings);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(*index, 0);
  }
}

TEST(KernelSelectTest, ExactShapeAdmissionAtBoundaryBindings) {
  auto c = CompileSpeculativeExpKernel(64);
  const FusedKernel& kernel = *c->kernels[0];
  // Exactly the speculated shape: the exact variant wins.
  EXPECT_EQ((*kernel.SelectVariant(*c->analysis->BindInputs({{64}})))->name,
            "exact_64");
  // One element off in either direction rejects the equality guard; 60
  // still divides by 4 so the vectorized variant admits it.
  EXPECT_EQ((*kernel.SelectVariant(*c->analysis->BindInputs({{60}})))->name,
            "vec4");
  EXPECT_EQ((*kernel.SelectVariant(*c->analysis->BindInputs({{68}})))->name,
            "vec4");
  // 63 and 65 fail both the equality and divisibility guards.
  EXPECT_EQ((*kernel.SelectVariant(*c->analysis->BindInputs({{63}})))->name,
            "generic");
  EXPECT_EQ((*kernel.SelectVariant(*c->analysis->BindInputs({{65}})))->name,
            "generic");
}

TEST(KernelSelectTest, GenericVariantIsLastAndUnconditional) {
  // Across option combinations, a loop kernel's LAST variant must be the
  // unconditional fallback — SelectVariantIndex relies on it to never
  // fail — and every earlier variant must carry a real guard here (the
  // dim is dynamic with nothing provable, so nothing can be baked in).
  std::vector<SpecializeOptions> combos(4);
  combos[1].enable_specialization = false;
  combos[2].enable_vectorization = false;
  combos[3].max_speculative_variants = 1;
  for (const SpecializeOptions& options : combos) {
    auto c = CompileKernels(
        [](GraphBuilder* b) {
          Value* x = b->Input("x", DType::kF32, {kDynamicDim});
          b->Output({b->Exp(x)});
        },
        {{"N"}}, options);
    ASSERT_EQ(c->kernels.size(), 1u);
    const auto& variants = c->kernels[0]->variants();
    ASSERT_FALSE(variants.empty());
    EXPECT_EQ(variants.back().name, "generic");
    EXPECT_TRUE(variants.back().guard.always_true());
    for (size_t i = 0; i + 1 < variants.size(); ++i) {
      EXPECT_FALSE(variants[i].guard.always_true()) << variants[i].name;
    }
    // The fallback admits a shape every other guard rejects (prime 7).
    auto bindings = c->analysis->BindInputs({{7}});
    ASSERT_TRUE(bindings.ok());
    auto index = c->kernels[0]->SelectVariantIndex(*bindings);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(*index, static_cast<int>(variants.size()) - 1);
  }
}

TEST(KernelTest, VariantsUnderBuildsCounterfactualWithoutMutating) {
  SpecializeOptions nospec;
  nospec.enable_specialization = false;
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim});
        b->Output({b->Exp(x)});
      },
      {{"N"}}, nospec);
  const FusedKernel& kernel = *c->kernels[0];
  ASSERT_EQ(kernel.variants().size(), 1u);  // generic only

  // The counterfactual under full specialization has the vec4 variant the
  // compiled kernel was denied; the compiled kernel itself is untouched.
  std::vector<KernelVariant> reference = kernel.VariantsUnder({});
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0].name, "vec4");
  EXPECT_EQ(reference[1].name, "generic");
  EXPECT_EQ(kernel.variants().size(), 1u);
  EXPECT_EQ(kernel.variants()[0].name, "generic");

  // Counterfactual variants are valid ComputeStats inputs: 4 lanes per
  // thread means the vectorized variant launches a quarter of the blocks.
  auto bindings = c->analysis->BindInputs({{4096}});
  ASSERT_TRUE(bindings.ok());
  const ShapeTable shapes = ShapesAt(*c->analysis, *bindings);
  const KernelStats vec_stats = kernel.ComputeStats(shapes, reference[0]);
  const KernelStats gen_stats =
      kernel.ComputeStats(shapes, kernel.variants()[0]);
  EXPECT_LT(vec_stats.num_blocks, gen_stats.num_blocks);
}

TEST(KernelTest, ReduceKernelSchedulesAndRowExprs) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
        b->Output({b->ReduceSum(x, {1})});
      },
      {{"B", "S"}});
  const FusedKernel& kernel = *c->kernels[0];
  EXPECT_TRUE(kernel.row_extent().valid());
  EXPECT_TRUE(kernel.row_count().valid());
  ASSERT_EQ(kernel.variants().size(), 2u);
  EXPECT_EQ(kernel.variants()[0].schedule, ReduceSchedule::kWarpPerRow);
  EXPECT_EQ(kernel.variants()[1].schedule, ReduceSchedule::kBlockPerRow);

  // Row 64 with 4096 rows -> warp; 4096-long rows -> block; 64 rows -> block.
  auto warp = c->analysis->BindInputs({{4096, 64}});
  auto long_rows = c->analysis->BindInputs({{4096, 4096}});
  auto few_rows = c->analysis->BindInputs({{64, 64}});
  EXPECT_EQ((*kernel.SelectVariant(*warp))->schedule,
            ReduceSchedule::kWarpPerRow);
  EXPECT_EQ((*kernel.SelectVariant(*long_rows))->schedule,
            ReduceSchedule::kBlockPerRow);
  EXPECT_EQ((*kernel.SelectVariant(*few_rows))->schedule,
            ReduceSchedule::kBlockPerRow);
}

TEST(KernelTest, StatsScaleWithShape) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
        b->Output({b->Relu(b->Add(x, x))});
      },
      {{"B", "S"}});
  const FusedKernel& kernel = *c->kernels[0];
  auto small = c->analysis->BindInputs({{8, 8}});
  auto large = c->analysis->BindInputs({{64, 64}});
  const KernelStats stats_small =
      kernel.ComputeStats(ShapesAt(*c->analysis, *small),
                          *kernel.SelectVariant(*small).value());
  const KernelStats stats_large =
      kernel.ComputeStats(ShapesAt(*c->analysis, *large),
                          *kernel.SelectVariant(*large).value());
  EXPECT_EQ(stats_large.bytes_read, stats_small.bytes_read * 64);
  EXPECT_EQ(stats_large.bytes_written, stats_small.bytes_written * 64);
  EXPECT_EQ(stats_large.flops, stats_small.flops * 64);
  EXPECT_GE(stats_large.num_blocks, stats_small.num_blocks);
}

TEST(KernelTest, StitchKernelChargesSharedMemory) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
        b->Output({b->Softmax(x)});
      },
      {{"B", "S"}});
  ASSERT_EQ(c->kernels.size(), 1u);
  EXPECT_EQ(c->kernels[0]->kind(), FusionKind::kStitch);
  auto bindings = c->analysis->BindInputs({{128, 256}});
  const KernelStats stats = c->kernels[0]->ComputeStats(
      ShapesAt(*c->analysis, *bindings),
      *c->kernels[0]->SelectVariant(*bindings).value());
  EXPECT_EQ(stats.shared_mem_bytes, 256 * 4 * 2);
  // Only input and output hit global memory.
  EXPECT_EQ(stats.bytes_read, 128 * 256 * 4);
  EXPECT_EQ(stats.bytes_written, 128 * 256 * 4);
}

TEST(KernelTest, MultiOutputKernelWritesBothOutputs) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim});
        Value* e = b->Exp(x);
        Value* r = b->Relu(e);
        b->Output({e, r});
      },
      {{"N"}});
  ASSERT_EQ(c->kernels.size(), 1u);
  auto bindings = c->analysis->BindInputs({{100}});
  const KernelStats stats = c->kernels[0]->ComputeStats(
      ShapesAt(*c->analysis, *bindings),
      *c->kernels[0]->SelectVariant(*bindings).value());
  EXPECT_EQ(stats.bytes_written, 2 * 100 * 4);
  ExpectMatchesReference(*c, {RandomF32(1, {100})});
}

TEST(KernelExecuteTest, InGroupCastConvertsLikeTheReference) {
  // One loop kernel: the i64 cast must truncate inside the kernel exactly
  // as it does between unfused ops.
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {4});
        Value* scaled = b->Mul(x, b->ScalarF32(2.5f));
        Value* back = b->Cast(b->Cast(scaled, DType::kI64), DType::kF32);
        b->Output({b->Mul(back, b->ScalarF32(3.0f))});
      },
      {{""}});
  ASSERT_EQ(c->kernels.size(), 1u);
  EXPECT_EQ(c->kernels[0]->kind(), FusionKind::kLoop);
  Tensor x = Tensor::F32({4}, {0.7f, 1.3f, -0.9f, 2.2f});
  auto got = ExecuteSingleKernel(*c, {x});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(Tensor::BitEqual((*got)[0], Tensor::F32({4}, {3, 9, -6, 15})))
      << (*got)[0].ToString();
  ExpectMatchesReference(*c, {x});
}

TEST(KernelExecuteTest, IotaMatchesReference) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {3, 4});
        b->Output({b->Add(x, b->Iota({3, 4}, 1, DType::kF32))});
      },
      {{"", ""}});
  ExpectMatchesReference(*c, {RandomF32(1, {3, 4})});
}

TEST(KernelExecuteTest, TransposeMatchesReference) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {2, 3, 4});
        b->Output({b->Exp(b->Transpose(x, {2, 0, 1}))});
      },
      {{"", "", ""}});
  ExpectMatchesReference(*c, {RandomF32(2, {2, 3, 4})});
}

TEST(KernelExecuteTest, StridedSliceMatchesReference) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {7, 6});
        b->Output({b->Neg(b->Slice(x, {1, 0}, {7, -1}, {3, 2}))});
      },
      {{"", ""}});
  ExpectMatchesReference(*c, {RandomF32(3, {7, 6})});
}

TEST(KernelExecuteTest, PadMatchesReference) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {3, 2});
        b->Output({b->Abs(b->Pad(x, {1, 0}, {0, 2}, -1.5))});
      },
      {{"", ""}});
  ExpectMatchesReference(*c, {RandomF32(4, {3, 2})});
}

TEST(KernelExecuteTest, ConcatMatchesReference) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {2, 3});
        Value* y = b->Input("y", DType::kF32, {2, 2});
        b->Output({b->Relu(b->Concat({b->Exp(x), y}, 1))});
      },
      {{"", ""}, {"", ""}});
  ExpectMatchesReference(*c, {RandomF32(5, {2, 3}), RandomF32(6, {2, 2})});
}

TEST(KernelExecuteTest, BroadcastToMatchesReference) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {1, 3});
        Value* y = b->Input("y", DType::kF32, {4, 3});
        b->Output({b->Add(b->BroadcastTo(x, {4, 3}), y)});
      },
      {{"", ""}, {"", ""}});
  ExpectMatchesReference(*c, {RandomF32(7, {1, 3}), RandomF32(8, {4, 3})});
}

TEST(KernelExecuteTest, GatherMatchesReferenceAndRejectsBadIndices) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* table = b->Input("t", DType::kF32, {5, 3});
        Value* ids = b->Input("ids", DType::kI64, {4});
        b->Output({b->Relu(b->Gather(table, ids, 0))});
      },
      {{"", ""}, {""}});
  Tensor table = RandomF32(9, {5, 3});
  ExpectMatchesReference(*c, {table, Tensor::I64({4}, {4, 0, 2, 2})});
  auto bad = ExecuteSingleKernel(*c, {table, Tensor::I64({4}, {0, 5, 1, 2})});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(KernelExecuteTest, SelectWithBroadcastPredicateMatchesReference) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {3, 4});
        Value* y = b->Input("y", DType::kF32, {4});
        Value* pred = b->Greater(y, b->ScalarF32(0.0f));  // [4]
        b->Output({b->Select(pred, x, b->Neg(x))});
      },
      {{"", ""}, {""}});
  ExpectMatchesReference(*c, {RandomF32(10, {3, 4}), RandomF32(11, {4})});
}

TEST(KernelExecuteTest, NonTrailingReduceMatchesReference) {
  for (bool keep : {false, true}) {
    auto c = CompileKernels(
        [keep](GraphBuilder* b) {
          Value* x = b->Input("x", DType::kF32, {3, 4, 5});
          b->Output({b->ReduceSum(b->Exp(x), {1}, keep)});
        },
        {{"", "", ""}});
    ExpectMatchesReference(*c, {RandomF32(12, {3, 4, 5})});
    auto m = CompileKernels(
        [keep](GraphBuilder* b) {
          Value* x = b->Input("x", DType::kF32, {3, 4, 5});
          b->Output({b->ReduceMean(x, {0}, keep)});
        },
        {{"", "", ""}});
    ExpectMatchesReference(*m, {RandomF32(13, {3, 4, 5})});
  }
}

TEST(KernelExecuteTest, IntegerDivModTruncate) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kI64, {1, 5});
        Value* y = b->Input("y", DType::kI64, {1, 5});
        Value* q = b->Mul(b->Div(x, y), b->ScalarI64(10));
        b->Output({b->Add(q, b->Binary(OpKind::kMod, x, y))});
      },
      {{"", ""}, {"", ""}});
  Tensor x = Tensor::I64({1, 5}, {7, -7, 9, -9, 100});
  Tensor y = Tensor::I64({1, 5}, {2, 2, -4, -4, 7});
  auto got = ExecuteSingleKernel(*c, {x, y});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(Tensor::BitEqual(
      (*got)[0], Tensor::I64({1, 5}, {31, -31, -19, 19, 142})))
      << (*got)[0].ToString();
  ExpectMatchesReference(*c, {x, y});

  // A zero divisor, or INT64_MIN / -1, in any lane is an error for div and
  // mod alike, never a trap.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<std::pair<Tensor, Tensor>> undefined = {
      {x, Tensor::I64({1, 5}, {2, 2, 0, -4, 7})},
      {Tensor::I64({1, 5}, {7, -7, 9, -9, kMin}),
       Tensor::I64({1, 5}, {2, 2, -4, -4, -1})}};
  for (const auto& [bad_x, bad_y] : undefined) {
    auto bad = ExecuteSingleKernel(*c, {bad_x, bad_y});
    ASSERT_FALSE(bad.ok()) << bad_y.ToString();
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
        << bad.status().ToString();
  }
}

TEST(KernelExecuteTest, ZeroSizedDimMatchesReference) {
  auto loop = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, 3});
        b->Output({b->Relu(b->Add(x, x))});
      },
      {{"N", ""}});
  ExpectMatchesReference(*loop, {Tensor(DType::kF32, {0, 3})});
  auto reduce = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, 3});
        b->Output({b->ReduceMax(b->Exp(x), {0})});
      },
      {{"N", ""}});
  ExpectMatchesReference(*reduce, {Tensor(DType::kF32, {0, 3})});
}

TEST(KernelExecuteTest, InputDimsDisagreeingWithTheAnalysisAreAnError) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
        b->Output({b->Relu(b->Add(x, x))});
      },
      {{"B", "S"}});
  ASSERT_EQ(c->kernels.size(), 1u);
  auto bindings = c->analysis->BindInputs({{4, 8}});
  ASSERT_TRUE(bindings.ok());
  std::unordered_map<const Value*, Tensor> env;
  env.emplace(c->graph.inputs()[0], Tensor(DType::kF32, {4, 9}));
  EXPECT_FALSE(c->kernels[0]->Execute(*bindings, &env).ok());
  EXPECT_EQ(env.size(), 1u);
}

TEST(KernelExecuteTest, InputDimsDisagreeingWithTheBindingAreAnError) {
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
        b->Output({b->Relu(b->Add(x, x))});
      },
      {{"B", "S"}});
  ASSERT_EQ(c->kernels.size(), 1u);
  auto bindings = c->analysis->BindInputs({{4, 8}});
  ASSERT_TRUE(bindings.ok());
  auto binding = c->kernels[0]->Bind(ShapesAt(*c->analysis, *bindings));
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();
  std::unordered_map<const Value*, Tensor> env;
  env.emplace(c->graph.inputs()[0], Tensor(DType::kF32, {4, 9}));
  EXPECT_FALSE(c->kernels[0]->Execute(*binding, &env).ok());
  EXPECT_EQ(env.size(), 1u);
  env.clear();
  env.emplace(c->graph.inputs()[0], Tensor(DType::kI64, {4, 8}));
  EXPECT_FALSE(c->kernels[0]->Execute(*binding, &env).ok());
  EXPECT_EQ(env.size(), 1u);
}

TEST(KernelExecuteTest, OneBindingServesEveryInputOfItsSignature) {
  // A stitch kernel (two reductions, broadcasts, a division) bound once
  // and executed on two datasets must equal two unbound Executes bit for
  // bit: nothing of one call may leak into the binding.
  auto c = CompileKernels(
      [](GraphBuilder* b) {
        Value* x = b->Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
        b->Output({b->Softmax(b->Relu(x))});
      },
      {{"B", "S"}});
  ASSERT_EQ(c->kernels.size(), 1u);
  const FusedKernel& kernel = *c->kernels[0];
  auto bindings = c->analysis->BindInputs({{4, 8}});
  ASSERT_TRUE(bindings.ok());
  auto binding = kernel.Bind(ShapesAt(*c->analysis, *bindings));
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();
  const Value* x = c->graph.inputs()[0];
  const Value* out = c->graph.outputs()[0];
  for (uint64_t seed : {21, 22}) {
    const Tensor in = RandomF32(seed, {4, 8});
    std::unordered_map<const Value*, Tensor> bound_env = {{x, in}};
    std::unordered_map<const Value*, Tensor> unbound_env = {{x, in}};
    ASSERT_TRUE(kernel.Execute(*binding, &bound_env).ok());
    ASSERT_TRUE(kernel.Execute(*bindings, &unbound_env).ok());
    EXPECT_TRUE(Tensor::BitEqual(bound_env.at(out), unbound_env.at(out)))
        << "seed " << seed;
  }
  ExpectMatchesReference(*c, {RandomF32(23, {4, 8})});
}

// Row values for the end-to-end edge test, by category: finite edges (signed
// zeros, subnormals, FLT_MIN, the checked ops' clamp and saturation edges),
// the same with one NaN, and the same with infinities and +-FLT_MAX. A row
// mixes no two NaN sources, so every NaN it produces carries one payload
// (which of two NaN operands propagates is up to the compiler's operand
// order, and not what this test checks).
std::vector<float> EdgeRow(int category, int64_t cols, int64_t row) {
  static const std::vector<float> kFinite = {
      0.0f,     -0.0f,   1e-45f,  -1e-45f,   1.1754942e-38f, -1.17549435e-38f,
      9.5f,     -9.5f,   9.01f,   -9.0f,     89.0f,          -89.0f,
      88.7228f, -104.0f, 104.0f,  -103.972f, 90.0f,          -90.0f,
      17.0f,    -17.0f,  0.17f,   -0.34657f, 0.5f,           -2.25f};
  std::vector<float> values(cols);
  for (int64_t c = 0; c < cols; ++c) {
    values[c] = kFinite[(row * 5 + c) % kFinite.size()];
  }
  const float kInf = std::numeric_limits<float>::infinity();
  const float kMax = std::numeric_limits<float>::max();
  if (category == 1) {
    values[(row * 3) % cols] = std::numeric_limits<float>::quiet_NaN();
  } else if (category == 2) {
    const float specials[] = {kInf, -kMax, kMax, -kInf};
    for (int64_t c = row % 2; c < cols; c += 3) values[c] = specials[c % 4];
  }
  return values;
}

float F32FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// Checks the Run of `exe`, compiled from `g`, on a plan miss and then a hit
// (the first Run of its signature), bit for bit against EvaluateGraph.
void ExpectRunsMatchTheReference(const Executable& exe, const Graph& g,
                                 const std::vector<Tensor>& inputs,
                                 const std::string& where) {
  auto want = EvaluateGraph(g, inputs);
  ASSERT_TRUE(want.ok()) << where;
  for (bool hit : {false, true}) {
    auto got = exe.Run(inputs);
    ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
    EXPECT_EQ(got->profile.launch_plan_hit, hit) << where;
    EXPECT_TRUE(Tensor::BitEqual(got->outputs[0], (*want)[0]))
        << where << (hit ? " (hit)" : " (miss)") << ": "
        << got->outputs[0].ToString(512) << " vs "
        << (*want)[0].ToString(512);
  }
}

// Compiles `g` with the input dim `labels` and checks its Run, on a plan
// miss and then a hit, bit for bit against EvaluateGraph.
void ExpectRunsMatchTheReference(
    const Graph& g, const std::vector<std::vector<std::string>>& labels,
    const std::vector<Tensor>& inputs, const std::string& where) {
  auto exe = DiscCompiler::Compile(g, labels);
  ASSERT_TRUE(exe.ok()) << where << ": " << exe.status().ToString();
  ExpectRunsMatchTheReference(**exe, g, inputs, where);
}

TEST(KernelExecuteTest, EdgeValuesThroughFusedCompositesMatchTheReference) {
  // Gelu (tanh), Softmax (exp), LayerNorm (rsqrt) and Sigmoid after a
  // broadcast bias add, on rows around the vector widths: each member runs
  // a vector row or the scalar loop as Bind chooses, on a plan miss and on
  // a hit.
  using Body = std::function<Value*(GraphBuilder*, Value*, Value*)>;
  const std::vector<std::pair<std::string, Body>> composites = {
      {"gelu", [](GraphBuilder* b, Value* x, Value*) { return b->Gelu(x); }},
      {"softmax",
       [](GraphBuilder* b, Value* x, Value*) { return b->Softmax(x); }},
      {"layernorm",
       [](GraphBuilder* b, Value* x, Value* bias) {
         return b->LayerNorm(x, bias, bias);
       }},
      {"sigmoid",
       [](GraphBuilder* b, Value* x, Value*) { return b->Sigmoid(x); }},
  };
  constexpr int64_t kRows = 6;
  for (int64_t cols : {1, 7, 8, 9, 16, 17, 67}) {
    std::vector<float> x_values, bias_values;
    for (int64_t r = 0; r < kRows; ++r) {
      const std::vector<float> row = EdgeRow(static_cast<int>(r % 3), cols, r);
      x_values.insert(x_values.end(), row.begin(), row.end());
    }
    for (int64_t c = 0; c < cols; ++c) {
      const float kBias[] = {0.0f, -0.0f, 0.25f, -1.5f, 1e-40f, 3.0f};
      bias_values.push_back(kBias[c % 6]);
    }
    const std::vector<Tensor> inputs = {Tensor::F32({kRows, cols}, x_values),
                                        Tensor::F32({cols}, bias_values)};
    for (const auto& [name, body] : composites) {
      const std::string where = name + " cols=" + std::to_string(cols);
      Graph g(name);
      GraphBuilder b(&g);
      Value* x = b.Input("x", DType::kF32, {kDynamicDim, cols});
      Value* bias = b.Input("bias", DType::kF32, {cols});
      b.Output({body(&b, b.Add(x, bias), bias)});
      ExpectRunsMatchTheReference(g, {{"R", ""}, {""}}, inputs, where);
    }
  }
}

// EvaluateNode widens every f32 element to double, which quiets a
// signalling NaN, so every fused loop must quiet it too. The scalar loop
// once let GCC narrow (float)std::floor((double)x) to floorf(x), and the
// widened maximum and minimum to float compares, which keep it signalling.
// Rows of 1, 3 and 7 elements run the scalar loops, rows of 8 and 16 the
// vector rows where the host has them, and a stride-2 slice a copy loop.
TEST(KernelExecuteTest, SignallingNaNsAreQuietedLikeTheReference) {
  const float snan = F32FromBits(0x7f800001);
  const OpKind unary[] = {OpKind::kFloor, OpKind::kCeil, OpKind::kNeg,
                          OpKind::kAbs,   OpKind::kSqrt, OpKind::kRelu};
  const OpKind binary[] = {OpKind::kMaximum, OpKind::kMinimum, OpKind::kAdd,
                           OpKind::kSub,     OpKind::kMul,     OpKind::kDiv};
  constexpr int64_t kRows = 1;  // so that a member's row is `cols` long
  for (int64_t cols : {1, 3, 7, 8, 16}) {
    for (bool strided : {false, true}) {
      // A strided row is every other element of a row twice as long.
      const int64_t width = strided ? 2 * cols : cols;
      Tensor x = RandomF32(71, {kRows, width});
      Tensor y = RandomF32(73, {kRows, cols});
      for (int64_t r = 0; r < kRows; ++r) {
        x.f32_data()[r * width] = snan;
        y.f32_data()[r * cols + cols - 1] = snan;
      }
      auto build = [&](Graph* g, OpKind op, bool is_binary) {
        GraphBuilder b(g);
        Value* xv = b.Input("x", DType::kF32, {kDynamicDim, width});
        Value* yv = b.Input("y", DType::kF32, {kDynamicDim, cols});
        if (strided) xv = b.Slice(xv, {0, 0}, {-1, width}, {1, 2});
        Value* z = is_binary ? b.Binary(op, xv, yv) : b.Unary(op, xv);
        b.Output({b.Neg(b.Neg(z))});
      };
      for (OpKind op : unary) {
        Graph g("snan");
        build(&g, op, false);
        ExpectRunsMatchTheReference(
            g, {{"R", ""}, {"R", ""}}, {x, y},
            std::string(OpName(op)) + " cols=" + std::to_string(cols) +
                (strided ? " strided" : ""));
      }
      for (OpKind op : binary) {
        Graph g("snan");
        build(&g, op, true);
        ExpectRunsMatchTheReference(
            g, {{"R", ""}, {"R", ""}}, {x, y},
            std::string(OpName(op)) + " cols=" + std::to_string(cols) +
                (strided ? " strided" : ""));
      }
    }
  }
}

// When both operands of an arithmetic op are NaN, IEEE 754 leaves open
// which one's payload the result carries; x86 returns the first source
// operand's, and GCC orders the operands of commutative ops per call site.
// The choice is pinned: the first operand's NaN, quieted. Every operand form
// (contiguous with contiguous, contiguous with a broadcast scalar, and the
// reverse), on 3-element rows (scalar loops) and 16-element rows (vector
// rows where the host has them).
TEST(KernelExecuteTest, TwoNaNOperandsGiveTheFirstOperandsNaN) {
  const float first = F32FromBits(0xffc00000);
  const float second = F32FromBits(0x7fc00007);
  for (OpKind op : {OpKind::kAdd, OpKind::kSub, OpKind::kMul, OpKind::kDiv}) {
    for (int64_t cols : {3, 16}) {
      for (int form = 0; form < 3; ++form) {
        const int64_t x_cols = form == 2 ? 1 : cols;
        const int64_t y_cols = form == 1 ? 1 : cols;
        for (bool swap : {false, true}) {
          const std::string where =
              std::string(OpName(op)) + " cols=" + std::to_string(cols) +
              " form=" + std::to_string(form) + (swap ? " swapped" : "");
          Tensor x(DType::kF32, {2, x_cols});
          Tensor y(DType::kF32, {2, y_cols});
          std::fill_n(x.f32_data(), x.num_elements(), swap ? second : first);
          std::fill_n(y.f32_data(), y.num_elements(), swap ? first : second);
          Graph g("two-nans");
          GraphBuilder b(&g);
          Value* xv = b.Input("x", DType::kF32, {kDynamicDim, x_cols});
          Value* yv = b.Input("y", DType::kF32, {kDynamicDim, y_cols});
          b.Output({b.Neg(b.Neg(b.Binary(op, xv, yv)))});
          ExpectRunsMatchTheReference(g, {{"R", ""}, {"R", ""}}, {x, y},
                                      where);
          auto want = EvaluateGraph(g, {x, y});
          ASSERT_TRUE(want.ok()) << where;
          uint32_t bits;
          std::memcpy(&bits, (*want)[0].f32_data(), sizeof(bits));
          EXPECT_EQ(bits, swap ? 0x7fc00007u : 0xffc00000u) << where;
        }
      }
    }
  }
}

// A reshape that is not a group output aliases its operand: it runs no
// loop, takes no scratch, and its consumers read the operand directly,
// signalling NaNs and all, so each consumer must quiet what it reads as the
// reference's widening does. A transpose that is the group output, row
// reductions, arithmetic, maximum and neg read it here, and a reshape that
// is itself the group output still copies; the input holds signalling and
// quiet NaNs.
TEST(KernelExecuteTest, AliasedReshapesReadLikeTheReference) {
  constexpr int64_t kRows = 5;
  Tensor x = RandomF32(81, {kRows, 32});
  x.f32_data()[0] = F32FromBits(0x7f800001);
  x.f32_data()[37] = F32FromBits(0xffa00005);
  x.f32_data()[70] = F32FromBits(0x7fc00009);
  x.f32_data()[kRows * 32 - 1] = F32FromBits(0x7f800001);
  Tensor y = RandomF32(83, {16});
  y.f32_data()[3] = F32FromBits(0x7f900000);
  using Body = std::function<Value*(GraphBuilder*, Value*, Value*)>;
  const std::vector<std::pair<std::string, Body>> consumers = {
      {"transpose",
       [](GraphBuilder* b, Value* r, Value*) {
         return b->Transpose(r, {1, 0, 2});
       }},
      {"reduce_sum",
       [](GraphBuilder* b, Value* r, Value*) { return b->ReduceSum(r, {2}); }},
      {"reduce_max",
       [](GraphBuilder* b, Value* r, Value*) { return b->ReduceMax(r, {2}); }},
      {"add", [](GraphBuilder* b, Value* r, Value* v) { return b->Add(r, v); }},
      {"maximum",
       [](GraphBuilder* b, Value* r, Value* v) {
         return b->Binary(OpKind::kMaximum, r, v);
       }},
      {"neg", [](GraphBuilder* b, Value* r, Value*) { return b->Neg(r); }},
      {"output", [](GraphBuilder*, Value* r, Value*) { return r; }},
  };
  for (const auto& [name, body] : consumers) {
    Graph g(name);
    GraphBuilder b(&g);
    Value* xv = b.Input("x", DType::kF32, {kDynamicDim, 32});
    Value* yv = b.Input("y", DType::kF32, {16});
    b.Output({body(&b, b.Reshape(xv, {-1, 2, 16}), yv)});
    ExpectRunsMatchTheReference(g, {{"R", ""}, {""}}, {x, y}, name);
  }
}

TEST(KernelExecuteTest, AnAliasedReshapeTakesNoScratch) {
  // maximum(reshape(x), y) against maximum(neg(x), y): the same inputs and
  // member count, and neg's buffer is as large as the reshape's.
  constexpr int64_t kRows = 5;
  int64_t scratch[2] = {};
  for (bool reshape : {true, false}) {
    auto c = CompileKernels(
        [reshape](GraphBuilder* b) {
          Value* x = b->Input("x", DType::kF32, {kDynamicDim, 32});
          Value* y = b->Input("y", DType::kF32, {1});
          Value* r = reshape ? b->Reshape(x, {-1, 2, 16}) : b->Neg(x);
          b->Output({b->Binary(OpKind::kMaximum, r, y)});
        },
        {{"R", ""}, {""}});
    ASSERT_EQ(c->kernels.size(), 1u);
    ASSERT_EQ(c->kernels[0]->group().nodes.size(), 2u);
    auto bindings = c->analysis->BindInputs({{kRows, 32}, {1}});
    ASSERT_TRUE(bindings.ok());
    auto binding = c->kernels[0]->Bind(ShapesAt(*c->analysis, *bindings));
    ASSERT_TRUE(binding.ok()) << binding.status().ToString();
    scratch[reshape ? 0 : 1] = c->kernels[0]->ScratchBytes(*binding);
    Tensor x = RandomF32(85, {kRows, 32});
    x.f32_data()[9] = F32FromBits(0xff800003);
    ExpectMatchesReference(*c, {x, RandomF32(87, {1})});
  }
  // The slot table alone: two inputs and two members.
  EXPECT_EQ(scratch[0], static_cast<int64_t>(4 * sizeof(void*)));
  EXPECT_EQ(scratch[1] - scratch[0],
            kRows * 32 * static_cast<int64_t>(sizeof(float)));
}

// Reductions over trailing dims run the row reduction (RowLanes rows per
// block) where the host has vector rows. Every partial and whole block, 1
// to 2 * RowLanes + 1 rows, on rows around the block width holding a
// cancelling pair of +-2^70 (so the order of the additions shows), with NaN,
// signalling NaN, +-inf and +-0 in the first, a middle or the last column
// (one NaN per row at most, whose payload the sum carries) and rows of
// -0.0, on a plan miss and a hit.
TEST(KernelExecuteTest, RowReductionsMatchTheReference) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            F32FromBits(0x7f800001),
                            F32FromBits(0xffc0beef),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            0.0f,
                            -0.0f};
  const int64_t lanes = std::max<int64_t>(RowLanes(HostIsa()), 4);
  for (OpKind op : {OpKind::kReduceSum, OpKind::kReduceMean,
                    OpKind::kReduceMax, OpKind::kReduceMin}) {
    for (int64_t len : {1, 7, 8, 9, 13, 64}) {
      Graph g(OpName(op));
      GraphBuilder b(&g);
      Value* x = b.Input("x", DType::kF32, {kDynamicDim, len});
      b.Output({b.Reduce(op, x, {1})});
      auto exe = DiscCompiler::Compile(g, {{"R", ""}});
      ASSERT_TRUE(exe.ok()) << exe.status().ToString();
      for (int64_t rows = 1; rows <= 2 * lanes + 1; ++rows) {
        Tensor t = RandomF32(rows * 100 + len, {rows, len});
        for (int64_t r = 0; r < rows; ++r) {
          float* row = t.f32_data() + r * len;
          if (len >= 6) {
            // 2^70 absorbs what is added between it and its negation, so
            // the sum keeps only the elements after both: any other order
            // shows.
            row[1 + r % 3] = 0x1p70f;
            row[len - 2] = -0x1p70f;
          }
          if (r % 6 == 5) {
            std::fill_n(row, len, -0.0f);
          } else {
            const int64_t column[] = {0, len / 2, len - 1};
            row[column[(r + len) % 3]] = specials[(r + len) % 7];
          }
        }
        ExpectRunsMatchTheReference(**exe, g, {t},
                                    std::string(OpName(op)) + " rows=" +
                                        std::to_string(rows) +
                                        " len=" + std::to_string(len));
      }
    }
  }
  // Trailing dims with size-1 dims around them and keep_dims, where the
  // output keeps the rows' order.
  for (bool keep : {false, true}) {
    Graph g("trailing");
    GraphBuilder b(&g);
    Value* x = b.Input("x", DType::kF32, {kDynamicDim, 1, 3, 5, 1});
    b.Output({b.ReduceMean(x, {2, 3}, keep)});
    auto exe = DiscCompiler::Compile(g, {{"R", "", "", "", ""}});
    ASSERT_TRUE(exe.ok()) << exe.status().ToString();
    for (int64_t rows : {2, 11}) {
      ExpectRunsMatchTheReference(**exe, g,
                                  {RandomF32(rows, {rows, 1, 3, 5, 1})},
                                  "trailing keep=" + std::to_string(keep));
    }
  }
}

TEST(KernelTest, OpFlopCosts) {
  EXPECT_EQ(OpFlopCost(OpKind::kAdd), 1);
  EXPECT_EQ(OpFlopCost(OpKind::kExp), 8);
  EXPECT_EQ(OpFlopCost(OpKind::kDiv), 4);
  EXPECT_EQ(OpFlopCost(OpKind::kTranspose), 0);
  EXPECT_EQ(OpFlopCost(OpKind::kGather), 0);
}

TEST(LibraryTest, MatMulStats) {
  Graph g;
  GraphBuilder b(&g);
  Value* a = b.Input("a", DType::kF32, {kDynamicDim, 64});
  Value* w = b.Input("w", DType::kF32, {64, 32});
  Value* y = b.MatMul(a, w);
  b.Output({y});
  ShapeAnalysis analysis(&g, {{"B", ""}, {}});
  ASSERT_TRUE(analysis.Run().ok());
  auto bindings = analysis.BindInputs({{16, 64}, {64, 32}});
  ASSERT_TRUE(bindings.ok());
  auto stats =
      ComputeLibraryStats(*y->producer(), ShapesAt(analysis, *bindings));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->flops, 2 * 16 * 32 * 64);
  EXPECT_EQ(stats->bytes_read, (16 * 64 + 64 * 32) * 4);
  EXPECT_EQ(stats->bytes_written, 16 * 32 * 4);
}

TEST(LibraryTest, Conv2DStats) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 8, kDynamicDim, 3});
  Value* w = b.Input("w", DType::kF32, {3, 3, 3, 16});
  Value* y = b.Conv2D(x, w, {1, 1}, {1, 1});
  b.Output({y});
  ShapeAnalysis analysis(&g, {{"", "", "W", ""}, {}});
  ASSERT_TRUE(analysis.Run().ok());
  auto bindings = analysis.BindInputs({{1, 8, 10, 3}, {3, 3, 3, 16}});
  ASSERT_TRUE(bindings.ok());
  auto stats =
      ComputeLibraryStats(*y->producer(), ShapesAt(analysis, *bindings));
  ASSERT_TRUE(stats.ok());
  // out = [1, 8, 10, 16]; flops = 2 * out * 3*3*3.
  EXPECT_EQ(stats->flops, 2 * (8 * 10 * 16) * 27);
}

TEST(LibraryTest, NonLibraryOpRejected) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  Value* y = b.Relu(x);
  b.Output({y});
  ShapeAnalysis analysis(&g);
  ASSERT_TRUE(analysis.Run().ok());
  auto bindings = analysis.BindInputs({{4}});
  EXPECT_FALSE(
      ComputeLibraryStats(*y->producer(), ShapesAt(analysis, *bindings))
          .ok());
  EXPECT_TRUE(IsLibraryOp(OpKind::kMatMul));
  EXPECT_FALSE(IsLibraryOp(OpKind::kRelu));
}

}  // namespace
}  // namespace disc
