// Property-based testing: randomized dynamic-shape graphs are compiled and
// executed, and must agree with the reference evaluator —
//   * on two different instantiations of their dynamic dims (the same
//     executable serves both: compile-once, run-any-shape), and
//   * under every ablation configuration (fusion and specialization may
//     change performance, never numerics).
//
// The generator builds DAGs over elementwise, reduction and injective ops,
// tracking a per-dimension symbol ("B"/"S"/"N"/constant) so structural
// attributes (slice bounds, concat, reshape merges) are only applied where
// they stay valid for any symbol binding. Symbols get distinct prime values
// in instance 1, so accidental dim equality cannot fake shape equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "ir/parser.h"
#include "shape/shape_analysis.h"
#include "support/rng.h"

namespace disc {
namespace {

struct GenValue {
  Value* value;
  std::vector<std::string> spec;  // symbol name or decimal constant per dim
};

class GraphGenerator {
 public:
  explicit GraphGenerator(uint64_t seed) : rng_(seed) {}

  // Returns dim labels parallel to inputs.
  std::vector<std::vector<std::string>> Build(Graph* graph, int num_ops) {
    GraphBuilder b(graph);
    std::vector<std::vector<std::string>> labels;

    // 1-3 inputs over the symbols B, S and constants.
    int num_inputs = static_cast<int>(rng_.UniformInt(1, 3));
    for (int i = 0; i < num_inputs; ++i) {
      std::vector<std::string> spec;
      int rank = static_cast<int>(rng_.UniformInt(1, 3));
      for (int d = 0; d < rank; ++d) {
        switch (rng_.UniformInt(0, 3)) {
          case 0:
            spec.push_back("B");
            break;
          case 1:
            spec.push_back("S");
            break;
          default:
            spec.push_back(std::to_string(rng_.UniformInt(2, 6)));
        }
      }
      std::vector<int64_t> declared;
      std::vector<std::string> label;
      for (const std::string& s : spec) {
        if (IsConst(s)) {
          declared.push_back(std::stoll(s));
          label.push_back("");
        } else {
          declared.push_back(kDynamicDim);
          label.push_back(s);
        }
      }
      labels.push_back(label);
      Value* v = b.Input("in" + std::to_string(i), DType::kF32, declared);
      pool_.push_back({v, spec});
    }

    for (int i = 0; i < num_ops; ++i) AddRandomOp(&b);

    // Outputs: up to 2 of the most recent values.
    std::vector<Value*> outputs = {pool_.back().value};
    if (pool_.size() >= 2 && rng_.UniformInt(0, 1) == 1) {
      outputs.push_back(pool_[pool_.size() - 2].value);
    }
    b.Output(outputs);
    return labels;
  }

  // Concrete input tensors for a given symbol assignment.
  std::vector<Tensor> MakeInputs(const Graph& graph,
                                 const std::map<std::string, int64_t>& syms,
                                 uint64_t seed) {
    Rng data_rng(seed);
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < graph.inputs().size(); ++i) {
      const auto& spec = pool_[i].spec;
      std::vector<int64_t> dims;
      for (const std::string& s : spec) {
        dims.push_back(IsConst(s) ? std::stoll(s) : syms.at(s));
      }
      Tensor t(DType::kF32, dims);
      for (int64_t e = 0; e < t.num_elements(); ++e) {
        t.f32_data()[e] = data_rng.Normal();
      }
      inputs.push_back(std::move(t));
    }
    return inputs;
  }

 private:
  static bool IsConst(const std::string& s) {
    return !s.empty() && std::isdigit(static_cast<unsigned char>(s[0]));
  }

  GenValue& Pick() {
    return pool_[rng_.UniformInt(0, static_cast<int64_t>(pool_.size()) - 1)];
  }

  void AddRandomOp(GraphBuilder* b) {
    switch (rng_.UniformInt(0, 11)) {
      case 0: {  // unary
        GenValue& x = Pick();
        static const OpKind kUnary[] = {OpKind::kAbs, OpKind::kNeg,
                                        OpKind::kTanh, OpKind::kSigmoid,
                                        OpKind::kRelu, OpKind::kExp};
        OpKind kind = kUnary[rng_.UniformInt(0, 5)];
        pool_.push_back({b->Unary(kind, x.value), x.spec});
        break;
      }
      case 1: {  // binary with an identical-spec partner, if any
        GenValue& x = Pick();
        std::vector<GenValue*> same;
        for (GenValue& other : pool_) {
          if (other.spec == x.spec) same.push_back(&other);
        }
        GenValue& y = *same[rng_.UniformInt(
            0, static_cast<int64_t>(same.size()) - 1)];
        static const OpKind kBinary[] = {OpKind::kAdd, OpKind::kSub,
                                         OpKind::kMul, OpKind::kMaximum,
                                         OpKind::kMinimum};
        OpKind kind = kBinary[rng_.UniformInt(0, 4)];
        pool_.push_back({b->Binary(kind, x.value, y.value), x.spec});
        break;
      }
      case 2: {  // binary with scalar
        GenValue& x = Pick();
        Value* c = b->ScalarF32(static_cast<float>(rng_.Uniform(-2, 2)));
        pool_.push_back({b->Add(x.value, c), x.spec});
        break;
      }
      case 3: {  // reduce over a random axis
        GenValue& x = Pick();
        if (x.spec.empty()) break;
        int64_t axis =
            rng_.UniformInt(0, static_cast<int64_t>(x.spec.size()) - 1);
        bool keep = rng_.UniformInt(0, 1) == 1;
        static const OpKind kReduce[] = {OpKind::kReduceSum,
                                         OpKind::kReduceMax,
                                         OpKind::kReduceMean};
        OpKind kind = kReduce[rng_.UniformInt(0, 2)];
        std::vector<std::string> spec;
        for (size_t d = 0; d < x.spec.size(); ++d) {
          if (static_cast<int64_t>(d) == axis) {
            if (keep) spec.push_back("1");
          } else {
            spec.push_back(x.spec[d]);
          }
        }
        pool_.push_back({b->Reduce(kind, x.value, {axis}, keep), spec});
        break;
      }
      case 4: {  // transpose with a random permutation
        GenValue& x = Pick();
        if (x.spec.size() < 2) break;
        std::vector<int64_t> perm(x.spec.size());
        for (size_t d = 0; d < perm.size(); ++d) {
          perm[d] = static_cast<int64_t>(d);
        }
        std::shuffle(perm.begin(), perm.end(), rng_.engine());
        std::vector<std::string> spec(x.spec.size());
        for (size_t d = 0; d < perm.size(); ++d) spec[d] = x.spec[perm[d]];
        pool_.push_back({b->Transpose(x.value, perm), spec});
        break;
      }
      case 5: {  // flatten everything to 1-D via dynamic reshape
        GenValue& x = Pick();
        if (x.spec.size() < 2) break;
        Value* flat = b->Reshape(x.value, {-1});
        std::string merged;
        for (const std::string& s : x.spec) merged += s + "*";
        pool_.push_back({flat, {merged}});
        break;
      }
      case 6: {  // reshape back to a producer's shape via shape_of
        GenValue& x = Pick();
        // Find a value with the same element count: itself (round trip).
        Value* flat = b->Reshape(x.value, {-1});
        Value* back = b->ReshapeDynamic(flat, b->ShapeOf(x.value));
        pool_.push_back({back, x.spec});
        break;
      }
      case 7: {  // slice a static axis in half
        GenValue& x = Pick();
        int static_axis = -1;
        for (size_t d = 0; d < x.spec.size(); ++d) {
          if (IsConst(x.spec[d]) && std::stoll(x.spec[d]) >= 2) {
            static_axis = static_cast<int>(d);
          }
        }
        if (static_axis < 0) break;
        int64_t extent = std::stoll(x.spec[static_axis]);
        std::vector<int64_t> starts(x.spec.size(), 0);
        std::vector<int64_t> ends(x.spec.size(), -1);
        std::vector<int64_t> steps(x.spec.size(), 1);
        ends[static_axis] = extent / 2;
        std::vector<std::string> spec = x.spec;
        spec[static_axis] = std::to_string(extent / 2);
        pool_.push_back({b->Slice(x.value, starts, ends, steps), spec});
        break;
      }
      case 8: {  // pad a static axis
        GenValue& x = Pick();
        int static_axis = -1;
        for (size_t d = 0; d < x.spec.size(); ++d) {
          if (IsConst(x.spec[d])) static_axis = static_cast<int>(d);
        }
        if (static_axis < 0) break;
        std::vector<int64_t> low(x.spec.size(), 0);
        std::vector<int64_t> high(x.spec.size(), 0);
        low[static_axis] = 1;
        high[static_axis] = 1;
        std::vector<std::string> spec = x.spec;
        spec[static_axis] =
            std::to_string(std::stoll(x.spec[static_axis]) + 2);
        pool_.push_back({b->Pad(x.value, low, high, 0.5), spec});
        break;
      }
      case 10: {  // gather rows by a constant index tensor on a static axis
        GenValue& x = Pick();
        if (x.spec.empty() || !IsConst(x.spec[0])) break;
        int64_t extent = std::stoll(x.spec[0]);
        int64_t n = rng_.UniformInt(1, 4);
        std::vector<int64_t> ids;
        for (int64_t i = 0; i < n; ++i) ids.push_back(rng_.UniformInt(0, extent - 1));
        Value* idx = b->Constant(Tensor::I64({n}, ids));
        std::vector<std::string> spec = x.spec;
        spec[0] = std::to_string(n);
        pool_.push_back({b->Gather(x.value, idx, 0), spec});
        break;
      }
      case 11: {  // broadcast a scalar to a value's (dynamic) shape
        GenValue& x = Pick();
        if (x.spec.empty()) break;
        Value* scalar = b->ScalarF32(static_cast<float>(rng_.Uniform(-1, 1)));
        Value* bc = b->BroadcastToDynamic(scalar, b->ShapeOf(x.value));
        pool_.push_back({b->Add(x.value, bc), x.spec});
        break;
      }
      case 9: {  // concat a value with itself along a static axis
        GenValue& x = Pick();
        int static_axis = -1;
        for (size_t d = 0; d < x.spec.size(); ++d) {
          if (IsConst(x.spec[d])) static_axis = static_cast<int>(d);
        }
        if (static_axis < 0) break;
        std::vector<std::string> spec = x.spec;
        spec[static_axis] =
            std::to_string(2 * std::stoll(x.spec[static_axis]));
        pool_.push_back(
            {b->Concat({x.value, x.value}, static_axis), spec});
        break;
      }
    }
  }

  Rng rng_;
  std::vector<GenValue> pool_;
};

class PropertyCompileTest : public ::testing::TestWithParam<int> {};

// A data-mode Run must equal the reference evaluator on the graph the
// executable compiled, bit for bit. The tolerance checks above compare with
// the original graph instead, which opt passes may have reassociated.
void ExpectBitIdenticalToCompiledGraph(const Executable& exe,
                                       const std::vector<Tensor>& inputs,
                                       const std::vector<Tensor>& got,
                                       uint64_t seed) {
  auto exact = EvaluateGraph(exe.graph(), inputs);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(got.size(), exact->size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(Tensor::BitEqual(got[i], (*exact)[i]))
        << "seed " << seed << " output " << i << " max|d|="
        << Tensor::MaxAbsDiff(got[i], (*exact)[i]) << "\n"
        << exe.graph().ToString();
  }
}

TEST_P(PropertyCompileTest, CompiledMatchesReferenceOnTwoInstantiations) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("prop_" + std::to_string(seed));
  GraphGenerator generator(seed);
  auto labels = generator.Build(&graph, /*num_ops=*/14);
  ASSERT_TRUE(graph.Verify().ok()) << graph.ToString();

  auto exe = DiscCompiler::Compile(graph, labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString() << "\n" << graph.ToString();

  // Two instantiations of the dynamic dims, served by ONE executable.
  for (const auto& syms : std::vector<std::map<std::string, int64_t>>{
           {{"B", 3}, {"S", 5}}, {{"B", 6}, {"S", 9}}}) {
    auto inputs = generator.MakeInputs(graph, syms, seed * 31 + syms.at("B"));
    auto want = EvaluateGraph(graph, inputs);
    ASSERT_TRUE(want.ok()) << want.status().ToString() << "\n"
                           << graph.ToString();
    auto got = (*exe)->Run(inputs);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n"
                          << graph.ToString();
    ASSERT_EQ(got->outputs.size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_TRUE(Tensor::AllClose(got->outputs[i], (*want)[i], 1e-3, 1e-4))
          << "seed " << seed << " output " << i << "\n"
          << graph.ToString();
    }
    ExpectBitIdenticalToCompiledGraph(**exe, inputs, got->outputs, seed);
  }
}

TEST_P(PropertyCompileTest, AblationsNeverChangeNumerics) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("abl_" + std::to_string(seed));
  GraphGenerator generator(seed + 1000);
  auto labels = generator.Build(&graph, /*num_ops=*/10);

  auto inputs = generator.MakeInputs(graph, {{"B", 4}, {"S", 7}}, seed);
  auto want = EvaluateGraph(graph, inputs);
  ASSERT_TRUE(want.ok());

  for (const CompileOptions& options :
       {CompileOptions::Default(), CompileOptions::NoFusion(),
        CompileOptions::NoSpecialization(),
        CompileOptions::NoSymbolicShapes()}) {
    auto exe = DiscCompiler::Compile(graph, labels, options);
    ASSERT_TRUE(exe.ok()) << exe.status().ToString();
    auto got = (*exe)->Run(inputs);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_TRUE(Tensor::AllClose(got->outputs[i], (*want)[i], 1e-3, 1e-4))
          << "seed " << seed << "\n" << graph.ToString();
    }
    ExpectBitIdenticalToCompiledGraph(**exe, inputs, got->outputs, seed);
  }
}

TEST_P(PropertyCompileTest, SymbolicShapesAgreeWithConcreteEvaluation) {
  // For every value in a random graph, the symbolic shape evaluated under
  // the solved bindings must equal the dims the reference evaluator
  // actually produces.
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("shapes_" + std::to_string(seed));
  GraphGenerator generator(seed + 2000);
  auto labels = generator.Build(&graph, /*num_ops=*/12);

  ShapeAnalysis analysis(&graph, labels);
  ASSERT_TRUE(analysis.Run().ok()) << graph.ToString();

  std::map<std::string, int64_t> syms = {{"B", 4}, {"S", 7}};
  auto inputs = generator.MakeInputs(graph, syms, seed);
  std::vector<std::vector<int64_t>> input_dims;
  for (const Tensor& t : inputs) input_dims.push_back(t.dims());
  auto bindings = analysis.BindInputs(input_dims);
  ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();
  auto shapes = analysis.EvaluateShapes(*bindings);
  ASSERT_TRUE(shapes.ok()) << shapes.status().ToString();

  // Concrete per-value dims via node-by-node reference evaluation.
  std::unordered_map<const Value*, Tensor> env;
  for (size_t i = 0; i < inputs.size(); ++i) {
    env.emplace(graph.inputs()[i], inputs[i]);
  }
  for (const Node* node : graph.TopologicalOrder()) {
    std::vector<Tensor> operand_values;
    for (const Value* operand : node->operands()) {
      operand_values.push_back(env.at(operand));
    }
    auto results = EvaluateNode(*node, operand_values);
    ASSERT_TRUE(results.ok()) << node->ToString();
    for (size_t i = 0; i < results->size(); ++i) {
      const Value* out = node->output(static_cast<int>(i));
      const std::span<const int64_t> symbolic_dims = shapes->dims(out);
      EXPECT_TRUE(std::ranges::equal(symbolic_dims, (*results)[i].dims()))
          << "seed " << seed << " node " << node->ToString() << "\n"
          << SymShapeToString(analysis.GetShape(out));
      env.emplace(out, std::move((*results)[i]));
    }
  }
}

TEST_P(PropertyCompileTest, PrinterParserRoundTripOnRandomGraphs) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("rt_" + std::to_string(seed));
  GraphGenerator generator(seed + 3000);
  generator.Build(&graph, /*num_ops=*/10);

  auto parsed = ParseGraph(graph.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << graph.ToString();
  EXPECT_EQ((*parsed)->num_nodes(), graph.num_nodes());
  // Round-tripping again is a fixpoint.
  auto twice = ParseGraph((*parsed)->ToString());
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ((*twice)->ToString(), (*parsed)->ToString());
  // And the parsed graph computes the same function.
  auto inputs = generator.MakeInputs(graph, {{"B", 3}, {"S", 5}}, seed);
  auto want = EvaluateGraph(graph, inputs);
  auto got = EvaluateGraph(**parsed, inputs);
  ASSERT_TRUE(want.ok() && got.ok());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(Tensor::AllClose((*got)[i], (*want)[i])) << graph.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyCompileTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace disc
