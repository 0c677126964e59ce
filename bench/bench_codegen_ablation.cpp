// Experiment F3: codegen ablation — generic single-variant kernels vs the
// compile-time/runtime combined multi-version specialization:
//   * vectorization (guarded on divisibility of the launch domain),
//   * broadcast/index-arithmetic elimination (proven from shape equality),
//   * reduce schedule selection (warp-per-row vs block-per-row by runtime
//     row length).
// Swept over shapes that admit or defeat each specialization, so the table
// shows both the win when a guard admits and the zero-cost fallback when
// it does not.
#include "bench/bench_util.h"
#include "compiler/compiler.h"
#include "ir/builder.h"
#include "support/string_util.h"

namespace disc {
namespace {

std::unique_ptr<Graph> Elementwise() {
  auto g = std::make_unique<Graph>("ew");
  GraphBuilder b(g.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* y = b.Input("y", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Relu(b.Add(b.Mul(x, y), y))});
  return g;
}

std::unique_ptr<Graph> RowReduce() {
  auto g = std::make_unique<Graph>("reduce");
  GraphBuilder b(g.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.ReduceSum(b.Mul(x, x), {1})});
  return g;
}

void Sweep(const char* title, const char* id, const Graph& graph,
           const std::vector<std::vector<std::string>>& labels,
           const std::vector<ShapeSet>& shape_sets,
           bench::JsonReporter* report) {
  auto specialized = DiscCompiler::Compile(graph, labels);
  auto generic = DiscCompiler::Compile(graph, labels,
                                       CompileOptions::NoSpecialization());
  DISC_CHECK_OK(specialized.status());
  DISC_CHECK_OK(generic.status());

  std::printf("-- %s --\n", title);
  bench::Table table({"shape", "generic us", "specialized us", "variant used",
                      "speedup"});
  for (const ShapeSet& shapes : shape_sets) {
    auto rg = (*generic)->RunWithShapes(shapes);
    auto rs = (*specialized)->RunWithShapes(shapes);
    DISC_CHECK_OK(rg.status());
    DISC_CHECK_OK(rs.status());
    std::string variant = "?";
    for (const auto& [name, count] : *rs->profile.variant_counts) {
      if (count > 0) variant = name.substr(name.find('/') + 1);
    }
    std::string shape_str;
    for (const auto& dims : shapes) shape_str += "[" + Join(dims, "x") + "]";
    report->AddMetric(std::string(id) + "." + shape_str + ".generic_us",
                      rg->profile.device_time_us, "us");
    report->AddMetric(std::string(id) + "." + shape_str + ".specialized_us",
                      rs->profile.device_time_us, "us");
    table.AddRow({shape_str, bench::FmtUs(rg->profile.device_time_us),
                  bench::FmtUs(rs->profile.device_time_us), variant,
                  bench::Fmt("%.2fx", rg->profile.device_time_us /
                                          rs->profile.device_time_us)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  using disc::ShapeSet;
  disc::bench::JsonReporter report("F3", argc, argv);
  std::printf("== F3: multi-version codegen vs generic kernels ==\n\n");

  auto ew = disc::Elementwise();
  disc::Sweep("elementwise (vectorization + broadcast elimination)", "ew",
              *ew, {{"B", "S"}, {"B", "S"}},
              {
                  ShapeSet{{1024, 1024}, {1024, 1024}},  // divisible -> vec4
                  ShapeSet{{1023, 1023}, {1023, 1023}},  // odd -> generic
                  ShapeSet{{64, 64}, {64, 64}},
                  ShapeSet{{7, 13}, {7, 13}},  // tiny + odd
              },
              &report);

  auto rr = disc::RowReduce();
  disc::Sweep("row reduction (schedule selection by runtime row length)",
              "reduce", *rr, {{"B", "S"}},
              {
                  ShapeSet{{4096, 64}},    // short rows -> warp per row
                  ShapeSet{{4096, 512}},   // medium -> warp per row
                  ShapeSet{{4096, 4096}},  // long rows -> block per row
                  ShapeSet{{16, 65536}},   // very long, few rows
              },
              &report);

  // Shape speculation: the hot shape gets an exact-shape variant; cold
  // shapes fall back to the guarded dynamic variants at zero cost.
  {
    using namespace disc;
    auto ew = Elementwise();
    CompileOptions with_spec;
    with_spec.likely_dim_values = {{"B", {512}}, {"S", {1024}}};
    auto spec = DiscCompiler::Compile(*ew, {{"B", "S"}, {"B", "S"}},
                                      with_spec);
    auto plain = DiscCompiler::Compile(*ew, {{"B", "S"}, {"B", "S"}});
    DISC_CHECK_OK(spec.status());
    DISC_CHECK_OK(plain.status());
    std::printf("-- shape speculation (hot shape hint = [512x1024]) --\n");
    bench::Table table({"shape", "dynamic us", "+speculation us", "variant",
                        "speedup"});
    for (const ShapeSet& shapes :
         {ShapeSet{{512, 1024}, {512, 1024}},   // the hot shape
          ShapeSet{{512, 1023}, {512, 1023}},   // near miss -> fallback
          ShapeSet{{64, 64}, {64, 64}}}) {
      auto rp = (*plain)->RunWithShapes(shapes);
      auto rs = (*spec)->RunWithShapes(shapes);
      DISC_CHECK_OK(rp.status());
      DISC_CHECK_OK(rs.status());
      std::string variant = "?";
      for (const auto& [name, count] : *rs->profile.variant_counts) {
        if (count > 0) variant = name.substr(name.find('/') + 1);
      }
      std::string shape_str = "[" + Join(shapes[0], "x") + "]";
      report.AddMetric("speculation." + shape_str + ".dynamic_us",
                       rp->profile.device_time_us, "us");
      report.AddMetric("speculation." + shape_str + ".speculative_us",
                       rs->profile.device_time_us, "us");
      table.AddRow({shape_str, bench::FmtUs(rp->profile.device_time_us),
                    bench::FmtUs(rs->profile.device_time_us), variant,
                    bench::Fmt("%.2fx", rp->profile.device_time_us /
                                            rs->profile.device_time_us)});
    }
    table.Print();
  }
  return 0;
}
