// Experiment T3: effectiveness of the symbolic shape layer.
//
// Per model: how many symbolic dims exist before/after constraint
// excavation (unification + constants), how many reshape product facts were
// recorded, what fusion that knowledge enabled, and the memory footprint
// DISC needs vs an interpreter materializing every intermediate.
#include <set>

#include "bench/bench_util.h"
#include "compiler/compiler.h"
#include "support/string_util.h"

int main() {
  using namespace disc;
  std::printf("== T3: symbolic shape analysis effectiveness ==\n\n");

  ModelConfig config;
  auto suite = BuildModelSuite(config);

  bench::Table shape_table({"model", "dynamic dims (all values)",
                            "distinct dim exprs", "symbols",
                            "classes after unify", "fused ops",
                            "loop/input/stitch groups"});
  bench::Table mem_table({"model", "shape", "DISC peak", "eager peak",
                          "reduction"});
  for (const Model& model : suite) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    DISC_CHECK_OK(exe.status());
    const CompileReport& report = (*exe)->report();
    // The excavation metric: every dynamic dim of every intermediate is
    // expressed as one of a handful of symbolic expressions over the input
    // symbols — this is what lets fusion reason about thousands of dims.
    int64_t dynamic_dims = 0;
    std::set<std::string> distinct_exprs;
    const ShapeAnalysis& analysis = (*exe)->analysis();
    for (const Node* node : (*exe)->graph().TopologicalOrder()) {
      for (const Value* out : node->outputs()) {
        for (const DimExpr& d : analysis.GetShape(out)) {
          DimExpr canonical = analysis.manager().Canonicalize(d);
          if (canonical.IsConst()) continue;
          ++dynamic_dims;
          distinct_exprs.insert(canonical.ToString());
        }
      }
    }
    shape_table.AddRow(
        {model.name, std::to_string(dynamic_dims),
         std::to_string(distinct_exprs.size()),
         std::to_string(report.shapes.num_symbols),
         std::to_string(report.shapes.num_classes),
         std::to_string(report.fusion.num_fused_nodes),
         bench::Fmt("%.0f", (double)report.fusion.num_loop_groups) + "/" +
             bench::Fmt("%.0f", (double)report.fusion.num_input_groups) +
             "/" +
             bench::Fmt("%.0f", (double)report.fusion.num_stitch_groups)});

    auto disc_run = (*exe)->RunWithShapes(model.trace.front());
    DISC_CHECK_OK(disc_run.status());
    auto eager = MakeBaseline("PyTorch");
    DISC_CHECK_OK(eager.status());
    DISC_CHECK_OK((*eager)->Prepare(*model.graph, model.input_dim_labels));
    auto eager_run = (*eager)->Query(model.trace.front(), DeviceSpec::T4());
    DISC_CHECK_OK(eager_run.status());

    std::string shape_str;
    for (const auto& dims : model.trace.front()) {
      shape_str += "[" + Join(dims, "x") + "]";
    }
    double reduction = eager_run->peak_memory_bytes > 0
                           ? 1.0 - static_cast<double>(
                                       disc_run->profile.peak_memory_bytes) /
                                       static_cast<double>(
                                           eager_run->peak_memory_bytes)
                           : 0.0;
    mem_table.AddRow(
        {model.name, shape_str,
         bench::Fmt("%.2fMB", disc_run->profile.peak_memory_bytes / 1e6),
         bench::Fmt("%.2fMB", eager_run->peak_memory_bytes / 1e6),
         bench::Fmt("%.0f%%", reduction * 100)});
  }
  std::printf("-- constraint excavation & fusion enabled --\n");
  shape_table.Print();
  std::printf("\n-- peak intermediate memory (first trace shape) --\n");
  mem_table.Print();

  // Memory planning + allocator behaviour across a changing-shape trace.
  std::printf("\n-- memory planning & allocator reuse over the trace --\n");
  bench::Table buf_table({"model", "device values", "arena slots",
                          "alloc calls (8 queries)", "cache hits"});
  for (const Model& model : BuildModelSuite(config)) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    DISC_CHECK_OK(exe.status());
    int64_t calls = 0;
    int64_t hits = 0;
    for (size_t q = 0; q < 8 && q < model.trace.size(); ++q) {
      auto r = (*exe)->RunWithShapes(model.trace[q]);
      DISC_CHECK_OK(r.status());
      calls += r->profile.alloc_calls;
      hits += r->profile.alloc_cache_hits;
    }
    buf_table.AddRow({model.name,
                      std::to_string((*exe)->memory_plan().num_values),
                      std::to_string((*exe)->report().arena_slots),
                      std::to_string(calls), std::to_string(hits)});
  }
  buf_table.Print();
  return 0;
}
