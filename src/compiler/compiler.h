// DiscCompiler: the end-to-end pipeline.
//
//   input graph
//     -> graph optimizations (canonicalize / fold / CSE / DCE /
//        symbolic shape simplification)
//     -> symbolic shape analysis (global constraint excavation)
//     -> dynamic-shape fusion planning (kLoop / kInput / kStitch)
//     -> kernel compilation + compile-time multi-version specialization
//     -> step scheduling (host shape ops vs. library calls vs. kernels)
//     -> symbolic arena memory planning (liveness, offsets, peak formula)
//     -> Executable (compile once, run any shape)
#ifndef DISC_COMPILER_COMPILER_H_
#define DISC_COMPILER_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "fusion/fusion.h"
#include "kernel/kernel.h"
#include "opt/pass.h"
#include "runtime/executable.h"
#include "support/artifact_dump.h"

namespace disc {

struct CompileOptions {
  /// Graph-level optimizations before fusion.
  bool run_graph_passes = true;
  FusionOptions fusion;
  SpecializeOptions specialize;
  /// Introspection-artifact dumping (IR snapshots, decision provenance).
  /// Disabled unless `dump.dir` is set. See support/artifact_dump.h for
  /// the directory layout.
  DumpOptions dump;
  /// Likely runtime values per input-dim label ("shape speculation" hints,
  /// from profiling feedback or the user). Seeded into the symbolic
  /// constraint store before kernel specialization; kernels then emit
  /// exact-shape variants for the hot values. Hints that contradict a
  /// divisibility fact (see `dim_divisors`) are rejected with a recorded
  /// `blocked:` constraint instead of poisoning specialization.
  std::vector<std::pair<std::string, std::vector<int64_t>>> likely_dim_values;
  /// Known divisibility per input-dim label ("B is always a multiple of
  /// 8"), e.g. from padded batching. Seeded as symbolic divisibility facts
  /// before hints are validated and kernels specialized.
  std::vector<std::pair<std::string, int64_t>> dim_divisors;

  /// Convenience ablation presets.
  static CompileOptions Default() { return {}; }
  /// No fusion, no specialization — per-op kernels (motivation baseline).
  static CompileOptions NoFusion();
  /// Fusion but a single generic variant per kernel (codegen ablation).
  static CompileOptions NoSpecialization();
  /// Fusion legality restricted to statically-known shapes (shape ablation).
  static CompileOptions NoSymbolicShapes();
};

/// \brief Compiles graphs into shape-polymorphic Executables.
class DiscCompiler {
 public:
  /// \brief Compiles `graph` (copied; the original is untouched).
  /// `input_dim_labels` names dynamic input dims so equal labels share one
  /// symbolic dimension (see ShapeAnalysis).
  static Result<std::unique_ptr<Executable>> Compile(
      const Graph& graph,
      std::vector<std::vector<std::string>> input_dim_labels = {},
      const CompileOptions& options = {});
};

}  // namespace disc

#endif  // DISC_COMPILER_COMPILER_H_
