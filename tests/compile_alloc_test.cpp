// A default compile of each of the seven benchmark graphs must stay within
// an allocation budget. Compiles run on the serving path (every Prepare,
// every respecialization that shape feedback or kernel regret triggers),
// and unlike their wall time, their heap allocation calls repeat exactly:
// the same graph and options make the same calls. The budgets are 1.25x
// the counts measured when they were set, so work repeated per fixpoint
// sweep, per candidate slot or per pass shows as a multiple of them. The
// operator-new hook (alloc_hook.h) counts the calls.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "alloc_hook.h"
#include "compiler/compiler.h"
#include "models/models.h"

namespace disc {
namespace {

TEST(CompileAllocTest, DefaultCompilesStayWithinBudget) {
  // Allocation calls of one default Compile, measured per graph.
  const std::map<std::string, int64_t> measured = {
      {"bert", 20638}, {"seq2seq-step", 4963}, {"crnn", 3353},
      {"fastspeech2", 21107}, {"dlrm", 5547}, {"mlp", 1579},
      {"gpt-step-batch", 6629}};
  std::vector<Model> models = BuildModelSuite();
  models.push_back(BuildGptStepBatch());
  for (const Model& model : models) {
    // The first compile also fills process-wide registries (metric
    // handles, failpoint sites); the second shows the compile's own calls.
    ASSERT_TRUE(
        DiscCompiler::Compile(*model.graph, model.input_dim_labels).ok());
    StartCountingAllocations();
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    StopCountingAllocations();
    const int64_t calls = CountedAllocationCalls();
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    auto it = measured.find(model.name);
    ASSERT_NE(it, measured.end()) << model.name;
    const int64_t budget = it->second + it->second / 4;
    EXPECT_LE(calls, budget) << model.name << " compiled with " << calls
                             << " allocation calls; measured " << it->second;
  }
}

}  // namespace
}  // namespace disc
