// The step schedule the memory planner reads (see runtime/memory_plan.h):
// one entry per executable step, naming the device values the step defines
// and the values it reads. Liveness over this schedule is shape-independent,
// so it is computed once per Compile.
#ifndef DISC_RUNTIME_BUFFER_PLAN_H_
#define DISC_RUNTIME_BUFFER_PLAN_H_

#include <vector>

#include "ir/graph.h"

namespace disc {

/// One schedule entry for planning: the values a step defines and uses.
struct PlanStep {
  std::vector<const Value*> defines;
  std::vector<const Value*> uses;
};

}  // namespace disc

#endif  // DISC_RUNTIME_BUFFER_PLAN_H_
