#include <unordered_map>

#include "opt/pass.h"
#include "support/math_util.h"

namespace disc {
namespace {

// Structural hash of a node: kind, operand ids and attributes (a constant
// hashes its dtype, dims and a bounded prefix of its bytes; see
// Attribute::Hash). Nodes that share a hash are compared exactly before
// merging, so a collision costs a comparison, never a wrong merge.
size_t StructuralHash(const Node* node) {
  uint64_t h = HashMix(0, static_cast<uint64_t>(node->kind()));
  for (const Value* v : node->operands()) {
    h = HashMix(h, static_cast<uint64_t>(v->id()));
  }
  for (const auto& [key, value] : node->attrs()) {
    h = HashMix(h, std::hash<std::string>()(key));
    h = HashMix(h, value.Hash());
  }
  return h;
}

bool AttrsEqual(const Node* a, const Node* b) {
  if (a->attrs().size() != b->attrs().size()) return false;
  auto it_a = a->attrs().begin();
  auto it_b = b->attrs().begin();
  for (; it_a != a->attrs().end(); ++it_a, ++it_b) {
    if (it_a->first != it_b->first || !(it_a->second == it_b->second)) {
      return false;
    }
  }
  return true;
}

class CsePass : public Pass {
 public:
  const char* name() const override { return "cse"; }

  Result<bool> Run(Graph* graph, const PassContext& ctx) override {
    (void)ctx;
    bool changed = false;
    std::unordered_map<size_t, std::vector<Node*>> seen;
    for (Node* node : graph->TopologicalOrder()) {
      if (node->outputs().size() != 1) continue;
      auto& candidates = seen[StructuralHash(node)];
      Node* match = nullptr;
      for (Node* candidate : candidates) {
        if (candidate->kind() == node->kind() &&
            candidate->operands() == node->operands() &&
            AttrsEqual(candidate, node)) {
          match = candidate;
          break;
        }
      }
      if (match != nullptr) {
        graph->ReplaceAllUsesWith(node->output(0), match->output(0));
        changed = true;
      } else {
        candidates.push_back(node);
      }
    }
    if (changed) graph->RemoveDeadNodes();
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> CreateCsePass() { return std::make_unique<CsePass>(); }

}  // namespace disc
