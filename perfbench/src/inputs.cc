#include "inputs.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.h"

namespace perfbench {

int SignatureDeck::Next(disc::Rng* rng) {
  if (next_ == cards_.size()) {
    static const int kCopies[kHotSignatures] = {5, 9, 2, 4};
    cards_.clear();
    for (int k = 0; k < kHotSignatures; ++k) {
      cards_.insert(cards_.end(), kCopies[k], k);
    }
    std::shuffle(cards_.begin(), cards_.end(), rng->engine());
    next_ = 0;
  }
  return cards_[next_++];
}

std::vector<disc::ShapeSet> HotSignatures(const std::string& model,
                                          int64_t hidden, disc::Rng* rng) {
  // Per stratum k: a base size plus a seeded jitter in [0, jitter].
  auto draw = [rng](int64_t base, int64_t jitter) {
    return base + rng->UniformInt(0, jitter);
  };
  std::vector<disc::ShapeSet> out;
  for (int k = 0; k < kHotSignatures; ++k) {
    if (model == "mlp") {
      const int64_t b = draw(int64_t{16} << k, int64_t{1} << k);
      out.push_back({{b, hidden}});
    } else if (model == "bert") {
      static const int64_t kBatch[] = {1, 1, 2, 2};
      static const int64_t kSeq[] = {8, 12, 8, 12};
      const int64_t s = draw(kSeq[k], 1);
      out.push_back({{kBatch[k], s, hidden}});
    } else if (model == "seq2seq-step") {
      static const int64_t kBatch[] = {1, 1, 2, 2};
      static const int64_t kKv[] = {16, 32, 24, 40};
      const int64_t t = draw(kKv[k], 2);
      out.push_back({{kBatch[k], 1, hidden},
                     {kBatch[k], t, hidden},
                     {kBatch[k], t, hidden}});
    } else if (model == "crnn") {
      static const int64_t kWidth[] = {32, 48, 64, 96};
      out.push_back({{1, 32, draw(kWidth[k], kWidth[k] / 16), 1}});
    } else if (model == "fastspeech2") {
      // About four frames per phoneme (the length regulator's expansion).
      static const int64_t kPhonemes[] = {4, 5, 6, 8};
      const int64_t p = kPhonemes[k];
      out.push_back({{1, p, hidden}, {draw(4 * p, 2)}});
    } else if (model == "dlrm") {
      const int64_t b = draw(int64_t{24} << k, int64_t{1} << k);
      out.push_back({{b, 13}, {b, 8}});
    } else if (model == "gpt-step-batch") {
      static const int64_t kBatch[] = {1, 2, 4, 8};
      const int64_t b = kBatch[k];
      const int64_t t = 16 * draw(1 + k, 1);
      out.push_back({{b, 1, hidden}, {b, t, hidden}, {b, t, hidden}, {b, t}});
    } else {
      DISC_CHECK(false) << "no hot signatures for model " << model;
    }
  }
  return out;
}

bool OutputsMatch(const std::vector<disc::Tensor>& got,
                  const std::vector<disc::Tensor>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!disc::Tensor::AllClose(got[i], want[i], 1e-3, 1e-4)) return false;
  }
  return true;
}

std::vector<std::pair<std::string, std::vector<int64_t>>> LikelyDimValues(
    const std::vector<std::vector<std::string>>& labels,
    const std::vector<disc::ShapeSet>& signatures) {
  std::vector<std::pair<std::string, std::vector<int64_t>>> hints;
  auto add = [&hints](const std::string& label, int64_t value) {
    for (auto& [name, values] : hints) {
      if (name != label) continue;
      for (int64_t v : values) {
        if (v == value) return;
      }
      values.push_back(value);
      return;
    }
    hints.push_back({label, {value}});
  };
  for (const disc::ShapeSet& shapes : signatures) {
    for (size_t i = 0; i < labels.size() && i < shapes.size(); ++i) {
      for (size_t d = 0; d < labels[i].size() && d < shapes[i].size(); ++d) {
        if (!labels[i][d].empty()) add(labels[i][d], shapes[i][d]);
      }
    }
  }
  return hints;
}

std::vector<Unit> ScheduleUnits(const disc::Graph& graph,
                                const disc::FusionPlan& plan) {
  std::unordered_map<int, int> group_index;
  for (size_t i = 0; i < plan.groups.size(); ++i) {
    group_index[plan.groups[i].id] = static_cast<int>(i);
  }
  // Units in discovery order: a group at its first member.
  std::vector<Unit> pending;
  std::unordered_set<int> seen_groups;
  for (const disc::Node* node : graph.TopologicalOrder()) {
    auto it = plan.group_of.find(node);
    Unit unit;
    if (it != plan.group_of.end()) {
      unit.kind = Unit::Kind::kKernel;
      unit.group = group_index.at(it->second);
      if (!seen_groups.insert(unit.group).second) continue;
    } else {
      unit.node = node;
      if (node->kind() == disc::OpKind::kConstant) {
        unit.kind = Unit::Kind::kConstant;
      } else if (node->op_class() == disc::OpClass::kLibrary) {
        unit.kind = Unit::Kind::kLibrary;
      } else {
        unit.kind = Unit::Kind::kHost;
      }
    }
    pending.push_back(unit);
  }
  // Emit ready units in sweeps until all are placed (the condensation of
  // the fusion groups is acyclic, so every sweep makes progress).
  std::unordered_set<const disc::Value*> available(graph.inputs().begin(),
                                                   graph.inputs().end());
  auto inputs_of = [&plan](const Unit& u) {
    return u.kind == Unit::Kind::kKernel
               ? std::vector<disc::Value*>(plan.groups[u.group].inputs)
               : std::vector<disc::Value*>(u.node->operands().begin(),
                                           u.node->operands().end());
  };
  auto outputs_of = [&plan](const Unit& u) {
    return u.kind == Unit::Kind::kKernel
               ? std::vector<disc::Value*>(plan.groups[u.group].outputs)
               : std::vector<disc::Value*>(u.node->outputs().begin(),
                                           u.node->outputs().end());
  };
  std::vector<Unit> order;
  while (!pending.empty()) {
    std::vector<Unit> blocked;
    for (const Unit& u : pending) {
      bool ready = true;
      for (const disc::Value* v : inputs_of(u)) {
        ready = ready && available.count(v) > 0;
      }
      if (!ready) {
        blocked.push_back(u);
        continue;
      }
      for (const disc::Value* v : outputs_of(u)) available.insert(v);
      order.push_back(u);
    }
    DISC_CHECK(blocked.size() < pending.size()) << "unit schedule is cyclic";
    pending = std::move(blocked);
  }
  return order;
}

std::vector<disc::PlanStep> ArenaSteps(
    const disc::Graph& graph, const disc::FusionPlan& plan,
    const std::vector<Unit>& units,
    std::vector<const disc::Value*>* keep_alive) {
  keep_alive->assign(graph.outputs().begin(), graph.outputs().end());
  std::vector<disc::PlanStep> steps;
  for (const Unit& u : units) {
    disc::PlanStep step;
    switch (u.kind) {
      case Unit::Kind::kKernel:
        step.defines.assign(plan.groups[u.group].outputs.begin(),
                            plan.groups[u.group].outputs.end());
        step.uses.assign(plan.groups[u.group].inputs.begin(),
                         plan.groups[u.group].inputs.end());
        break;
      case Unit::Kind::kLibrary:
        step.defines.assign(u.node->outputs().begin(), u.node->outputs().end());
        step.uses.assign(u.node->operands().begin(), u.node->operands().end());
        break;
      case Unit::Kind::kConstant:
        step.defines.push_back(u.node->output(0));
        keep_alive->push_back(u.node->output(0));
        break;
      case Unit::Kind::kHost:
        step.uses.assign(u.node->operands().begin(), u.node->operands().end());
        break;
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

}  // namespace perfbench
