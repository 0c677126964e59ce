#include "runtime/memory_plan.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <sstream>
#include <unordered_set>

#include "support/json.h"
#include "support/string_util.h"

namespace disc {
namespace {

// Rounds a symbolic byte size up to the arena alignment. When divisor
// facts already prove divisibility the expression is kept as-is, which
// lets exact-match reuse and ProvablyLe fire without reasoning about the
// ceildiv wrapper.
DimExpr AlignedSize(const DimExpr& bytes, const SymbolicDimManager& manager) {
  DimExpr e = manager.Canonicalize(bytes);
  if (manager.IsDivisibleBy(e, kArenaAlignment)) return e;
  return manager.Canonicalize(
      DimExpr::Mul(DimExpr::Const(kArenaAlignment),
                   DimExpr::CeilDiv(e, DimExpr::Const(kArenaAlignment))));
}

// The distinct aligned sizes of one PlanArenaItems call, by dense id.
// Each distinct byte-size expression is aligned once, and IsDimEqual and
// ProvablyLe are memoized per pair of ids. Every slot size is one of these
// sizes: a slot is created at, or widened to, an item's aligned size.
class SizeTable {
 public:
  explicit SizeTable(const SymbolicDimManager& manager) : manager_(manager) {}

  int Aligned(const DimExpr& bytes) {
    auto [it, inserted] = aligned_of_.try_emplace(bytes.ToString(), -1);
    if (inserted) {
      DimExpr aligned = AlignedSize(bytes, manager_);
      auto [id, added] = id_of_.try_emplace(aligned.ToString(),
                                            static_cast<int>(sizes_.size()));
      if (added) sizes_.push_back(std::move(aligned));
      it->second = id->second;
    }
    return it->second;
  }

  const DimExpr& size(int id) const { return sizes_[id]; }

  bool Equal(int a, int b) {
    return Memo(&equal_, a, b, [this](const DimExpr& x, const DimExpr& y) {
      return manager_.IsDimEqual(x, y);
    });
  }
  bool Le(int a, int b) {
    return Memo(&le_, a, b, [this](const DimExpr& x, const DimExpr& y) {
      return manager_.ProvablyLe(x, y);
    });
  }

 private:
  template <typename Query>
  bool Memo(std::unordered_map<uint64_t, bool>* memo, int a, int b,
            const Query& query) {
    uint64_t key = (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
    auto [it, inserted] = memo->try_emplace(key, false);
    if (inserted) it->second = query(sizes_[a], sizes_[b]);
    return it->second;
  }

  const SymbolicDimManager& manager_;
  std::vector<DimExpr> sizes_;
  std::unordered_map<std::string, int> aligned_of_;  // bytes key -> id
  std::unordered_map<std::string, int> id_of_;       // aligned key -> id
  std::unordered_map<uint64_t, bool> equal_, le_;
};

}  // namespace

ArenaLayout PlanArenaItems(const std::vector<ArenaItem>& items,
                           const SymbolicDimManager& manager) {
  ArenaLayout layout;
  layout.slot_of.assign(items.size(), -1);
  layout.peak_bytes = DimExpr::Const(0);

  struct SlotState {
    int size = -1;  // SizeTable id
    bool busy = false;
  };
  std::vector<SlotState> slots;
  SizeTable sizes(manager);

  // Place items in definition order; a slot frees up strictly after its
  // occupant's last use step, so expiries release before any def at a
  // later step (a step's inputs stay live while its outputs are written).
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return items[a].def_step < items[b].def_step;
  });
  using Expiry = std::pair<int, int>;  // (last_use_step, slot)
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>
      expiries;

  for (size_t idx : order) {
    const ArenaItem& item = items[idx];
    while (!expiries.empty() && expiries.top().first < item.def_step) {
      slots[expiries.top().second].busy = false;
      expiries.pop();
    }
    const int need = sizes.Aligned(item.bytes);
    // Candidate slots: exact size match beats the smallest provable fit,
    // which beats widening the largest provably-smaller slot.
    int exact = -1, fit = -1, widen = -1;
    bool had_free = false;
    for (int i = 0; i < static_cast<int>(slots.size()); ++i) {
      if (slots[i].busy) continue;
      had_free = true;
      if (sizes.Equal(need, slots[i].size)) {
        exact = i;
        break;
      }
      if (sizes.Le(need, slots[i].size)) {
        if (fit < 0 || sizes.Le(slots[i].size, slots[fit].size)) fit = i;
      } else if (sizes.Le(slots[i].size, need)) {
        if (widen < 0 || sizes.Le(slots[widen].size, slots[i].size)) {
          widen = i;
        }
      }
    }
    int chosen = exact >= 0 ? exact : (fit >= 0 ? fit : widen);
    if (chosen >= 0) {
      ++layout.num_reused;
      if (exact < 0) ++layout.num_cross_size_reuses;
      // Widening is sound: every earlier occupant provably fit the old
      // (smaller) size, which fits the new one.
      if (exact < 0 && fit < 0) slots[chosen].size = need;
    } else {
      chosen = static_cast<int>(slots.size());
      slots.push_back({need, false});
      if (had_free) {
        std::ostringstream reason;
        reason << "incomparable with free slots [";
        bool first = true;
        for (int i = 0; i < static_cast<int>(slots.size()) - 1; ++i) {
          if (slots[i].busy) continue;
          if (!first) reason << ", ";
          first = false;
          reason << "#" << i << ": " << sizes.size(slots[i].size).ToString();
        }
        reason << "]";
        layout.fallbacks.push_back(
            {item.value_id, sizes.size(need).ToString(), reason.str()});
      }
    }
    slots[chosen].busy = true;
    layout.slot_of[idx] = chosen;
    if (!item.pinned) {
      expiries.push({std::max(item.last_use_step, item.def_step), chosen});
    }
  }

  // Finalize the layout: offsets are prefix sums of the (final, possibly
  // widened) slot sizes, so "A fits below B's offset" was reduced to the
  // per-slot size comparisons above; the peak formula is the total.
  DimExpr offset = DimExpr::Const(0);
  layout.slots.reserve(slots.size());
  for (const SlotState& s : slots) {
    const DimExpr& bytes = sizes.size(s.size);
    layout.slots.push_back({bytes, offset});
    offset = manager.Canonicalize(DimExpr::Add(offset, bytes));
  }
  layout.peak_bytes = offset;
  return layout;
}

MemoryPlan PlanArena(const std::vector<PlanStep>& steps,
                     const std::vector<const Value*>& keep_alive,
                     const ShapeAnalysis& analysis) {
  MemoryPlan plan;
  plan.planned = true;
  plan.peak_bytes = DimExpr::Const(0);

  std::unordered_set<const Value*> pinned(keep_alive.begin(),
                                          keep_alive.end());
  std::unordered_map<const Value*, size_t> last_use;
  for (size_t s = 0; s < steps.size(); ++s) {
    for (const Value* v : steps[s].uses) last_use[v] = s;
  }

  auto size_expr = [&](const Value* v) {
    DimExpr numel = analysis.manager().Canonicalize(
        SymShapeNumElements(analysis.GetShape(v)));
    return DimExpr::Mul(numel, DimExpr::Const(DTypeSize(v->dtype())));
  };

  std::vector<const Value*> values;
  std::vector<ArenaItem> items;
  for (size_t s = 0; s < steps.size(); ++s) {
    for (const Value* v : steps[s].defines) {
      ArenaItem item;
      item.bytes = size_expr(v);
      item.def_step = static_cast<int>(s);
      auto lu = last_use.find(v);
      item.last_use_step =
          lu == last_use.end()
              ? static_cast<int>(s)
              : std::max(static_cast<int>(s), static_cast<int>(lu->second));
      item.pinned = pinned.count(v) > 0;
      item.value_id = v->id();
      values.push_back(v);
      items.push_back(std::move(item));
    }
  }

  ArenaLayout layout = PlanArenaItems(items, analysis.manager());
  plan.release_after_step.resize(steps.size());
  for (size_t i = 0; i < values.size(); ++i) {
    plan.slot_of[values[i]] = layout.slot_of[i];
    if (!items[i].pinned) {
      plan.release_after_step[items[i].last_use_step].push_back(values[i]);
    }
  }
  plan.slots = std::move(layout.slots);
  plan.peak_bytes = layout.peak_bytes;
  plan.num_values = static_cast<int64_t>(values.size());
  plan.num_reused = layout.num_reused;
  plan.num_cross_size_reuses = layout.num_cross_size_reuses;
  plan.fallbacks = std::move(layout.fallbacks);
  return plan;
}

std::string MemoryPlan::ToString() const {
  if (!planned) return "MemoryPlan{not planned}";
  return StrFormat(
      "MemoryPlan{%lld values in %lld arena slots, %lld reuses "
      "(%lld cross-size), %lld fallbacks, peak = %s}",
      static_cast<long long>(num_values),
      static_cast<long long>(num_slots()),
      static_cast<long long>(num_reused),
      static_cast<long long>(num_cross_size_reuses),
      static_cast<long long>(fallbacks.size()),
      peak_bytes.valid() ? peak_bytes.ToString().c_str() : "0");
}

std::string MemoryPlan::ToJson() const {
  JsonValue::Object root;
  JsonValue::Object arena;
  arena["alignment"] = JsonValue(kArenaAlignment);
  arena["peak_bytes"] =
      JsonValue(peak_bytes.valid() ? peak_bytes.ToString() : "0");
  arena["num_slots"] = JsonValue(num_slots());
  root["arena"] = JsonValue(std::move(arena));

  JsonValue::Array slot_list;
  for (size_t i = 0; i < slots.size(); ++i) {
    JsonValue::Object s;
    s["id"] = JsonValue(static_cast<int64_t>(i));
    s["bytes"] = JsonValue(slots[i].bytes.ToString());
    s["offset"] = JsonValue(slots[i].offset.ToString());
    slot_list.push_back(JsonValue(std::move(s)));
  }
  root["slots"] = JsonValue(std::move(slot_list));

  std::vector<std::pair<int, int>> by_id;  // (value id, slot)
  by_id.reserve(slot_of.size());
  for (const auto& [v, slot] : slot_of) by_id.push_back({v->id(), slot});
  std::sort(by_id.begin(), by_id.end());
  JsonValue::Array value_list;
  for (const auto& [id, slot] : by_id) {
    JsonValue::Object v;
    v["id"] = JsonValue(static_cast<int64_t>(id));
    v["slot"] = JsonValue(static_cast<int64_t>(slot));
    value_list.push_back(JsonValue(std::move(v)));
  }
  root["values"] = JsonValue(std::move(value_list));

  JsonValue::Array fallback_list;
  for (const ArenaFallback& f : fallbacks) {
    JsonValue::Object o;
    o["value"] = JsonValue(static_cast<int64_t>(f.value_id));
    o["bytes"] = JsonValue(f.bytes);
    o["reason"] = JsonValue(f.reason);
    fallback_list.push_back(JsonValue(std::move(o)));
  }
  root["fallbacks"] = JsonValue(std::move(fallback_list));

  JsonValue::Object stats;
  stats["num_values"] = JsonValue(num_values);
  stats["num_reused"] = JsonValue(num_reused);
  stats["num_cross_size_reuses"] = JsonValue(num_cross_size_reuses);
  stats["num_fallbacks"] = JsonValue(static_cast<int64_t>(fallbacks.size()));
  root["stats"] = JsonValue(std::move(stats));

  return JsonValue(std::move(root)).SerializePretty() + "\n";
}

}  // namespace disc
