#include "runtime/memory_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "models/models.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace disc {
namespace {

DimExpr C(int64_t v) { return DimExpr::Const(v); }
DimExpr S(SymbolId id) { return DimExpr::Symbol(id); }

int64_t Eval(const DimExpr& e,
             const std::unordered_map<SymbolId, int64_t>& bindings) {
  Result<int64_t> v = e.Evaluate(bindings);
  EXPECT_TRUE(v.ok()) << e.ToString() << ": " << v.status().ToString();
  return v.ok() ? *v : -1;
}

int64_t AlignUp(int64_t bytes) {
  return CeilDiv(bytes, kArenaAlignment) * kArenaAlignment;
}

TEST(MemoryPlanTest, EmptyScheduleYieldsEmptyLayout) {
  SymbolicDimManager m;
  ArenaLayout layout = PlanArenaItems({}, m);
  EXPECT_TRUE(layout.slots.empty());
  EXPECT_TRUE(layout.peak_bytes.IsConstValue(0));
  EXPECT_EQ(layout.num_reused, 0);
}

TEST(MemoryPlanTest, ExactSizeChainPingPongs) {
  // Ten same-sized values in a chain (each dies when the next is defined):
  // the arena collapses them into ~2 slots.
  SymbolicDimManager m;
  SymbolId b = m.NewSymbol("B");
  std::vector<ArenaItem> items;
  for (int i = 0; i < 10; ++i) {
    items.push_back({DimExpr::Mul(S(b), C(256)), i, i + 1, false, i});
  }
  items.back().last_use_step = 9;
  ArenaLayout layout = PlanArenaItems(items, m);
  EXPECT_LE(layout.slots.size(), 3u);
  EXPECT_GE(layout.num_reused, 7);
  EXPECT_EQ(layout.num_cross_size_reuses, 0);
  EXPECT_TRUE(layout.fallbacks.empty());
}

TEST(MemoryPlanTest, SmallerValueFitsInFreeSlot) {
  // 512*B slot frees, then a 256*B value arrives: provably fits (fit
  // reuse), slot keeps its larger size.
  SymbolicDimManager m;
  SymbolId b = m.NewSymbol("B");
  DimExpr big = DimExpr::Mul(S(b), C(512));
  DimExpr small = DimExpr::Mul(S(b), C(256));
  std::vector<ArenaItem> items = {
      {big, 0, 1, false, 0},
      {small, 2, 3, false, 1},
  };
  ArenaLayout layout = PlanArenaItems(items, m);
  ASSERT_EQ(layout.slots.size(), 1u);
  EXPECT_EQ(layout.slot_of[0], layout.slot_of[1]);
  EXPECT_EQ(layout.num_cross_size_reuses, 1);
  EXPECT_TRUE(layout.slots[0].bytes.Equals(big));
}

TEST(MemoryPlanTest, LargerValueWidensFreeSlot) {
  // Reverse order: the 256*B slot is provably covered by the incoming
  // 512*B value, so the slot widens instead of opening a second slot.
  SymbolicDimManager m;
  SymbolId b = m.NewSymbol("B");
  DimExpr big = DimExpr::Mul(S(b), C(512));
  DimExpr small = DimExpr::Mul(S(b), C(256));
  std::vector<ArenaItem> items = {
      {small, 0, 1, false, 0},
      {big, 2, 3, false, 1},
  };
  ArenaLayout layout = PlanArenaItems(items, m);
  ASSERT_EQ(layout.slots.size(), 1u);
  EXPECT_EQ(layout.num_cross_size_reuses, 1);
  EXPECT_TRUE(layout.slots[0].bytes.Equals(big));
  EXPECT_TRUE(layout.peak_bytes.Equals(big));
}

TEST(MemoryPlanTest, IncomparableSizesFallBackToFreshSlot) {
  // 256*B vs 256*S with no relating facts: neither provably fits the
  // other, so the second value gets its own slot and a fallback record.
  SymbolicDimManager m;
  SymbolId b = m.NewSymbol("B");
  SymbolId s = m.NewSymbol("S");
  std::vector<ArenaItem> items = {
      {DimExpr::Mul(S(b), C(256)), 0, 1, false, 7},
      {DimExpr::Mul(S(s), C(256)), 2, 3, false, 8},
  };
  ArenaLayout layout = PlanArenaItems(items, m);
  EXPECT_EQ(layout.slots.size(), 2u);
  ASSERT_EQ(layout.fallbacks.size(), 1u);
  EXPECT_EQ(layout.fallbacks[0].value_id, 8);
  EXPECT_NE(layout.fallbacks[0].reason.find("incomparable"),
            std::string::npos);
}

TEST(MemoryPlanTest, BoundFactsMakeSizesComparable) {
  // Same sizes as above, but with range facts B <= 8 <= S the planner can
  // discharge 256*B <= 256*S and reuse the slot.
  SymbolicDimManager m;
  SymbolId b = m.NewSymbol("B");
  SymbolId s = m.NewSymbol("S");
  ASSERT_TRUE(m.SetRange(b, 1, 8).ok());
  ASSERT_TRUE(m.SetRange(s, 8, 1024).ok());
  std::vector<ArenaItem> items = {
      {DimExpr::Mul(S(s), C(256)), 0, 1, false, 0},
      {DimExpr::Mul(S(b), C(256)), 2, 3, false, 1},
  };
  ArenaLayout layout = PlanArenaItems(items, m);
  EXPECT_EQ(layout.slots.size(), 1u);
  EXPECT_EQ(layout.num_cross_size_reuses, 1);
  EXPECT_TRUE(layout.fallbacks.empty());
}

TEST(MemoryPlanTest, PinnedItemsNeverShare) {
  // A pinned item (graph output / constant) keeps its slot exclusively,
  // even after its last use.
  SymbolicDimManager m;
  SymbolId b = m.NewSymbol("B");
  DimExpr bytes = DimExpr::Mul(S(b), C(256));
  std::vector<ArenaItem> items = {
      {bytes, 0, 1, true, 0},   // pinned, "dead" after step 1
      {bytes, 2, 3, false, 1},  // same size, disjoint lifetime
  };
  ArenaLayout layout = PlanArenaItems(items, m);
  EXPECT_EQ(layout.slots.size(), 2u);
  EXPECT_NE(layout.slot_of[0], layout.slot_of[1]);
  EXPECT_EQ(layout.num_reused, 0);
}

TEST(MemoryPlanTest, OverlappingLifetimesNeverShare) {
  SymbolicDimManager m;
  SymbolId b = m.NewSymbol("B");
  DimExpr bytes = DimExpr::Mul(S(b), C(256));
  std::vector<ArenaItem> items = {
      {bytes, 0, 2, false, 0},
      {bytes, 1, 3, false, 1},  // overlaps step 1-2
  };
  ArenaLayout layout = PlanArenaItems(items, m);
  EXPECT_NE(layout.slot_of[0], layout.slot_of[1]);
}

TEST(MemoryPlanTest, OffsetsAlignedForEveryBinding) {
  // Slot sizes include a non-divisible expression (B*4 bytes): the aligned
  // slot size must keep offsets at the alignment quantum for any B.
  SymbolicDimManager m;
  SymbolId b = m.NewSymbol("B");
  std::vector<ArenaItem> items = {
      {DimExpr::Mul(S(b), C(4)), 0, 2, false, 0},  // not 256-divisible
      {DimExpr::Mul(S(b), C(1024)), 1, 2, false, 1},
  };
  ArenaLayout layout = PlanArenaItems(items, m);
  for (int64_t value : {1, 3, 17, 63, 128}) {
    std::unordered_map<SymbolId, int64_t> bindings = {{b, value}};
    for (const ArenaSlot& slot : layout.slots) {
      EXPECT_EQ(Eval(slot.bytes, bindings) % kArenaAlignment, 0);
      EXPECT_EQ(Eval(slot.offset, bindings) % kArenaAlignment, 0);
    }
  }
}

// The core soundness property, fuzzed: for random schedules, random size
// expressions and random concrete shape bindings,
//   (a) two simultaneously-live items never overlap in the arena,
//   (b) every item fits inside its slot,
//   (c) the evaluated peak formula covers the simulated high-water mark
//       of live bytes at every step.
TEST(MemoryPlanTest, PropertyRandomSchedulesAreSound) {
  Rng rng(0xa12e7a);
  for (int trial = 0; trial < 40; ++trial) {
    SymbolicDimManager m;
    SymbolId b = m.NewSymbol("B");
    SymbolId s = m.NewSymbol("S");
    ASSERT_TRUE(m.SetRange(b, 1, 64).ok());
    ASSERT_TRUE(m.SetRange(s, 1, 512).ok());
    // A pool mixing constants, comparable and incomparable symbolic sizes,
    // including ceildiv shapes like the attention-mask slot in bert.
    const std::vector<DimExpr> pool = {
        C(1024),
        C(4096),
        DimExpr::Mul(S(b), C(4)),
        DimExpr::Mul(S(b), C(256)),
        DimExpr::Mul(S(b), C(512)),
        DimExpr::Mul(S(s), C(128)),
        DimExpr::Mul(DimExpr::Mul(S(b), S(s)), C(4)),
        DimExpr::Mul(DimExpr::CeilDiv(DimExpr::Mul(S(b), S(s)), C(64)),
                     C(256)),
    };
    const int n = static_cast<int>(rng.UniformInt(2, 24));
    const int num_steps = static_cast<int>(rng.UniformInt(1, 30));
    std::vector<ArenaItem> items;
    for (int i = 0; i < n; ++i) {
      ArenaItem item;
      item.bytes = pool[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
      item.def_step = static_cast<int>(rng.UniformInt(0, num_steps - 1));
      item.last_use_step = static_cast<int>(
          rng.UniformInt(item.def_step, num_steps - 1));
      item.pinned = rng.UniformInt(0, 9) == 0;
      item.value_id = i;
      items.push_back(item);
    }
    ArenaLayout layout = PlanArenaItems(items, m);
    ASSERT_EQ(layout.slot_of.size(), items.size());

    for (int rep = 0; rep < 4; ++rep) {
      std::unordered_map<SymbolId, int64_t> bindings = {
          {b, rng.UniformInt(1, 64)}, {s, rng.UniformInt(1, 512)}};
      const int64_t peak = Eval(layout.peak_bytes, bindings);

      struct Placed {
        int64_t lo, hi;  // [lo, hi) byte range
        int def, last;
      };
      std::vector<Placed> placed;
      for (size_t i = 0; i < items.size(); ++i) {
        const ArenaSlot& slot = layout.slots[layout.slot_of[i]];
        const int64_t offset = Eval(slot.offset, bindings);
        const int64_t slot_bytes = Eval(slot.bytes, bindings);
        const int64_t item_bytes =
            AlignUp(Eval(items[i].bytes, bindings));
        // (b) the item fits inside its slot, and the slot inside the arena.
        EXPECT_LE(item_bytes, slot_bytes)
            << "trial " << trial << " item " << i << " overflows its slot";
        EXPECT_LE(offset + slot_bytes, peak);
        placed.push_back({offset, offset + item_bytes, items[i].def_step,
                          items[i].last_use_step});
      }
      // (a) simultaneously-live items occupy disjoint ranges. Pinned items
      // are live forever.
      for (size_t i = 0; i < placed.size(); ++i) {
        for (size_t j = i + 1; j < placed.size(); ++j) {
          const int last_i = items[i].pinned ? num_steps : placed[i].last;
          const int last_j = items[j].pinned ? num_steps : placed[j].last;
          const bool live_overlap =
              placed[i].def <= last_j && placed[j].def <= last_i;
          const bool byte_overlap =
              placed[i].lo < placed[j].hi && placed[j].lo < placed[i].hi;
          if (live_overlap) {
            EXPECT_FALSE(byte_overlap)
                << "trial " << trial << ": items " << i << " and " << j
                << " live together at overlapping offsets";
          }
        }
      }
      // (c) the peak formula covers the per-step high-water mark.
      for (int step = 0; step < num_steps; ++step) {
        int64_t live_bytes = 0;
        for (size_t i = 0; i < placed.size(); ++i) {
          const int last = items[i].pinned ? num_steps : placed[i].last;
          if (placed[i].def <= step && step <= last) {
            live_bytes += placed[i].hi - placed[i].lo;
          }
        }
        EXPECT_GE(peak, live_bytes)
            << "trial " << trial << " step " << step
            << ": peak formula below simulated live bytes";
      }
    }
  }
}

TEST(MemoryPlanTest, CompiledModelCarriesPlan) {
  ModelConfig config;
  Model bert = BuildBert(config);
  auto exe = DiscCompiler::Compile(*bert.graph, bert.input_dim_labels);
  ASSERT_TRUE(exe.ok());
  const MemoryPlan& plan = (*exe)->memory_plan();
  ASSERT_TRUE(plan.planned);
  EXPECT_GT(plan.num_values, 0);
  EXPECT_GT(plan.num_slots(), 0);
  EXPECT_LT(plan.num_slots(), plan.num_values)
      << "no arena reuse in a transformer graph";
  EXPECT_GT(plan.num_reused, 0);
  EXPECT_TRUE(plan.peak_bytes.valid());
  EXPECT_NE(plan.ToString().find("MemoryPlan{"), std::string::npos);
  const std::string json = plan.ToJson();
  EXPECT_NE(json.find("\"arena\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_bytes\""), std::string::npos);
}

TEST(MemoryPlanTest, ReleaseListsEndEachUnpinnedLiveRange) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 16});
  Value* a = b.Exp(x);
  Value* unread = b.Tanh(x);
  Value* c = b.Abs(a);
  b.Output({c});
  ShapeAnalysis analysis(&g, {{"B", ""}});
  ASSERT_TRUE(analysis.Run().ok());
  // The last step defines nothing and reads `a` (a host step reading a
  // device value), so `a` stays live through it.
  const std::vector<PlanStep> steps = {
      {{a}, {x}}, {{unread}, {x}}, {{c}, {a}}, {{}, {a}}};
  MemoryPlan plan = PlanArena(steps, {c}, analysis);
  using Values = std::vector<const Value*>;
  ASSERT_EQ(plan.release_after_step.size(), steps.size());
  EXPECT_EQ(plan.release_after_step[0], Values{});
  // A value no step reads dies at its own step.
  EXPECT_EQ(plan.release_after_step[1], Values{unread});
  EXPECT_EQ(plan.release_after_step[2], Values{});
  // `c` is pinned (a graph output): never released.
  EXPECT_EQ(plan.release_after_step[3], Values{a});

  MemoryPlan empty = PlanArena({}, {}, analysis);
  EXPECT_EQ(empty.num_values, 0);
  EXPECT_TRUE(empty.release_after_step.empty());
}

// The caching allocator frees each value after the last-use step of the
// arena plan's live ranges, so the values it holds at any moment are live
// together in the arena plan too: the arena must cover its peak.
TEST(MemoryPlanTest, CachingPeakFitsInTheArenaOnEveryTraceShape) {
  ModelConfig config;
  std::vector<Model> models = BuildModelSuite(config);
  models.push_back(BuildGptStepBatch(config));
  RunOptions caching, arena;
  arena.memory_mode = MemoryMode::kArena;
  for (const Model& model : models) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    // Every unpinned value is released exactly once; pinned ones never.
    std::unordered_map<const Value*, int> releases;
    for (const auto& step : (*exe)->memory_plan().release_after_step) {
      for (const Value* v : step) ++releases[v];
    }
    const std::vector<Value*>& outputs = (*exe)->graph().outputs();
    for (const auto& [value, slot] : (*exe)->memory_plan().slot_of) {
      const bool pinned =
          std::count(outputs.begin(), outputs.end(), value) > 0 ||
          value->producer()->kind() == OpKind::kConstant;
      EXPECT_EQ(releases[value], pinned ? 0 : 1)
          << model.name << " value %" << value->id();
    }

    ASSERT_FALSE(model.trace.empty());
    std::vector<ShapeSet> shapes = model.trace;
    shapes.push_back(model.small_shapes);
    for (const ShapeSet& s : shapes) {
      auto c = (*exe)->RunWithShapes(s, caching);
      auto a = (*exe)->RunWithShapes(s, arena);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      EXPECT_LE(c->profile.peak_memory_bytes, a->profile.arena_bytes)
          << model.name << " at " << ShapeSignature(s);
    }
  }
}

}  // namespace
}  // namespace disc
