//===- tests/compiler/memplan_test.cpp ------------------------*- C++ -*-===//
///
/// Unit tests for the liveness-driven memory planner (compiler/memplan.h):
/// interval arithmetic edge cases, alias subsumption, classification,
/// lazy-zero scheduling, plan soundness (no overlapping-lifetime byte
/// sharing), forward-only programs, and the measured arena-vs-eager
/// savings on the shipped models. The savings thresholds are deterministic
/// (the plan depends only on the program, not the machine) and assert the
/// measured values with margin — see EXPERIMENTS.md for why the fused
/// points fold less than the unfused ones.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"
#include "compiler/memplan.h"
#include "engine/executor.h"
#include "models/models.h"
#include "verify/lattice.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::compiler;

namespace {

Program compileModel(const models::ModelSpec &Spec, int64_t Batch,
                     const CompileOptions &Opts, bool WithLoss = true) {
  core::Net Net(Batch);
  models::buildLatte(Net, Spec, WithLoss);
  return compile(Net, Opts);
}

BufferLifetime life(int64_t Bytes, int64_t Offset, int Begin, int End) {
  BufferLifetime L;
  L.Bytes = Bytes;
  L.Offset = Offset;
  L.LiveBegin = Begin;
  L.LiveEnd = End;
  return L;
}

} // namespace

TEST(MemPlanIntervalTest, LifetimeIntersectionIsInclusive) {
  BufferLifetime A = life(4, 0, 0, 3);
  BufferLifetime B = life(4, 0, 3, 5); // touches A at unit 3
  BufferLifetime C = life(4, 0, 4, 5); // starts after A ends
  EXPECT_TRUE(A.overlapsLifetime(B));
  EXPECT_TRUE(B.overlapsLifetime(A));
  EXPECT_FALSE(A.overlapsLifetime(C));
  EXPECT_FALSE(C.overlapsLifetime(A));
  // Single-unit interval intersects itself.
  BufferLifetime D = life(4, 0, 2, 2);
  EXPECT_TRUE(D.overlapsLifetime(D));
}

TEST(MemPlanIntervalTest, ZeroSizeBuffersNeverOverlapBytes) {
  BufferLifetime A = life(0, 0, 0, 9);
  BufferLifetime B = life(64, 0, 0, 9);
  EXPECT_FALSE(A.overlapsBytes(B));
  EXPECT_FALSE(B.overlapsBytes(A));
  EXPECT_FALSE(A.overlapsBytes(A));
  BufferLifetime C = life(64, 32, 0, 9); // [32,96) vs B's [0,64)
  EXPECT_TRUE(B.overlapsBytes(C));
  BufferLifetime D = life(64, 64, 0, 9); // adjacent, no overlap
  EXPECT_FALSE(B.overlapsBytes(D));
}

TEST(MemPlanTest, PlanIsValidSoundAndDeterministic) {
  Program P = compileModel(models::lenet(), 2, {});
  const MemoryPlan &Plan = P.Plan;
  ASSERT_TRUE(Plan.Valid);
  EXPECT_GT(Plan.ArenaBytes, 0);
  EXPECT_GT(Plan.EagerBytes, 0);

  for (const BufferLifetime &L : Plan.Lifetimes) {
    if (L.Bytes == 0)
      continue;
    EXPECT_EQ(L.Offset % Plan.Alignment, 0) << L.Name;
    EXPECT_LE(L.Offset + L.Bytes, Plan.ArenaBytes) << L.Name;
    EXPECT_LE(L.LiveBegin, L.LiveEnd) << L.Name;
    // Soundness: no two simultaneously-live roots may share bytes.
    for (const BufferLifetime &M : Plan.Lifetimes) {
      if (&L == &M)
        continue;
      EXPECT_FALSE(L.overlapsLifetime(M) && L.overlapsBytes(M))
          << L.Name << " vs " << M.Name;
    }
  }

  // Planning is a pure function of the program.
  MemoryPlan Replanned = planMemory(P);
  EXPECT_EQ(Plan.str(), Replanned.str());
}

TEST(MemPlanTest, AliasMembersShareTheRootPlacement) {
  Program P = compileModel(models::vggFirstThreeLayers(0.25), 2, {});
  ASSERT_TRUE(P.Plan.Valid);
  int Aliases = 0;
  for (const BufferInfo &B : P.Buffers) {
    if (B.AliasOf.empty())
      continue;
    ++Aliases;
    const BufferInfo *Root = P.resolveAlias(B.Name);
    ASSERT_NE(Root, nullptr) << B.Name;
    EXPECT_TRUE(Root->AliasOf.empty()) << B.Name;
    // Only roots get offsets; members resolve through the root's entry.
    EXPECT_EQ(P.Plan.Offsets.count(B.Name), 0u) << B.Name;
    EXPECT_EQ(P.Plan.Offsets.count(Root->Name), 1u) << B.Name;
  }
  ASSERT_GT(Aliases, 0) << "expected the 1:1 connections to alias";

  // Alias-of-alias chains resolve transitively to the same root.
  BufferInfo Chained;
  const BufferInfo *FirstAlias = nullptr;
  for (const BufferInfo &B : P.Buffers)
    if (!B.AliasOf.empty()) {
      FirstAlias = &B;
      break;
    }
  Chained.Name = "test_alias_of_alias";
  Chained.AliasOf = FirstAlias->Name;
  Chained.Dims = FirstAlias->Dims;
  P.Buffers.push_back(Chained);
  const BufferInfo *Root = P.resolveAlias("test_alias_of_alias");
  ASSERT_NE(Root, nullptr);
  EXPECT_TRUE(Root->AliasOf.empty());
  EXPECT_EQ(Root, P.resolveAlias(FirstAlias->Name));
}

TEST(MemPlanTest, ForwardOnlyRunKeepsValuesReadable) {
  // Inference-style use: no loss ensemble, only forward() is ever run.
  // (The compiler still synthesizes a backward program; the plan covers
  // both, and value roots stay retained either way.)
  Program P = compileModel(models::mlp(16, {32, 16}, 4), 2, {},
                           /*WithLoss=*/false);
  ASSERT_TRUE(P.Plan.Valid);
  EXPECT_GT(P.Plan.NumForwardUnits, 0);

  engine::Executor Ex(std::move(P));
  Ex.initParams(1);
  Tensor In(Shape{2, 16});
  Rng R(7);
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Ex.forward();
  // Value roots are retained, so the output stays readable.
  Tensor Out = Ex.readBuffer("classifier_value");
  EXPECT_EQ(Out.numElements(), 2 * 4);
}

TEST(MemPlanTest, ClassificationAndRetainedAtExit) {
  Program P = compileModel(models::vggFirstThreeLayers(0.25), 2, {});
  const MemoryPlan &Plan = P.Plan;
  ASSERT_TRUE(Plan.Valid);
  int Pinned = 0, Retained = 0, Interval = 0;
  for (const BufferLifetime &L : Plan.Lifetimes) {
    if (L.Pinned)
      ++Pinned;
    else if (L.Retained)
      ++Retained;
    else
      ++Interval;
    if (L.Pinned || L.Retained) {
      // Whole-timeline allocation (replay safety) and exit visibility.
      EXPECT_EQ(L.LiveBegin, 0) << L.Name;
      EXPECT_TRUE(Plan.retainedAtExit(L.Name)) << L.Name;
    }
  }
  // The three classes all occur on a conv/pool net with loss.
  EXPECT_GT(Pinned, 0);
  EXPECT_GT(Retained, 0);
  EXPECT_GT(Interval, 0);

  // Params pinned; param gradients retained for the solver.
  const BufferLifetime *W = Plan.lifetime("conv1_1_weights");
  ASSERT_NE(W, nullptr);
  EXPECT_TRUE(W->Pinned);
  const BufferLifetime *G = Plan.lifetime("conv1_1_grad_weights");
  ASSERT_NE(G, nullptr);
  EXPECT_TRUE(G->Retained);
}

TEST(MemPlanTest, LazyZeroScheduleTargetsIntervalFirstRefs) {
  Program P = compileModel(models::vggFirstThreeLayers(0.25), 2, {});
  const MemoryPlan &Plan = P.Plan;
  ASSERT_TRUE(Plan.Valid);
  int Total = Plan.NumForwardUnits + Plan.NumBackwardUnits;
  for (const auto &Entry : Plan.ZeroBefore) {
    EXPECT_GE(Entry.first, 0);
    EXPECT_LT(Entry.first, Total);
    for (const std::string &Root : Entry.second) {
      const BufferLifetime *L = Plan.lifetime(Root);
      ASSERT_NE(L, nullptr) << Root;
      EXPECT_FALSE(L->Pinned) << Root;
      EXPECT_FALSE(L->Retained) << Root;
      EXPECT_EQ(L->FirstRef, Entry.first) << Root;
    }
  }
}

// Measured savings (deterministic): the unfused point folds the staggered
// per-layer backward buffers; the fully fused point keeps each chain's
// buffers alive together inside one batch loop, so it folds less (that is
// the fusion-vs-memory trade-off, not a planner defect).
TEST(MemPlanTest, UnfusedVgg3ArenaSavesAtLeast9Percent) {
  // The fig13 ablation's "no cross-layer optimizations" point (pattern
  // matching on, tiling/fusion off); measured 10.3% at scale 1.0.
  CompileOptions NoFuse;
  NoFuse.Tiling = false;
  NoFuse.Fusion = false;
  Program P = compileModel(models::vggFirstThreeLayers(1.0), 2, NoFuse);
  ASSERT_TRUE(P.Plan.Valid);
  double Saved = 1.0 - double(P.Plan.ArenaBytes) / double(P.Plan.EagerBytes);
  EXPECT_GE(Saved, 0.09) << P.Plan.str();
}

TEST(MemPlanTest, InterpretedVgg3ArenaSavesAtLeast15Percent) {
  // Mask 0 (fully interpreted): the gather/scatter scratch buffers the
  // pattern matchers would have eliminated are all pass-local intervals,
  // so this point folds the most; measured 19.3% at scale 1.0.
  Program P = compileModel(models::vggFirstThreeLayers(1.0), 2,
                           verify::optionsForMask(0));
  ASSERT_TRUE(P.Plan.Valid);
  double Saved = 1.0 - double(P.Plan.ArenaBytes) / double(P.Plan.EagerBytes);
  EXPECT_GE(Saved, 0.15) << P.Plan.str();
}

TEST(MemPlanTest, FusedVgg16ArenaSavesAtLeast6Percent) {
  Program P = compileModel(models::vgg16(0.25), 2, {});
  ASSERT_TRUE(P.Plan.Valid);
  double Saved = 1.0 - double(P.Plan.ArenaBytes) / double(P.Plan.EagerBytes);
  EXPECT_GE(Saved, 0.06) << P.Plan.str();
}

TEST(MemPlanTest, ArenaNeverExceedsEagerPlusAlignmentSlack) {
  using verify::kFusionMask, verify::kParallelizeMask, verify::kTilingMask;
  const unsigned Matched = verify::kGemmMask | verify::kKernelsMask;
  for (unsigned Mask :
       {0u, Matched | kTilingMask | kFusionMask, Matched | kParallelizeMask,
        Matched | kTilingMask | kFusionMask | kParallelizeMask}) {
    CompileOptions Opts = verify::optionsForMask(Mask);
    for (const models::ModelSpec &Spec :
         {models::lenet(), models::mlp(16, {32}, 4),
          models::vggFirstThreeLayers(0.25)}) {
      Program P = compileModel(Spec, 2, Opts);
      ASSERT_TRUE(P.Plan.Valid);
      int64_t Slack =
          int64_t(P.Plan.Lifetimes.size() + 1) * P.Plan.Alignment;
      EXPECT_LE(P.Plan.ArenaBytes, P.Plan.EagerBytes + Slack)
          << Spec.Name << " mask " << Mask;
    }
  }
}
