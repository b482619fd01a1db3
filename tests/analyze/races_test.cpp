//===- tests/analyze/races_test.cpp ---------------------------*- C++ -*-===//
///
/// Unit tests for the static race detector: write-write and read-write
/// conflicts across iterations of the parallel batch/tile space (a
/// cross-iteration `+=` included, in backward as in forward),
/// conservative-footprint downgrades to Warning, and the bound-region
/// refinement that keeps clipped padded windows from reporting false
/// cross-item conflicts.
///
//===----------------------------------------------------------------------===//

#include "analyze/races.h"

#include "analyze/effects.h"
#include "analyze/verifier.h"
#include "ir/builder.h"
#include "support/casting.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::analyze;
using namespace latte::compiler;
using namespace latte::ir;

namespace {

StmtPtr blockOf(StmtPtr S) {
  std::vector<StmtPtr> V;
  V.push_back(std::move(S));
  return block(std::move(V));
}

Program makeProg() {
  Program P;
  P.BatchSize = 4;
  BufferInfo A;
  A.Name = "a";
  A.Dims = Shape{8};
  A.Role = BufferRole::Value;
  P.Buffers.push_back(std::move(A));
  return P;
}

/// Collects effects of \p Body under `parallel for n in 0:4` and runs the
/// race detector over them.
DiagnosticReport racesOf(StmtPtr Body) {
  Program P = makeProg();
  BufferTable Bufs(P);
  StmtPtr Loop = forLoop("n", 4, std::move(Body));
  cast<ForStmt>(Loop.get())->annotations().Parallel = true;
  UnitEffects UE = collectUnitEffects(Loop.get(), Bufs, nullptr);
  DiagnosticReport R;
  detectRaces(UE, "batch[test]", R);
  return R;
}

} // namespace

TEST(RaceTest, DisjointPerIterationWritesAreClean) {
  DiagnosticReport R =
      racesOf(storeAssign("a", indexList(var("n")), floatConst(1.0)));
  EXPECT_TRUE(R.empty()) << R.render();
}

TEST(RaceTest, SharedElementWriteIsWriteWriteError) {
  DiagnosticReport R =
      racesOf(storeAssign("a", indexList(intConst(0)), floatConst(1.0)));
  EXPECT_TRUE(R.hasCode("race.write-write")) << R.render();
  EXPECT_EQ(R.errors(), 1);
}

TEST(RaceTest, CrossIterationReadIsReadWriteError) {
  // a[n] = a[0]: iteration 0 writes the element every other iteration
  // reads.
  DiagnosticReport R = racesOf(
      storeAssign("a", indexList(var("n")),
                  load("a", indexList(intConst(0)))));
  EXPECT_TRUE(R.hasCode("race.read-write")) << R.render();
}

TEST(RaceTest, StridedWritesWithDisjointFootprintsAreClean) {
  // a[2*n] with n in [0,4): elements {0,2,4,6}, pairwise distinct.
  DiagnosticReport R = racesOf(storeAssign(
      "a", indexList(mul(var("n"), intConst(2))), floatConst(0.0)));
  EXPECT_TRUE(R.empty()) << R.render();
}

TEST(RaceTest, AccumulationInBackwardIsWriteWriteError) {
  // Every iteration does `a[0] +=` in a parallel backward loop. The engine
  // runs backward loops in parallel, so this is a race like any other —
  // whether the loop is the whole unit or one of the sibling loops of a
  // gradient-partitioned unit (compiler/gradpart.h).
  auto RacyLoop = [] {
    StmtPtr Loop = forLoop(
        "n", 4, storeAdd("a", indexList(intConst(0)), floatConst(1.0)));
    cast<ForStmt>(Loop.get())->annotations().Parallel = true;
    return Loop;
  };
  Program P = makeProg();
  std::vector<StmtPtr> Units;
  Units.push_back(RacyLoop());
  std::vector<StmtPtr> Siblings;
  StmtPtr Clean = forLoop(
      "n", 4, storeAssign("a", indexList(var("n")), floatConst(1.0)));
  cast<ForStmt>(Clean.get())->annotations().Parallel = true;
  Siblings.push_back(std::move(Clean));
  Siblings.push_back(RacyLoop());
  Units.push_back(block(std::move(Siblings)));
  P.Backward = block(std::move(Units));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("race.write-write")) << R.render();
  EXPECT_EQ(R.errors(), 2) << R.render();
}

TEST(RaceTest, AccumulationInForwardIsStillAnError) {
  StmtPtr Body = storeAdd("a", indexList(intConst(0)), floatConst(1.0));
  DiagnosticReport R = racesOf(std::move(Body));
  EXPECT_TRUE(R.hasCode("race.write-write")) << R.render();
}

TEST(RaceTest, SequentialUnitNeverRaces) {
  // No parallel annotation: no dims, no conflicts.
  Program P = makeProg();
  BufferTable Bufs(P);
  StmtPtr Loop = forLoop(
      "n", 4, storeAssign("a", indexList(intConst(0)), floatConst(1.0)));
  UnitEffects UE = collectUnitEffects(Loop.get(), Bufs, nullptr);
  EXPECT_TRUE(UE.Dims.empty());
  DiagnosticReport R;
  detectRaces(UE, "seq", R);
  EXPECT_TRUE(R.empty()) << R.render();
}

TEST(RaceTest, InexactOverlapDowngradesToWarning) {
  // Hand-built effects: two per-iteration slices whose conservative
  // (inexact) footprints overlap across iterations. Cannot be proven
  // either way -> Warning, not Error.
  UnitEffects UE;
  UE.Dims.push_back({"n", 0, 2});
  Access W;
  W.Write = true;
  W.Fp.Base.Coeffs["n"] = 4;
  W.Fp.Width = 6; // overhangs into the neighbor's slice
  W.Fp.Exact = false;
  W.Detail = "writer";
  UE.Effects.add("a", W);
  DiagnosticReport R;
  detectRaces(UE, "approx", R);
  EXPECT_TRUE(R.hasCode("race.possible")) << R.render();
  EXPECT_EQ(R.errors(), 0);
}

TEST(RaceTest, BoundRegionSuppressesFalseWindowConflict) {
  // The padded-window shape: an inexact read overhangs the per-iteration
  // slice, but its bound region is exactly the slice. Without the bound
  // the footprints overlap across iterations; with it the conflict is
  // refuted.
  UnitEffects UE;
  UE.Dims.push_back({"n", 0, 2});
  Access W;
  W.Write = true;
  W.Fp.Base.Coeffs["n"] = 16;
  W.Fp.Width = 16;
  W.Detail = "producer";
  UE.Effects.add("a", W);
  Access Rd;
  Rd.Read = true;
  Rd.Fp.Base.Coeffs["n"] = 16;
  Rd.Fp.Base.Const = -2; // window model reaches before the slice
  Rd.Fp.Width = 20;
  Rd.Fp.Exact = false;
  Rd.HasBound = true;
  Rd.Bound.Base.Coeffs["n"] = 16;
  Rd.Bound.Width = 16; // runtime clipping keeps it inside the slice
  Rd.Detail = "padded reader";
  UE.Effects.add("a", Rd);
  DiagnosticReport R;
  detectRaces(UE, "bounded", R);
  EXPECT_TRUE(R.empty()) << R.render();

  // Same effects minus the bound: reported as a possible race.
  UE.Effects.Buffers["a"][1].HasBound = false;
  DiagnosticReport R2;
  detectRaces(UE, "unbounded", R2);
  EXPECT_TRUE(R2.hasCode("race.possible")) << R2.render();
}

TEST(RaceTest, CollapsedTileDimensionParticipates) {
  // parallel for n collapse(2) over a tiled loop: both n and the tile
  // variable are race dimensions; writes disjoint in (n, t) are clean,
  // writes that ignore t collide across tiles.
  Program P;
  P.BatchSize = 2;
  BufferInfo B;
  B.Name = "a";
  B.Dims = Shape{2, 4};
  P.Buffers.push_back(std::move(B));
  BufferTable Bufs(P);

  auto MakeUnit = [&](bool UseTileVar) {
    ExprPtr Col = UseTileVar ? ExprPtr(var("t0")) : ExprPtr(intConst(0));
    auto Tiled = std::make_unique<TiledLoopStmt>(
        "t0", "y", 4, 1, 1,
        blockOf(storeAssign("a", indexList(var("n"), std::move(Col)),
                            floatConst(0.0))));
    Tiled->annotations().Parallel = true;
    auto Loop = std::make_unique<ForStmt>("n", intConst(0), 2,
                                          blockOf(std::move(Tiled)));
    Loop->annotations().Parallel = true;
    Loop->annotations().Collapse = 2;
    return StmtPtr(std::move(Loop));
  };

  StmtPtr Clean = MakeUnit(/*UseTileVar=*/true);
  UnitEffects UE = collectUnitEffects(Clean.get(), Bufs, nullptr);
  EXPECT_TRUE(UE.Collapsed);
  ASSERT_EQ(UE.Dims.size(), 2u);
  DiagnosticReport R;
  detectRaces(UE, "collapsed", R);
  EXPECT_TRUE(R.empty()) << R.render();

  StmtPtr Racy = MakeUnit(/*UseTileVar=*/false);
  UnitEffects UE2 = collectUnitEffects(Racy.get(), Bufs, nullptr);
  DiagnosticReport R2;
  detectRaces(UE2, "collapsed-racy", R2);
  EXPECT_TRUE(R2.hasCode("race.write-write")) << R2.render();
}
