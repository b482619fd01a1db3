//===- tests/analyze/effects_test.cpp -------------------------*- C++ -*-===//
///
/// Unit tests for the buffer-effect analysis: affine index extraction,
/// footprint canonicalization, per-unit effect collection over stores,
/// loads, and kernel calls, and the conservative widening rules
/// (index-table accesses, padded window kernels and their guaranteed
/// bound regions).
///
//===----------------------------------------------------------------------===//

#include "analyze/effects.h"

#include "ir/builder.h"
#include "jit/jit_abi.h"
#include "support/casting.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::analyze;
using namespace latte::compiler;
using namespace latte::ir;

namespace {

BufferInfo makeBuffer(std::string Name, Shape Dims,
                      BufferRole Role = BufferRole::Value) {
  BufferInfo B;
  B.Name = std::move(Name);
  B.Dims = std::move(Dims);
  B.Role = Role;
  return B;
}

/// Program with one 4x8 value buffer "out" and an 8-element "vec".
Program makeProg() {
  Program P;
  P.BatchSize = 4;
  P.Buffers.push_back(makeBuffer("out", Shape{4, 8}));
  P.Buffers.push_back(makeBuffer("vec", Shape{8}));
  return P;
}

const Access &soleAccess(const UnitEffects &UE, const std::string &Buf) {
  auto It = UE.Effects.Buffers.find(Buf);
  EXPECT_NE(It, UE.Effects.Buffers.end()) << "no accesses on " << Buf;
  EXPECT_EQ(It->second.size(), 1u);
  return It->second.front();
}

} // namespace

TEST(AffineExprTest, ExtractsLinearForms) {
  // 8*n + 3
  ExprPtr E = add(mul(var("n"), intConst(8)), intConst(3));
  AffineExpr A = affineOf(E.get());
  ASSERT_TRUE(A.Affine);
  EXPECT_EQ(A.coeff("n"), 8);
  EXPECT_EQ(A.Const, 3);
  EXPECT_EQ(A.str(), "8*n + 3");

  // (n - n) collapses to the constant 0.
  ExprPtr Z = sub(var("n"), var("n"));
  AffineExpr AZ = affineOf(Z.get());
  EXPECT_TRUE(AZ.isConstant());
  EXPECT_EQ(AZ.Const, 0);
}

TEST(AffineExprTest, NonAffineIsFlagged) {
  ExprPtr E = mul(var("a"), var("b"));
  EXPECT_FALSE(affineOf(E.get()).Affine);
  ExprPtr D = div(var("a"), intConst(2));
  EXPECT_FALSE(affineOf(D.get()).Affine);
}

TEST(FootprintTest, CanonicalizeCoalescesContiguousLevels) {
  Footprint Fp;
  Fp.Width = 4;
  Fp.Levels = {{8, 100}, {8, 4}}; // inner level is contiguous with width
  Fp.canonicalize();
  ASSERT_EQ(Fp.Levels.size(), 1u);
  EXPECT_EQ(Fp.Levels[0].Stride, 100);
  EXPECT_EQ(Fp.Width, 4 * 7 + 4); // 8 steps of 4 starting inside [0,4)
  EXPECT_EQ(Fp.spanEnd(), 100 * 7 + 32);
}

TEST(FootprintTest, CanonicalizeDropsDegenerateLevels) {
  Footprint Fp;
  Fp.Levels = {{1, 100}, {5, 0}, {3, 10}};
  Fp.canonicalize();
  ASSERT_EQ(Fp.Levels.size(), 1u);
  EXPECT_EQ(Fp.Levels[0].Extent, 3);
}

TEST(EffectsTest, StoreUnderParallelAndSequentialLoops) {
  // parallel for n in 0:4 { for i in 0:8 { out[n, i] = 1.0 } }
  Program P = makeProg();
  BufferTable Bufs(P);
  StmtPtr Loop = forLoop(
      "n", 4,
      forLoop("i", 8,
              storeAssign("out", indexList(var("n"), var("i")),
                          floatConst(1.0))));
  cast<ForStmt>(Loop.get())->annotations().Parallel = true;

  UnitEffects UE = collectUnitEffects(Loop.get(), Bufs, nullptr);
  ASSERT_EQ(UE.Dims.size(), 1u);
  EXPECT_EQ(UE.Dims[0].Var, "n");
  EXPECT_EQ(UE.Dims[0].Extent, 4);

  const Access &A = soleAccess(UE, "out");
  EXPECT_TRUE(A.Write);
  EXPECT_FALSE(A.Read);
  EXPECT_TRUE(A.Fp.Exact);
  // The sequential i loop (stride 1, extent 8) coalesces into the width.
  EXPECT_TRUE(A.Fp.Levels.empty());
  EXPECT_EQ(A.Fp.Width, 8);
  EXPECT_EQ(A.Fp.Base.coeff("n"), 8);
}

TEST(EffectsTest, AccumulatingStoreIsReadModifyWrite) {
  Program P = makeProg();
  BufferTable Bufs(P);
  StmtPtr Loop =
      forLoop("n", 4,
              storeAdd("vec", indexList(intConst(0)), floatConst(1.0)));
  cast<ForStmt>(Loop.get())->annotations().Parallel = true;
  UnitEffects UE = collectUnitEffects(Loop.get(), Bufs, nullptr);
  const Access &A = soleAccess(UE, "vec");
  EXPECT_TRUE(A.Write);
  EXPECT_TRUE(A.Read);
  EXPECT_TRUE(A.Accumulating);
  EXPECT_TRUE(A.Fp.Base.isConstant());
}

TEST(EffectsTest, AliasedAccessResolvesToRoot) {
  Program P = makeProg();
  BufferInfo Alias = makeBuffer("view", Shape{4, 8});
  Alias.AliasOf = "out";
  P.Buffers.push_back(std::move(Alias));
  BufferTable Bufs(P);
  ASSERT_NE(Bufs.floatInfo("view"), nullptr);
  EXPECT_EQ(Bufs.floatInfo("view")->Root, "out");

  StmtPtr S = storeAssign("view", indexList(intConst(1), intConst(2)),
                          floatConst(0.0));
  UnitEffects UE = collectUnitEffects(S.get(), Bufs, nullptr);
  // Keyed under the alias root so view/out accesses can race-check.
  EXPECT_EQ(UE.Effects.Buffers.count("out"), 1u);
  EXPECT_EQ(UE.Effects.Buffers.count("view"), 0u);
}

TEST(EffectsTest, NonAffineIndexWidensToWholeBuffer) {
  Program P = makeProg();
  BufferTable Bufs(P);
  // vec[n*n] cannot be summarized.
  StmtPtr Loop = forLoop(
      "n", 4,
      storeAssign("vec", indexList(mul(var("n"), var("n"))),
                  floatConst(0.0)));
  cast<ForStmt>(Loop.get())->annotations().Parallel = true;
  UnitEffects UE = collectUnitEffects(Loop.get(), Bufs, nullptr);
  const Access &A = soleAccess(UE, "vec");
  EXPECT_FALSE(A.Fp.Exact);
  EXPECT_EQ(A.Fp.Width, 8); // whole buffer
}

TEST(EffectsTest, KernelSignaturesMatchRuntimeLayouts) {
  EXPECT_EQ(kernelSignature(KernelKind::Sgemm).NumInts, 9);
  EXPECT_EQ(kernelSignature(KernelKind::Im2ColRows).NumBufs, 2);
  EXPECT_EQ(kernelSignature(KernelKind::Im2ColRows).NumExprs, 1);
  EXPECT_EQ(kernelSignature(KernelKind::Scale).NumFloats, 1);
  EXPECT_EQ(kernelIntBufMask(KernelKind::Gather2D), 1u << 2);
  EXPECT_EQ(kernelIntBufMask(KernelKind::ScatterAdd2D), 1u << 2);
  EXPECT_EQ(kernelIntBufMask(KernelKind::MaxPoolFwdRows), 1u << 2);
  EXPECT_EQ(kernelIntBufMask(KernelKind::MaxPoolBwdRows), 1u << 2);
  EXPECT_EQ(kernelIntBufMask(KernelKind::Sgemm), 0u);
  // Every call kernel.arity accepts fits the resolved-argument arrays the
  // engine and the emitter carry (a wider call is a fatal emitter error).
  for (int K = 0; K <= static_cast<int>(KernelKind::SoftmaxBwd); ++K) {
    const KernelSignature Sig = kernelSignature(static_cast<KernelKind>(K));
    EXPECT_LE(Sig.NumBufs, jit::kMaxKernelBufs) << K;
    EXPECT_LE(Sig.NumExprs, jit::kMaxKernelExprArgs) << K;
  }
}

TEST(EffectsTest, PaddedWindowReadIsInexactButBounded) {
  // Im2ColRows with Pad=1: the affine window model overhangs the image by
  // Pad rows on each side, so the footprint is inexact — but a bound
  // footprint pins the access inside the kernel's own image slice.
  int64_t C = 2, InH = 4, InW = 4, K = 3, S = 1, Pad = 1;
  int64_t OutH = (InH + 2 * Pad - K) / S + 1;
  int64_t OutW = (InW + 2 * Pad - K) / S + 1;
  Program P;
  P.BatchSize = 2;
  P.Buffers.push_back(makeBuffer("img", Shape{2, C, InH, InW}));
  P.Buffers.push_back(
      makeBuffer("col", Shape{2, C * K * K, OutH * OutW},
                 BufferRole::Input));
  BufferTable Bufs(P);

  int64_t Item = C * InH * InW;
  StmtPtr Loop = forLoop(
      "n", 2,
      kernelCall(KernelKind::Im2ColRows,
                 bufArgs(KernelBufArg("col",
                                      mul(var("n"),
                                          intConst(C * K * K * OutH * OutW))),
                         KernelBufArg("img", mul(var("n"), intConst(Item)))),
                 {C, InH, InW, K, S, Pad, OutH}, {},
                 indexList(intConst(0))));
  cast<ForStmt>(Loop.get())->annotations().Parallel = true;
  UnitEffects UE = collectUnitEffects(Loop.get(), Bufs, nullptr);

  const Access &In = soleAccess(UE, "img");
  EXPECT_TRUE(In.Read);
  EXPECT_FALSE(In.Write);
  EXPECT_FALSE(In.Fp.Exact) << "padded windows clip at runtime";
  ASSERT_TRUE(In.HasBound);
  EXPECT_TRUE(In.Bound.Exact);
  EXPECT_EQ(In.Bound.Base.coeff("n"), Item);
  EXPECT_EQ(In.Bound.Width, Item);

  const Access &Out = soleAccess(UE, "col");
  EXPECT_TRUE(Out.Write);
  EXPECT_TRUE(Out.Fp.Exact);
}

TEST(EffectsTest, DumpEffectsIsDeterministicText) {
  Program P = makeProg();
  BufferTable Bufs(P);
  StmtPtr S = storeAdd("vec", indexList(intConst(3)), floatConst(1.0));
  UnitEffects UE = collectUnitEffects(S.get(), Bufs, nullptr);
  std::string Dump = dumpEffects(UE.Effects);
  EXPECT_NE(Dump.find("vec"), std::string::npos);
  EXPECT_NE(Dump.find("accum"), std::string::npos);
  EXPECT_EQ(Dump, dumpEffects(UE.Effects));
}
