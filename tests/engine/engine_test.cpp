//===- tests/engine/engine_test.cpp ---------------------------*- C++ -*-===//
///
/// Direct engine tests: hand-built Programs exercising each kernel-call
/// kind, interpreter forms (select, local scalars, min/max accumulation),
/// and the buffer-alias machinery, independent of the compiler front end.
///
//===----------------------------------------------------------------------===//

#include "engine/executor.h"
#include "ir/builder.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace latte;
using namespace latte::compiler;
using namespace latte::engine;
using namespace latte::ir;

namespace {

/// Minimal program scaffold: named float buffers + a forward block.
class ProgramBuilder {
public:
  ProgramBuilder &buffer(const std::string &Name, Shape Dims,
                         std::string AliasOf = "") {
    BufferInfo B;
    B.Name = Name;
    B.Dims = std::move(Dims);
    B.AliasOf = std::move(AliasOf);
    P.Buffers.push_back(std::move(B));
    return *this;
  }
  ProgramBuilder &table(const std::string &Name,
                        std::vector<int32_t> Entries) {
    IntBufferInfo T;
    T.Name = Name;
    T.Count = static_cast<int64_t>(Entries.size());
    T.Entries = std::move(Entries);
    P.IntBuffers.push_back(std::move(T));
    return *this;
  }
  Executor build(StmtPtr Forward) {
    P.BatchSize = 1;
    P.Forward = std::move(Forward);
    P.Backward = block();
    return Executor(std::move(P));
  }

private:
  Program P;
};

StmtPtr seq(std::vector<StmtPtr> Stmts) { return block(std::move(Stmts)); }

} // namespace

TEST(EngineTest, CopyAddScaleKernels) {
  std::vector<StmtPtr> S;
  S.push_back(kernelCall(KernelKind::Copy,
                         bufArgs(KernelBufArg("b"), KernelBufArg("a")),
                         {4}));
  S.push_back(kernelCall(KernelKind::AddTo,
                         bufArgs(KernelBufArg("b"), KernelBufArg("a")),
                         {4}));
  S.push_back(kernelCall(KernelKind::Scale, bufArgs(KernelBufArg("b")), {4},
                         {0.5}));
  ProgramBuilder PB;
  PB.buffer("a", Shape{4}).buffer("b", Shape{4});
  Executor Ex = PB.build(seq(std::move(S)));
  Tensor A(Shape{4});
  for (int I = 0; I < 4; ++I)
    A.at(I) = static_cast<float>(I + 1);
  Ex.writeBuffer("a", A);
  Ex.forward();
  // b = (a + a) * 0.5 == a.
  EXPECT_EQ(Ex.readBuffer("b").firstMismatch(A, 1e-6f), -1);
}

TEST(EngineTest, MulAddToKernel) {
  std::vector<StmtPtr> S;
  S.push_back(kernelCall(
      KernelKind::MulAddTo,
      bufArgs(KernelBufArg("d"), KernelBufArg("a"), KernelBufArg("b")),
      {3}));
  ProgramBuilder PB;
  PB.buffer("a", Shape{3}).buffer("b", Shape{3}).buffer("d", Shape{3});
  Executor Ex = PB.build(seq(std::move(S)));
  Tensor A(Shape{3}), B(Shape{3}), D(Shape{3});
  A.fill(2.0f);
  B.fill(3.0f);
  D.fill(1.0f);
  Ex.writeBuffer("a", A);
  Ex.writeBuffer("b", B);
  Ex.writeBuffer("d", D);
  Ex.forward();
  EXPECT_FLOAT_EQ(Ex.readBuffer("d").at(0), 7.0f);
}

TEST(EngineTest, RowAndColSums) {
  // src is 2x3: rows sums {6, 15}; col sums {5, 7, 9}.
  std::vector<StmtPtr> S;
  S.push_back(kernelCall(KernelKind::RowSumAdd,
                         bufArgs(KernelBufArg("rows"), KernelBufArg("src")),
                         {2, 3}));
  S.push_back(kernelCall(KernelKind::ColSumAdd,
                         bufArgs(KernelBufArg("cols"), KernelBufArg("src")),
                         {2, 3}));
  ProgramBuilder PB;
  PB.buffer("src", Shape{2, 3}).buffer("rows", Shape{2}).buffer("cols",
                                                                Shape{3});
  Executor Ex = PB.build(seq(std::move(S)));
  Tensor Src(Shape{2, 3});
  for (int I = 0; I < 6; ++I)
    Src.at(I) = static_cast<float>(I + 1);
  Ex.writeBuffer("src", Src);
  Ex.forward();
  EXPECT_FLOAT_EQ(Ex.readBuffer("rows").at(0), 6.0f);
  EXPECT_FLOAT_EQ(Ex.readBuffer("rows").at(1), 15.0f);
  EXPECT_FLOAT_EQ(Ex.readBuffer("cols").at(1), 7.0f);
}

TEST(EngineTest, GatherScatterRoundTripThroughTable) {
  // Table reverses a 4-vector; scatter-add sends it back.
  std::vector<StmtPtr> S;
  S.push_back(kernelCall(
      KernelKind::Gather2D,
      bufArgs(KernelBufArg("dst"), KernelBufArg("src"),
              KernelBufArg("tab")),
      {1, 4, 4}, {}, indexList(intConst(0))));
  S.push_back(kernelCall(
      KernelKind::ScatterAdd2D,
      bufArgs(KernelBufArg("back"), KernelBufArg("dst"),
              KernelBufArg("tab")),
      {1, 4, 4}, {}, indexList(intConst(0))));
  ProgramBuilder PB;
  PB.buffer("src", Shape{4}).buffer("dst", Shape{4}).buffer("back",
                                                            Shape{4});
  PB.table("tab", {3, 2, 1, 0});
  Executor Ex = PB.build(seq(std::move(S)));
  Tensor Src(Shape{4});
  for (int I = 0; I < 4; ++I)
    Src.at(I) = static_cast<float>(10 * (I + 1));
  Ex.writeBuffer("src", Src);
  Ex.forward();
  Tensor Dst = Ex.readBuffer("dst");
  EXPECT_FLOAT_EQ(Dst.at(0), 40.0f);
  EXPECT_FLOAT_EQ(Dst.at(3), 10.0f);
  // Scatter through the same permutation restores the original order.
  EXPECT_EQ(Ex.readBuffer("back").firstMismatch(Src, 1e-6f), -1);
}

TEST(EngineTest, InterpreterSelectAndLocals) {
  // for i in 0..4: let m = src[i]; dst[i] = select(m < 0, -m, m)
  std::vector<StmtPtr> Body;
  Body.push_back(decl("m", load("src", indexList(var("i")))));
  Body.push_back(storeAssign(
      "dst", indexList(var("i")),
      select(compare(CompareOpKind::LT, var("m"), floatConst(0.0)),
             neg(var("m")), var("m"))));
  StmtPtr Loop = forLoop("i", 4, block(std::move(Body)));
  ProgramBuilder PB;
  PB.buffer("src", Shape{4}).buffer("dst", Shape{4});
  Executor Ex = PB.build(std::move(Loop));
  Tensor Src(Shape{4});
  Src.at(0) = -2.0f;
  Src.at(1) = 3.0f;
  Src.at(2) = -0.5f;
  Src.at(3) = 0.0f;
  Ex.writeBuffer("src", Src);
  Ex.forward();
  Tensor Dst = Ex.readBuffer("dst");
  EXPECT_FLOAT_EQ(Dst.at(0), 2.0f);
  EXPECT_FLOAT_EQ(Dst.at(1), 3.0f);
  EXPECT_FLOAT_EQ(Dst.at(2), 0.5f);
  EXPECT_FLOAT_EQ(Dst.at(3), 0.0f);
}

TEST(EngineTest, InterpreterMinMaxAccumulation) {
  // dst[0] starts at +inf/-inf and accumulates min/max over src.
  std::vector<StmtPtr> S;
  S.push_back(storeAssign("mx", indexList(intConst(0)), floatConst(-1e30)));
  S.push_back(storeAssign("mn", indexList(intConst(0)), floatConst(1e30)));
  S.push_back(forLoop(
      "i", 5,
      seq([] {
        std::vector<StmtPtr> B;
        B.push_back(store("mx", indexList(intConst(0)),
                          AccumKind::MaxAssign,
                          load("src", indexList(var("i")))));
        B.push_back(store("mn", indexList(intConst(0)),
                          AccumKind::MinAssign,
                          load("src", indexList(var("i")))));
        return B;
      }())));
  ProgramBuilder PB;
  PB.buffer("src", Shape{5}).buffer("mx", Shape{1}).buffer("mn", Shape{1});
  Executor Ex = PB.build(seq(std::move(S)));
  Tensor Src(Shape{5});
  const float V[] = {3, -7, 2, 9, 0};
  for (int I = 0; I < 5; ++I)
    Src.at(I) = V[I];
  Ex.writeBuffer("src", Src);
  Ex.forward();
  EXPECT_FLOAT_EQ(Ex.readBuffer("mx").at(0), 9.0f);
  EXPECT_FLOAT_EQ(Ex.readBuffer("mn").at(0), -7.0f);
}

TEST(EngineTest, AliasChainsResolveToOneStorage) {
  ProgramBuilder PB;
  PB.buffer("owner", Shape{2, 3})
      .buffer("view1", Shape{6}, "owner")
      .buffer("view2", Shape{3, 2}, "view1"); // chain of aliases
  std::vector<StmtPtr> S;
  S.push_back(storeAssign("view2", indexList(intConst(2), intConst(1)),
                          floatConst(42.0)));
  Executor Ex = PB.build(seq(std::move(S)));
  Ex.forward();
  // view2[2,1] is linear element 5 of the shared storage.
  EXPECT_FLOAT_EQ(Ex.readBuffer("owner").at(5), 42.0f);
  EXPECT_FLOAT_EQ(Ex.readBuffer("view1").at(5), 42.0f);
}

TEST(EngineTest, TiledLoopExecutesAllTiles) {
  // tiled loop over 3 tiles of 2 rows: dst[t*2 + r] = t.
  StmtPtr Inner = forLoopFrom(
      "y", mul(var("t"), intConst(2)), 2,
      storeAssign("dst", indexList(var("y")),
                  var("t")));
  auto Tiled =
      std::make_unique<TiledLoopStmt>("t", "y", 3, 2, 1, std::move(Inner));
  ProgramBuilder PB;
  PB.buffer("dst", Shape{6});
  Executor Ex = PB.build(std::move(Tiled));
  Ex.forward();
  Tensor Dst = Ex.readBuffer("dst");
  const float Expect[] = {0, 0, 1, 1, 2, 2};
  for (int I = 0; I < 6; ++I)
    EXPECT_FLOAT_EQ(Dst.at(I), Expect[I]) << I;
}

TEST(EngineDeathTest, SoftmaxLossLabelOutOfRangeIsFatal) {
  // Each loss kernel alone over two rows of three classes, row 1 labelled
  // \p Label. A label outside [0, 3), or NaN, would read past its
  // probability row.
  auto Run = [](KernelKind Kind, float Label) {
    StmtPtr K =
        Kind == KernelKind::SoftmaxLossFwd
            ? kernelCall(Kind,
                         bufArgs(KernelBufArg("prob"), KernelBufArg("src"),
                                 KernelBufArg("label"), KernelBufArg("loss")),
                         {2, 3})
            : kernelCall(Kind,
                         bufArgs(KernelBufArg("grad"), KernelBufArg("prob"),
                                 KernelBufArg("label")),
                         {2, 3}, {0.5});
    ProgramBuilder PB;
    PB.buffer("prob", Shape{2, 3})
        .buffer("src", Shape{2, 3})
        .buffer("grad", Shape{2, 3})
        .buffer("label", Shape{2})
        .buffer("loss", Shape{2});
    Executor Ex = PB.build(std::move(K));
    Tensor Labels(Shape{2});
    Labels.at(1) = Label;
    Ex.writeBuffer("label", Labels);
    Ex.forward();
  };
  for (KernelKind Kind :
       {KernelKind::SoftmaxLossFwd, KernelKind::SoftmaxLossBwd}) {
    Run(Kind, 2.0f); // in range
    for (float Bad : {3.0f, -1.0f, std::nanf("")})
      EXPECT_DEATH(Run(Kind, Bad),
                   "softmax loss: label .* is outside \\[0, 3\\)")
          << kernelKindName(Kind) << " label " << Bad;
  }
}

TEST(EngineDeathTest, UnknownBufferIsFatal) {
  ProgramBuilder PB;
  PB.buffer("a", Shape{1});
  Executor Ex = PB.build(block());
  EXPECT_DEATH(Ex.readBuffer("nope"), "unknown buffer");
}
