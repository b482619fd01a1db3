//===- tests/ir/ast_test.cpp ----------------------------------*- C++ -*-===//

#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/visitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

using namespace latte;
using namespace latte::ir;

namespace {

// Helper to build index vectors tersely in tests.
template <typename... Args> std::vector<ExprPtr> exprs(Args... A) {
  std::vector<ExprPtr> V;
  (V.push_back(std::move(A)), ...);
  return V;
}

StmtPtr makeMacLoop() {
  // for i in 0:+K { value[n] += inputs[i] * weights[i, n] }
  return forLoop(
      "i", 8,
      storeAdd("value", exprs(var("n")),
               mul(load("inputs", exprs(var("i"))),
                   load("weights", exprs(var("i"), var("n"))))));
}

} // namespace

TEST(IrExprTest, KindsAndCasting) {
  ExprPtr E = add(intConst(1), var("x"));
  EXPECT_TRUE(isa<BinaryExpr>(E.get()));
  EXPECT_FALSE(isa<LoadExpr>(E.get()));
  auto *B = cast<BinaryExpr>(E.get());
  EXPECT_EQ(B->op(), BinaryOpKind::Add);
  EXPECT_TRUE(isa<IntConstExpr>(B->lhs()));
  EXPECT_EQ(dyn_cast<VarExpr>(B->rhs())->name(), "x");
  EXPECT_EQ(dyn_cast<IntConstExpr>(B->rhs()), nullptr);
}

TEST(IrExprTest, CloneIsDeep) {
  ExprPtr E = mul(load("a", exprs(var("i"))), floatConst(2.0));
  ExprPtr C = E->clone();
  EXPECT_EQ(printExpr(E.get()), printExpr(C.get()));
  EXPECT_NE(E.get(), C.get());
  // Mutating the clone's buffer does not affect the original.
  cast<LoadExpr>(cast<BinaryExpr>(C.get())->lhs())->setBuffer("b");
  EXPECT_EQ(printExpr(E.get()), "(a[i] * 2.0)");
  EXPECT_EQ(printExpr(C.get()), "(b[i] * 2.0)");
}

TEST(IrExprTest, PrintExpr) {
  ExprPtr E = add(mul(load("w", exprs(var("i"), var("n"))),
                      load("in", exprs(var("i")))),
                  floatConst(1.0));
  EXPECT_EQ(printExpr(E.get()), "((w[i, n] * in[i]) + 1.0)");
  EXPECT_EQ(printExpr(max(var("a"), floatConst(0.0)).get()),
            "max(a, 0.0)");
  EXPECT_EQ(printExpr(select(compare(CompareOpKind::GT, var("v"),
                                     floatConst(0.0)),
                             var("g"), floatConst(0.0))
                          .get()),
            "select((v > 0.0), g, 0.0)");
}

TEST(IrStmtTest, PrintLoopNest) {
  StmtPtr S = makeMacLoop();
  std::string Text = printStmt(S.get());
  EXPECT_EQ(Text, "for i in 0:+8\n"
                  "  value[n] += (inputs[i] * weights[i, n])\n");
}

TEST(IrStmtTest, CloneLoopNest) {
  StmtPtr S = makeMacLoop();
  StmtPtr C = S->clone();
  EXPECT_EQ(printStmt(S.get()), printStmt(C.get()));
}

TEST(IrStmtTest, TiledLoopPrinting) {
  auto Body = storeAssign("out", exprs(var("y")), floatConst(0.0));
  auto T = std::make_unique<TiledLoopStmt>("yt", "y", 4, 8, 2,
                                           std::move(Body));
  std::string Text = printStmt(T.get());
  EXPECT_NE(Text.find("tiled yt in 0:4"), std::string::npos);
  EXPECT_NE(Text.find("tile 8"), std::string::npos);
  EXPECT_NE(Text.find("dist 2"), std::string::npos);
}

TEST(IrStmtTest, KernelCallPrinting) {
  StmtPtr K = kernelCall(
      KernelKind::Sgemm,
      bufArgs(KernelBufArg("A", mul(var("n"), intConst(100))),
              KernelBufArg("B"), KernelBufArg("C")),
      {4, 5, 6, 6, 5, 5, 1, 0, 1});
  std::string Text = printStmt(K.get());
  EXPECT_NE(Text.find("sgemm(A+(n * 100), B, C, 4, 5, 6"), std::string::npos);
}

TEST(IrVisitorTest, WalkExprsVisitsAll) {
  ExprPtr E = add(mul(var("a"), var("b")), load("c", exprs(var("i"))));
  int Count = 0, Vars = 0;
  walkExprs(E.get(), [&](const Expr *Node) {
    ++Count;
    if (isa<VarExpr>(Node))
      ++Vars;
  });
  EXPECT_EQ(Count, 6); // add, mul, a, b, load, i
  EXPECT_EQ(Vars, 3);
}

TEST(IrVisitorTest, WalkStmtsVisitsNested) {
  StmtPtr S = forLoop("n", 2, forLoop("i", 3, makeMacLoop()));
  int Fors = 0;
  walkStmts(S.get(), [&](const Stmt *Node) {
    if (isa<ForStmt>(Node))
      ++Fors;
  });
  EXPECT_EQ(Fors, 3);
}

TEST(IrVisitorTest, EvalConstInt) {
  int64_t Out = 0;
  ExprPtr E = mul(add(intConst(2), intConst(3)), intConst(4));
  EXPECT_TRUE(evalConstInt(E.get(), Out));
  EXPECT_EQ(Out, 20);
  ExprPtr V = add(var("x"), intConst(1));
  EXPECT_FALSE(evalConstInt(V.get(), Out));
}

TEST(IrVisitorTest, RewriteExprReplacesBuffers) {
  StmtPtr S = makeMacLoop();
  rewriteExprsInStmt(S.get(), [](const Expr *Node) -> ExprPtr {
    if (const auto *L = dyn_cast<LoadExpr>(Node))
      if (L->buffer() == "inputs") {
        std::vector<ExprPtr> Indices;
        for (const ExprPtr &I : L->indices())
          Indices.push_back(I->clone());
        return load("shared_inputs", std::move(Indices));
      }
    return nullptr;
  });
  EXPECT_NE(printStmt(S.get()).find("shared_inputs[i]"), std::string::npos);
}

TEST(IrPrinterTest, FloatConstantsRoundTripExactly) {
  // Shortest-round-trip formatting: parsing the printed text recovers the
  // exact double, including values the old 6-significant-digit stream
  // default would have truncated.
  for (double V : {0.1, 1.0 / 3.0, 2.5e-8, -0.875, 1234567.25, 1e300,
                   0.30000000000000004}) {
    std::string Text = printExpr(floatConst(V).get());
    EXPECT_EQ(std::stod(Text), V) << Text;
  }
  // Integral doubles keep the ".0" marker.
  EXPECT_EQ(printExpr(floatConst(1.0).get()), "1.0");
  EXPECT_EQ(printExpr(floatConst(-3.0).get()), "-3.0");
  EXPECT_EQ(printExpr(floatConst(0.1).get()), "0.1");
}

TEST(IrPrinterTest, AdjacentDoublesPrintDistinctly) {
  double A = 0.1;
  double B = std::nextafter(A, 1.0);
  EXPECT_NE(printExpr(floatConst(A).get()), printExpr(floatConst(B).get()));
}

TEST(IrPrinterTest, PrintIsStableAcrossCloneAndReprint) {
  // Kernel float args and float constants must print identically on every
  // pass over the same IR (clone -> reprint round-trip).
  StmtPtr K = kernelCall(KernelKind::Scale, bufArgs(KernelBufArg("buf")),
                         {128}, {0.012345678901234567});
  std::vector<StmtPtr> Stmts;
  Stmts.push_back(std::move(K));
  Stmts.push_back(forLoop("i", 4, storeAssign("buf", exprs(var("i")),
                                              floatConst(1.0 / 3.0))));
  StmtPtr S = block(std::move(Stmts), "stability");
  std::string First = printStmt(S.get());
  StmtPtr C = S->clone();
  EXPECT_EQ(First, printStmt(C.get()));
  EXPECT_EQ(First, printStmt(S.get()));
  EXPECT_NE(First.find("0.012345678901234567"), std::string::npos) << First;
}

TEST(IrStmtTest, BarrierAndBlockLabels) {
  std::vector<StmtPtr> Stmts;
  Stmts.push_back(barrier("normalization ensemble"));
  StmtPtr B = block(std::move(Stmts), "forward softmax");
  std::string Text = printStmt(B.get());
  EXPECT_NE(Text.find("# forward softmax"), std::string::npos);
  EXPECT_NE(Text.find("barrier # normalization ensemble"),
            std::string::npos);
}
