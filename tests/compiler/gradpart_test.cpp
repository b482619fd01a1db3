//===- tests/compiler/gradpart_test.cpp -----------------------*- C++ -*-===//
///
/// Unit tests for the parameter-gradient partition (compiler/gradpart.h):
/// every AlexNet conv backward unit becomes an item-parallel loop plus a
/// row-block-parallel loop whose ParamGrad write footprints are disjoint
/// across blocks, whole-batch fully-connected dW GEMMs are row-blocked with
/// a static tail, and units the pass cannot split — interpreted `+=`
/// nests — keep no Parallel annotation on a loop that accumulates into a
/// parameter gradient.
///
//===----------------------------------------------------------------------===//

#include "analyze/effects.h"
#include "analyze/races.h"
#include "compiler/compiler.h"
#include "compiler/gradpart.h"
#include "models/models.h"
#include "support/casting.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace latte;
using namespace latte::compiler;

namespace {

Program compileModel(const models::ModelSpec &Spec, int64_t Batch,
                     const CompileOptions &Opts) {
  core::Net Net(Batch);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  return compile(Net, Opts);
}

bool isParamGrad(const analyze::BufferTable &Bufs, const std::string &Root) {
  const analyze::BufferTable::FloatInfo *FI = Bufs.floatInfo(Root);
  return FI && FI->Role == BufferRole::ParamGrad;
}

/// ParamGrad roots \p S writes.
std::vector<std::string> gradWrites(const ir::Stmt *S,
                                    const analyze::BufferTable &Bufs) {
  std::vector<std::string> Out;
  analyze::UnitEffects UE = analyze::collectUnitEffects(S, Bufs, nullptr);
  for (const auto &[Root, Accesses] : UE.Effects.Buffers)
    for (const analyze::Access &A : Accesses)
      if (A.Write && isParamGrad(Bufs, Root)) {
        Out.push_back(Root);
        break;
      }
  return Out;
}

/// Every parallel loop of \p Root (any depth) that writes a ParamGrad.
int parallelGradLoops(const ir::Stmt *S, const analyze::BufferTable &Bufs) {
  if (!S)
    return 0;
  if (const auto *B = dyn_cast<ir::BlockStmt>(S)) {
    int N = 0;
    for (const ir::StmtPtr &C : B->stmts())
      N += parallelGradLoops(C.get(), Bufs);
    return N;
  }
  if (const auto *F = dyn_cast<ir::ForStmt>(S))
    return (F->annotations().Parallel && !gradWrites(F, Bufs).empty()) +
           parallelGradLoops(F->body(), Bufs);
  if (const auto *T = dyn_cast<ir::TiledLoopStmt>(S))
    return (T->annotations().Parallel && !gradWrites(T, Bufs).empty()) +
           parallelGradLoops(T->body(), Bufs);
  return 0;
}

/// Checks loop (b): parallel over row blocks, a serial item loop inside,
/// and ParamGrad write footprints that advance by at least their own span
/// per block (so distinct blocks are disjoint), with no race diagnostics.
void expectRowBlockLoop(const ir::ForStmt &Rows,
                        const analyze::BufferTable &Bufs,
                        const std::string &Label) {
  EXPECT_TRUE(Rows.annotations().Parallel) << Label;
  const auto *Body = cast<ir::BlockStmt>(Rows.body());
  ASSERT_EQ(Body->stmts().size(), 1u) << Label;
  const auto *Items = dyn_cast<ir::ForStmt>(Body->stmts()[0].get());
  ASSERT_NE(Items, nullptr) << Label;
  EXPECT_FALSE(Items->annotations().Parallel) << Label;

  analyze::UnitEffects UE = analyze::collectUnitEffects(&Rows, Bufs, nullptr);
  ASSERT_EQ(UE.Dims.size(), 1u) << Label;
  const std::string &RowVar = UE.Dims[0].Var;
  int GradAccesses = 0;
  for (const auto &[Root, Accesses] : UE.Effects.Buffers) {
    if (!isParamGrad(Bufs, Root))
      continue;
    for (const analyze::Access &A : Accesses) {
      if (!A.Write)
        continue;
      ++GradAccesses;
      EXPECT_TRUE(A.Fp.Exact) << Label << ": " << A.Detail;
      int64_t Step = A.Fp.Base.coeff(RowVar);
      EXPECT_GT(Step, 0) << Label << ": " << A.Detail;
      EXPECT_LE(A.Fp.spanEnd(), Step)
          << Label << ": " << A.Detail << " [" << A.Fp.str() << "]";
    }
  }
  EXPECT_GT(GradAccesses, 0) << Label;
  analyze::DiagnosticReport R;
  analyze::detectRaces(UE, Label, R);
  EXPECT_TRUE(R.empty()) << R.render();
}

} // namespace

TEST(GradPartitionTest, AlexNetConvBackwardUnitsAreRowPartitioned) {
  Program P = compileModel(models::alexNet(0.25), 2, CompileOptions());
  analyze::BufferTable Bufs(P);
  const auto *Units = cast<ir::BlockStmt>(P.Backward.get());
  int ConvUnits = 0, FcUnits = 0;
  for (size_t I = 0; I < Units->stmts().size(); ++I) {
    const ir::Stmt *Unit = Units->stmts()[I].get();
    const std::string &Label = P.BackwardTasks[I].Name;
    std::vector<std::string> Grads = gradWrites(Unit, Bufs);
    if (Grads.empty())
      continue;
    const auto *Parts = dyn_cast<ir::BlockStmt>(Unit);
    if (Label.rfind("pre:", 0) == 0) {
      // A whole-batch kernel left as it was runs serially (the bias
      // ColSumAdd); no dW GEMM may be among them.
      if (const auto *K = dyn_cast<ir::KernelCallStmt>(Unit)) {
        EXPECT_NE(K->kernel(), ir::KernelKind::Sgemm) << Label;
        continue;
      }
      // Whole-batch dW GEMM of a fully-connected layer: the row-block loop,
      // plus a static tail call for the classifier's 1000 = 31 * 32 + 8.
      const ir::Stmt *First = Parts ? Parts->stmts()[0].get() : Unit;
      const auto *Rows = dyn_cast<ir::ForStmt>(First);
      ASSERT_NE(Rows, nullptr) << Label;
      EXPECT_TRUE(Rows->annotations().Parallel) << Label;
      EXPECT_EQ(gradWrites(Rows, Bufs), Grads) << Label;
      if (Parts) {
        ASSERT_EQ(Parts->stmts().size(), 2u) << Label;
        const auto *Tail =
            dyn_cast<ir::KernelCallStmt>(Parts->stmts()[1].get());
        ASSERT_NE(Tail, nullptr) << Label;
        EXPECT_EQ(Tail->intArgs()[0], 1000 % kGradRowBlock) << Label;
      }
      ++FcUnits;
      continue;
    }
    if (Label.find("conv") == std::string::npos)
      continue;
    // Conv unit: (a) item-parallel loop without gradient writes, then (b).
    ASSERT_NE(Parts, nullptr) << Label << " was not partitioned";
    ASSERT_EQ(Parts->stmts().size(), 2u) << Label;
    const auto *Items = dyn_cast<ir::ForStmt>(Parts->stmts()[0].get());
    const auto *Rows = dyn_cast<ir::ForStmt>(Parts->stmts()[1].get());
    ASSERT_NE(Items, nullptr) << Label;
    ASSERT_NE(Rows, nullptr) << Label;
    EXPECT_TRUE(Items->annotations().Parallel) << Label;
    EXPECT_TRUE(gradWrites(Items, Bufs).empty()) << Label;
    EXPECT_EQ(gradWrites(Rows, Bufs), Grads) << Label;
    expectRowBlockLoop(*Rows, Bufs, Label);
    ++ConvUnits;
  }
  EXPECT_EQ(ConvUnits, 5);
  EXPECT_EQ(FcUnits, 3);
}

TEST(GradPartitionTest, RaggedRowsGetStaticTail) {
  // LeNet's conv2 has 50 output channels: one 32-row block in parallel,
  // then the remaining 18 rows as a serial item loop after it.
  Program P = compileModel(models::lenet(), 4, CompileOptions());
  analyze::BufferTable Bufs(P);
  const auto *Units = cast<ir::BlockStmt>(P.Backward.get());
  bool Found = false;
  for (const ir::StmtPtr &Unit : Units->stmts()) {
    std::vector<std::string> Grads = gradWrites(Unit.get(), Bufs);
    if (Grads.empty() || Grads.front() != "conv2_grad_bias")
      continue;
    const auto *Parts = cast<ir::BlockStmt>(Unit.get());
    ASSERT_EQ(Parts->stmts().size(), 3u);
    const auto *Rows = cast<ir::ForStmt>(Parts->stmts()[1].get());
    EXPECT_EQ(Rows->extent(), 50 / kGradRowBlock);
    const auto *Tail = cast<ir::ForStmt>(Parts->stmts()[2].get());
    EXPECT_FALSE(Tail->annotations().Parallel);
    for (const ir::StmtPtr &S : cast<ir::BlockStmt>(Tail->body())->stmts())
      EXPECT_EQ(cast<ir::KernelCallStmt>(S.get())->intArgs()[0],
                50 % kGradRowBlock);
    Found = true;
  }
  EXPECT_TRUE(Found);
}

TEST(GradPartitionTest, InterpretedAccumulationStaysSerial) {
  // Without GEMM matching the gradient `+=` is a scalar loop nest the pass
  // cannot split; it must lose its Parallel annotation, and say so.
  CompileOptions Opts;
  Opts.PatternMatchGemm = false;
  Program P = compileModel(models::alexNet(0.25), 2, Opts);
  analyze::BufferTable Bufs(P);
  EXPECT_EQ(parallelGradLoops(P.Backward.get(), Bufs), 0);
  int SerialNotes = 0;
  for (const std::string &N : P.Report.Notes)
    SerialNotes += N.find("runs serially") != std::string::npos;
  EXPECT_GE(SerialNotes, 5);
}
