//===- tests/compiler/gradpart_test.cpp -----------------------*- C++ -*-===//
///
/// Unit tests for the parameter-gradient partition (compiler/gradpart.h):
/// every AlexNet conv backward unit becomes an item-parallel loop plus a
/// row-block-parallel loop whose ParamGrad write footprints are disjoint
/// across blocks, whole-batch fully-connected dW GEMMs are row-blocked with
/// a static tail, and units the pass cannot split — interpreted `+=`
/// nests — keep no Parallel annotation on a loop that accumulates into a
/// parameter gradient. Top-level GEMMs with few rows (the fully-connected
/// forward and input-gradient GEMMs at small batch) become column-block
/// loops; small, one-block and in-loop calls, and the sequence and served
/// programs, keep none.
///
//===----------------------------------------------------------------------===//

#include "analyze/effects.h"
#include "analyze/races.h"
#include "compiler/compiler.h"
#include "compiler/gradpart.h"
#include "core/layers/layers.h"
#include "ir/printer.h"
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

/// Column-block loops (loop variable "cb") anywhere under \p S.
int columnLoops(const ir::Stmt *S) {
  if (!S)
    return 0;
  if (const auto *B = dyn_cast<ir::BlockStmt>(S)) {
    int N = 0;
    for (const ir::StmtPtr &C : B->stmts())
      N += columnLoops(C.get());
    return N;
  }
  if (const auto *F = dyn_cast<ir::ForStmt>(S))
    return (F->var() == "cb") + columnLoops(F->body());
  if (const auto *T = dyn_cast<ir::TiledLoopStmt>(S))
    return columnLoops(T->body());
  return 0;
}

int columnLoops(const Program &P) {
  return columnLoops(P.Forward.get()) + columnLoops(P.Backward.get());
}

/// Checks a column-split GEMM unit of \p Columns columns: a parallel loop
/// over whole kGemmColBlock-wide blocks whose C writes advance one block
/// per iteration without races, then a tail call for the rest.
void expectColumnBlocks(const ir::Stmt &Unit, int64_t Columns,
                        const analyze::BufferTable &Bufs,
                        const std::string &Label) {
  const auto *Parts = dyn_cast<ir::BlockStmt>(&Unit);
  const ir::Stmt *First = Parts ? Parts->stmts()[0].get() : &Unit;
  const auto *Loop = dyn_cast<ir::ForStmt>(First);
  ASSERT_NE(Loop, nullptr) << Label;
  EXPECT_EQ(Loop->var(), "cb") << Label;
  EXPECT_TRUE(Loop->annotations().Parallel) << Label;
  EXPECT_EQ(Loop->extent(), Columns / kGemmColBlock) << Label;
  const auto *Body = cast<ir::BlockStmt>(Loop->body());
  ASSERT_EQ(Body->stmts().size(), 1u) << Label;
  const auto *K = dyn_cast<ir::KernelCallStmt>(Body->stmts()[0].get());
  ASSERT_NE(K, nullptr) << Label;
  EXPECT_EQ(K->kernel(), ir::KernelKind::Sgemm) << Label;
  EXPECT_EQ(K->intArgs()[1], kGemmColBlock) << Label;

  analyze::UnitEffects UE = analyze::collectUnitEffects(Loop, Bufs, nullptr);
  int Writes = 0;
  for (const auto &[Root, Accesses] : UE.Effects.Buffers)
    for (const analyze::Access &A : Accesses)
      if (A.Write) {
        ++Writes;
        EXPECT_TRUE(A.Fp.Exact) << Label << ": " << A.Detail;
        EXPECT_EQ(A.Fp.Base.coeff("cb"), kGemmColBlock) << Label;
      }
  EXPECT_EQ(Writes, 1) << Label;
  analyze::DiagnosticReport R;
  analyze::detectRaces(UE, Label, R);
  EXPECT_TRUE(R.empty()) << R.render();

  const int64_t Tail = Columns % kGemmColBlock;
  ASSERT_EQ(Parts ? Parts->stmts().size() : 1u, Tail ? 2u : 1u) << Label;
  if (Tail) {
    const auto *TailCall =
        dyn_cast<ir::KernelCallStmt>(Parts->stmts()[1].get());
    ASSERT_NE(TailCall, nullptr) << Label;
    EXPECT_EQ(TailCall->intArgs()[1], Tail) << Label;
  }
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

TEST(GradPartitionTest, FullyConnectedGemmsBecomeColumnBlocks) {
  // AlexNet(0.5) at batch 8: every fully-connected GEMM has M = 8 rows.
  // Forward fc6/fc7 (N = 4096) and the input gradients of the classifier
  // and fc7 (N = 4096) and fc6 (N = 1024) split into 512-column blocks;
  // the classifier forward (N = 1000) is one block plus a tail and stays
  // one call.
  ASSERT_EQ(kGemmColBlock, 512);
  Program P = compileModel(models::alexNet(0.5), 8, CompileOptions());
  analyze::BufferTable Bufs(P);
  struct Want {
    bool Backward;
    const char *Label;
    int64_t Columns;
  };
  const Want Split[] = {{false, "pre:fc6", 4096},
                        {false, "pre:fc7", 4096},
                        {true, "pre:classifier", 4096},
                        {true, "pre:fc7", 4096},
                        {true, "pre:fc6", 1024}};
  int Found = 0;
  for (const Want &W : Split) {
    const auto *Units =
        cast<ir::BlockStmt>(W.Backward ? P.Backward.get() : P.Forward.get());
    const auto &Labels = W.Backward ? P.BackwardTasks : P.ForwardTasks;
    for (size_t I = 0; I < Units->stmts().size(); ++I) {
      // The bias and row-blocked dW units share the labels: the bias units
      // stay single calls, the dW units write a parameter gradient.
      const ir::Stmt *Unit = Units->stmts()[I].get();
      if (Labels[I].Name != W.Label || isa<ir::KernelCallStmt>(Unit) ||
          !gradWrites(Unit, Bufs).empty())
        continue;
      expectColumnBlocks(*Units->stmts()[I], W.Columns, Bufs,
                         std::string(W.Backward ? "backward " : "forward ") +
                             W.Label);
      ++Found;
    }
  }
  EXPECT_EQ(Found, 5);
  EXPECT_EQ(columnLoops(P), 5);

  const auto *Fwd = cast<ir::BlockStmt>(P.Forward.get());
  bool ClassifierWhole = false;
  for (size_t I = 0; I < Fwd->stmts().size(); ++I)
    if (P.ForwardTasks[I].Name == "pre:classifier")
      if (const auto *K =
              dyn_cast<ir::KernelCallStmt>(Fwd->stmts()[I].get()))
        ClassifierWhole = K->intArgs()[1] == 1000;
  EXPECT_TRUE(ClassifierWhole);

  // The inference compile keeps the training compile's forward IR.
  core::Net Net(8);
  models::buildLatte(Net, models::alexNet(0.5), /*WithLoss=*/true);
  Program Inf = compileForward(Net);
  EXPECT_EQ(ir::printStmt(Inf.Forward.get()), ir::printStmt(P.Forward.get()));
  EXPECT_EQ(columnLoops(Inf), 2);

  // Without Parallelize nothing is split.
  CompileOptions Serial;
  Serial.Parallelize = false;
  EXPECT_EQ(columnLoops(compileModel(models::alexNet(0.5), 8, Serial)), 0);
}

TEST(GradPartitionTest, SmallOneBlockTallAndInLoopGemmsKeepOneCall) {
  // Each net's one GEMM misses one condition of the split; the control
  // meets them all. Forward and backward share the rule, so the inference
  // compile (forward only) shows it.
  auto FcNet = [](int64_t Batch, int64_t In, int64_t Out) {
    core::Net Net(Batch);
    layers::FullyConnectedLayer(
        Net, "fc", layers::DataLayer(Net, "data", Shape{In}), Out);
    return compileForward(Net);
  };
  // 2 x 1024 x 1024: two blocks of 2 x 512 x 1024 = 2^20 multiply-adds.
  EXPECT_EQ(columnLoops(FcNet(2, 1024, 1024)), 1);
  // 2 x 4096 x 512: eight blocks, each under 2^20 multiply-adds.
  EXPECT_EQ(columnLoops(FcNet(2, 512, 4096)), 0);
  // 2 x 1000 x 4096: 8.2 M multiply-adds, but one block.
  EXPECT_EQ(columnLoops(FcNet(2, 4096, 1000)), 0);
  // 33 x 1024 x 1024: more rows than kGradRowBlock.
  EXPECT_EQ(columnLoops(FcNet(kGradRowBlock + 1, 1024, 1024)), 0);
  // 16 x 3844 x 27 per item (1.7 M multiply-adds, seven blocks), but
  // inside the batch loop.
  core::Net Net(2);
  layers::ConvolutionLayer(
      Net, "conv", layers::DataLayer(Net, "data", Shape{3, 64, 64}), 16, 3,
      1, 0);
  EXPECT_EQ(columnLoops(compileForward(Net)), 0);
}

TEST(GradPartitionTest, SequenceAndServedProgramsHaveNoColumnLoops) {
  // perfbench's train_seq models (training, batch 32) and the served vgg3
  // classes (inference, batch 1/4/16) have no GEMM the split takes, so
  // their programs and JIT sources are the same as without it. Neither
  // has vgg3's training program at batch 4, whose classifier gradients
  // (4 x 50176 x 10, 10 x 50176 x 4) hold 20 K multiply-adds a block.
  EXPECT_EQ(columnLoops(compileModel(models::lstmClassifier(16, 64, 64, 10),
                                     32, CompileOptions())),
            0);
  EXPECT_EQ(
      columnLoops(compileModel(models::attentionClassifier(16, 64, 64, 10),
                               32, CompileOptions())),
      0);
  for (int64_t Batch : {1, 4, 16}) {
    core::Net Net(Batch);
    models::buildLatte(Net, models::vggFirstThreeLayers(0.25),
                       /*WithLoss=*/false);
    EXPECT_EQ(columnLoops(compileForward(Net)), 0) << "batch " << Batch;
  }
  EXPECT_EQ(columnLoops(compileModel(models::vggFirstThreeLayers(0.25), 4,
                                     CompileOptions())),
            0);
}
