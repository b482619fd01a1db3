//===- tests/analyze/verifier_test.cpp ------------------------*- C++ -*-===//
///
/// Unit tests for the static IR verifier: buffer-table integrity (dupes,
/// shapes, alias cycles), parameter bindings, task-label/unit parallelism,
/// loop-nest well-formedness, defined-before-use, kernel arity, parallel
/// loops assigning outer locals,
/// footprint bounds checking, and clean verification of real compiled
/// programs (zero false positives on the compiler's own output).
///
//===----------------------------------------------------------------------===//

#include "analyze/verifier.h"

#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "ir/builder.h"
#include "support/casting.h"
#include "verify/lattice.h"

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

StmtPtr unitBlock(StmtPtr Unit, const char *Label = "forward") {
  std::vector<StmtPtr> V;
  V.push_back(std::move(Unit));
  return block(std::move(V), Label);
}

/// Minimal well-formed program: `parallel for n in 0:4 { x[n] = 0 }`.
Program makeProg(StmtPtr ForwardUnit) {
  Program P;
  P.BatchSize = 4;
  P.Buffers.push_back(makeBuffer("x", Shape{4}));
  P.Forward = unitBlock(std::move(ForwardUnit));
  P.ForwardTasks.push_back({"batch[x]", {"x"}});
  return P;
}

StmtPtr parallelStore(ExprPtr Index, ExprPtr Value) {
  StmtPtr Loop =
      forLoop("n", 4, storeAssign("x", indexList(std::move(Index)),
                                  std::move(Value)));
  cast<ForStmt>(Loop.get())->annotations().Parallel = true;
  return Loop;
}

} // namespace

TEST(VerifierTest, MinimalProgramVerifiesClean) {
  Program P = makeProg(parallelStore(var("n"), floatConst(0.0)));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_FALSE(R.hasErrors()) << R.render();
}

TEST(VerifierTest, UseBeforeDefIsReported) {
  // Index variable 'q' is never bound by a loop.
  Program P = makeProg(parallelStore(var("q"), floatConst(0.0)));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("ir.var-use")) << R.render();
}

TEST(VerifierTest, OutOfBoundsFootprintIsReported) {
  // x[n + 2] with n in [0,4) reaches element 5 of a 4-element buffer.
  Program P =
      makeProg(parallelStore(add(var("n"), intConst(2)), floatConst(0.0)));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("ir.bounds")) << R.render();
}

TEST(VerifierTest, RankMismatchIsReported) {
  StmtPtr Loop = forLoop(
      "n", 4,
      storeAssign("x", indexList(var("n"), intConst(0)), floatConst(0.0)));
  Program P = makeProg(std::move(Loop));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("ir.index-rank")) << R.render();
}

TEST(VerifierTest, WriteWriteRaceIsReported) {
  Program P = makeProg(parallelStore(intConst(0), floatConst(1.0)));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("race.write-write")) << R.render();
}

TEST(VerifierTest, DuplicateBufferIsReported) {
  Program P = makeProg(parallelStore(var("n"), floatConst(0.0)));
  P.Buffers.push_back(makeBuffer("x", Shape{4}));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("buffer.duplicate")) << R.render();
}

TEST(VerifierTest, AliasCycleIsReported) {
  Program P = makeProg(parallelStore(var("n"), floatConst(0.0)));
  BufferInfo A = makeBuffer("u", Shape{4});
  A.AliasOf = "v";
  BufferInfo B = makeBuffer("v", Shape{4});
  B.AliasOf = "u";
  P.Buffers.push_back(std::move(A));
  P.Buffers.push_back(std::move(B));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("buffer.alias")) << R.render();
}

TEST(VerifierTest, AliasSizeMismatchIsReported) {
  Program P = makeProg(parallelStore(var("n"), floatConst(0.0)));
  BufferInfo A = makeBuffer("view", Shape{2});
  A.AliasOf = "x"; // x has 4 elements
  P.Buffers.push_back(std::move(A));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("buffer.alias")) << R.render();
}

TEST(VerifierTest, BrokenParamBindingIsReported) {
  Program P = makeProg(parallelStore(var("n"), floatConst(0.0)));
  P.Params.push_back({"w", "w_grad", 1.0f}); // neither buffer exists
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("program.param-bindings")) << R.render();
}

TEST(VerifierTest, LabelUnitCountMismatchIsReported) {
  Program P = makeProg(parallelStore(var("n"), floatConst(0.0)));
  P.ForwardTasks.push_back({"phantom", {}}); // 2 labels, 1 unit
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("program.task-labels")) << R.render();
}

TEST(VerifierTest, BarrierLabelMismatchIsReported) {
  Program P = makeProg(barrier("sync"));
  // The unit is a barrier but its label lacks the "barrier:" prefix.
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("program.task-labels")) << R.render();
}

TEST(VerifierTest, NestedBarrierIsReported) {
  StmtPtr Loop = forLoop("n", 4, barrier("inside"));
  Program P = makeProg(std::move(Loop));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("ir.barrier-placement")) << R.render();
}

TEST(VerifierTest, KernelArityMismatchIsReported) {
  // Zero expects 1 buffer + 1 int; pass no ints.
  StmtPtr K = kernelCall(KernelKind::Zero, bufArgs(KernelBufArg("x")), {});
  Program P = makeProg(std::move(K));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("kernel.arity")) << R.render();
}

TEST(VerifierTest, ParallelLoopAssigningOuterLocalIsReported) {
  // `acc` is declared before the parallel loop: the interpreter's parallel
  // path gives each iteration a private copy, its serial path shares one,
  // and the emitted loop would race on it.
  auto Unit = [](bool Parallel, bool DeclInside) {
    std::vector<StmtPtr> Body, Outer;
    (DeclInside ? Body : Outer).push_back(decl("acc", floatConst(0.0)));
    Body.push_back(assignVar("acc", AccumKind::AddAssign, floatConst(1.0)));
    StmtPtr Loop = forLoop("n", 4, block(std::move(Body)));
    cast<ForStmt>(Loop.get())->annotations().Parallel = Parallel;
    Outer.push_back(std::move(Loop));
    return block(std::move(Outer));
  };
  DiagnosticReport R = verifyProgram(makeProg(Unit(true, false)));
  EXPECT_TRUE(R.hasCode("race.local")) << R.render();
  // Each iteration's own local, or a serial loop's shared one, is fine.
  for (const auto &[Parallel, DeclInside] :
       {std::pair{true, true}, std::pair{false, false}}) {
    DiagnosticReport Clean = verifyProgram(makeProg(Unit(Parallel, DeclInside)));
    EXPECT_FALSE(Clean.hasErrors()) << Clean.render();
  }
}

TEST(VerifierTest, AssignToUndeclaredLocalIsReported) {
  StmtPtr Loop = forLoop(
      "n", 4, assignVar("acc", AccumKind::AddAssign, floatConst(1.0)));
  Program P = makeProg(std::move(Loop));
  DiagnosticReport R = verifyProgram(P);
  EXPECT_TRUE(R.hasCode("ir.var-use")) << R.render();
}

TEST(VerifierTest, CheckTogglesDisableBoundsAndRaces) {
  Program P = makeProg(parallelStore(intConst(0), floatConst(1.0)));
  VerifyOptions Opts;
  Opts.CheckRaces = false;
  DiagnosticReport R = verifyProgram(P, Opts);
  EXPECT_FALSE(R.hasCode("race.write-write")) << R.render();

  Program P2 =
      makeProg(parallelStore(add(var("n"), intConst(2)), floatConst(0.0)));
  VerifyOptions Opts2;
  Opts2.CheckBounds = false;
  DiagnosticReport R2 = verifyProgram(P2, Opts2);
  EXPECT_FALSE(R2.hasCode("ir.bounds")) << R2.render();
}

TEST(VerifierTest, CompiledMlpVerifiesCleanAcrossKeyMasks) {
  // The compiler's own output must verify with zero errors — fully
  // unoptimized (mask 0), all passes but recompute, and all passes
  // including recompute (JIT off throughout).
  core::Net Net(3);
  using namespace latte::layers;
  core::Ensemble *Data = DataLayer(Net, "data", Shape{12});
  core::Ensemble *Fc1 = FullyConnectedLayer(Net, "fc1", Data, 10);
  core::Ensemble *Act = ReluLayer(Net, "relu1", Fc1, /*InPlace=*/true);
  core::Ensemble *Fc2 = FullyConnectedLayer(Net, "fc2", Act, 4);
  core::Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc2, Labels);

  using verify::kAllMask, verify::kJitMask, verify::kRecomputeMask;
  for (unsigned Mask : {0u, kAllMask & ~(kRecomputeMask | kJitMask),
                        kAllMask & ~kJitMask}) {
    verify::LatticeOptions LO;
    CompileOptions Copts = verify::optionsForMask(Mask, LO);
    Copts.VerifyEach = false; // exercised via verifyProgram directly
    Program P = compile(Net, Copts);
    DiagnosticReport R = verifyProgram(P);
    EXPECT_FALSE(R.hasErrors())
        << "mask " << Mask << ":\n"
        << R.render();
  }
}

TEST(VerifierTest, DiagnosticRenderingIsStructured) {
  Program P = makeProg(parallelStore(intConst(0), floatConst(1.0)));
  DiagnosticReport R = verifyProgram(P);
  ASSERT_TRUE(R.hasErrors());
  std::string Text = R.render();
  EXPECT_NE(Text.find("error [race.write-write]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("batch[x]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("error(s)"), std::string::npos) << Text;
}
