//===- tests/verify/codegen_diff_test.cpp ---------------------*- C++ -*-===//
///
/// Differential test of the C++ backend against the in-process engine: a
/// net is emitted with codegen_cpp, compiled with the system toolchain,
/// run as a standalone binary on the same inputs and parameters, and every
/// value and parameter-gradient buffer must agree with the engine within
/// the standalone tolerance. Dropout is excluded — the generated binary
/// draws its masks from its own RNG stream.
///
//===----------------------------------------------------------------------===//

#include "../codegen_harness.h"

#include "compiler/compiler.h"
#include "engine/executor.h"
#include "verify/random_net.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::codegen_harness;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::engine;

namespace {

/// Runs \p Prog in the engine and as a standalone program (\p Mode "fwd"
/// or "fwdbwd") on the same Gaussian input and random labels, and
/// compares every value and parameter gradient the program writes back.
void diffProgram(const Program &Prog, uint64_t Seed, int64_t Classes,
                 const std::string &Tag, const std::string &Mode) {
  ExecOptions EO;
  EO.Deterministic = true;
  Executor Ex(Prog.clone(), EO);
  Ex.initParams(Seed);
  Rng R(Seed ^ 0xc0de);
  Tensor In(Prog.findBuffer(Prog.DataBuffer)->Dims);
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Tensor L(Prog.findBuffer(Prog.LabelBuffer)->Dims);
  for (int64_t I = 0; I < L.numElements(); ++I)
    L.at(I) = static_cast<float>(R.uniformInt(Classes));
  Ex.setLabels(L);
  NamedTensors Inputs = engineInputs(Ex);
  Ex.forward();
  if (Mode == "fwdbwd")
    Ex.backward();

  StandaloneProgram Gen(Prog, Tag);
  NamedTensors Outputs = Gen.run(Inputs, Mode);
  int Compared = 0;
  for (const BufferInfo &B : Prog.Buffers) {
    if (B.Role != BufferRole::Value && B.Role != BufferRole::ParamGrad)
      continue;
    if (!findOutput(Outputs, B.Name))
      continue; // aliased/internal buffers the backend folds away
    expectMatchesEngine(Ex, Outputs, B.Name);
    ++Compared;
  }
  EXPECT_GT(Compared, 0) << "no comparable buffers in generated output";
}

void codegenDiff(uint64_t Seed, const CompileOptions &Copts) {
  Net Net(2);
  verify::RandomNetOptions RO;
  RO.AllowDropout = false; // generated code has an independent RNG
  std::string Desc = verify::randomNet(Net, Seed, RO);
  SCOPED_TRACE(Desc);
  diffProgram(compile(Net, Copts), Seed, verify::randomNetClasses(Seed, RO),
              "latte_vdiff_" + std::to_string(Seed), "fwdbwd");
}

} // namespace

TEST(CodegenDiffTest, RandomNetUnoptimized) {
  CompileOptions C;
  C.PatternMatchGemm = false;
  C.PatternMatchKernels = false;
  C.Tiling = false;
  C.Fusion = false;
  C.Parallelize = false;
  C.VectorKernels = false;
  codegenDiff(21, C);
}

TEST(CodegenDiffTest, RandomNetFullyOptimized) {
  codegenDiff(22, CompileOptions{});
}

TEST(CodegenDiffTest, RandomNetThird) { codegenDiff(23, CompileOptions{}); }

TEST(CodegenDiffTest, ConvNetBatch3TrainAndForward) {
  // The small fused conv net at batch 3 under the default options: the
  // training compile runs fwdbwd, and its compileForward program, whose
  // forward chain is a parallel batch loop, runs fwd — the only check of
  // a forward-only standalone program against the engine.
  std::unique_ptr<Net> N = makeConvNet(3);
  CompileOptions Opts;
  Program Train = compile(*N, Opts);
  diffProgram(Train, 31, 5, "latte_vdiff_conv3", "fwdbwd");

  Program Fwd = compileForward(*N, Opts);
  bool ParallelLoop = false;
  for (const ir::StmtPtr &U : cast<ir::BlockStmt>(Fwd.Forward.get())->stmts())
    if (const auto *F = dyn_cast<ir::ForStmt>(U.get()))
      ParallelLoop |= F->annotations().Parallel;
  EXPECT_TRUE(ParallelLoop);
  diffProgram(Fwd, 32, 5, "latte_vdiff_conv3_fwd", "fwd");
}
