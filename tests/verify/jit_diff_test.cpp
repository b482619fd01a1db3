//===- tests/verify/jit_diff_test.cpp -------------------------*- C++ -*-===//
///
/// Differential verification of the in-process JIT backend: for every base
/// point of the 2^6 non-JIT optimization lattice, run the same program
/// twice — once at mask m|kJitMask (tasks dispatched through the dlopen'd
/// module src/jit compiled from the generated C++) and once at mask m
/// (pure interpreter) — and require weights, gradients and every other
/// commonly-retained root to be BITWISE identical. The JIT is purely a
/// dispatch lever; the generated code replays the interpreter's exact
/// float32 operation sequence (hex-literal constants, per-op rounding,
/// std::min/max tie semantics, the same kernels:: entry points through the
/// trampoline), so any difference at all is an emitter bug.
///
/// Comparability mirrors recompute_diff_test: the comparison covers the
/// roots retained by BOTH plans — params, param grads, values, data
/// gradient — which is everything training observes.
///
/// Parallel loops, backward included, are race-free and independent of
/// the thread count, so bitwise equality is a sound expectation even on
/// the Parallelize points. The per-PR tier sweeps the 32 recompute-free
/// base masks; the nightly deep tier (LATTE_DEEP=1) sweeps all 64 base
/// points of the non-JIT lattice and doubles the epoch count.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"
#include "engine/executor.h"
#include "jit/jit_backend.h"
#include "models/models.h"
#include "support/casting.h"
#include "verify/lattice.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace latte;
using namespace latte::compiler;
using namespace latte::engine;

namespace {

Program compileSpec(const models::ModelSpec &Spec, int64_t Batch,
                    const CompileOptions &Opts) {
  core::Net Net(Batch);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  return compile(Net, Opts);
}

/// Runs forward+backward twice (JIT on vs off) at one base lattice point
/// and compares every root retained by both plans bitwise.
void diffOneBaseMask(const models::ModelSpec &Spec, int64_t Batch,
                     unsigned BaseMask) {
  verify::LatticeOptions LO; // tiny-net tile geometry so tiling triggers
  CompileOptions On = verify::optionsForMask(BaseMask | verify::kJitMask, LO);
  CompileOptions Off = verify::optionsForMask(BaseMask, LO);
  ASSERT_TRUE(On.Jit);
  ASSERT_FALSE(Off.Jit);

  Executor A(compileSpec(Spec, Batch, On));
  Executor B(compileSpec(Spec, Batch, Off));
  ASSERT_TRUE(A.program().Plan.Valid);
  ASSERT_TRUE(B.program().Plan.Valid);
  // The module must actually be live on the JIT side — a silent fallback
  // would make this whole test vacuous.
  ASSERT_TRUE(A.jitActive())
      << Spec.Name << " base mask 0x" << std::hex << BaseMask << std::dec
      << ": JIT inactive: " << A.jitDiagnostic();
  EXPECT_GT(A.jitTaskCount(), 0);
  EXPECT_FALSE(B.jitActive());

  A.initParams(42);
  B.initParams(42);
  Tensor In(Spec.InputDims.withPrefix(Batch));
  Rng R(7);
  R.fillGaussian(In, 0.0f, 1.0f);
  A.setInput(In);
  B.setInput(In);
  Tensor Labels(Shape{Batch, 1});
  for (int64_t I = 0; I < Batch; ++I)
    Labels.at(I) = static_cast<float>(I % Spec.NumClasses);
  A.setLabels(Labels);
  B.setLabels(Labels);

  const int Epochs = verify::deepTier() ? 4 : 2;
  for (int Epoch = 0; Epoch < Epochs; ++Epoch) {
    A.forward();
    A.backward();
    B.forward();
    B.backward();
  }

  const MemoryPlan &PlanA = A.program().Plan;
  const MemoryPlan &PlanB = B.program().Plan;
  int Compared = 0;
  for (const BufferLifetime &L : PlanA.Lifetimes) {
    if (L.Bytes == 0 || !PlanA.retainedAtExit(L.Name) ||
        !PlanB.retainedAtExit(L.Name))
      continue;
    Tensor TA = A.readBuffer(L.Name);
    Tensor TB = B.readBuffer(L.Name);
    ASSERT_EQ(TA.numElements(), TB.numElements()) << L.Name;
    ASSERT_EQ(std::memcmp(TA.data(), TB.data(),
                          sizeof(float) * TA.numElements()),
              0)
        << Spec.Name << " base mask 0x" << std::hex << BaseMask << std::dec
        << ": buffer '" << L.Name
        << "' diverged between JIT and interpreter";
    ++Compared;
  }
  // Params, param grads, values and the data gradient must all have been
  // comparable; a collapse here means retainedAtExit regressed.
  EXPECT_GT(Compared, 4) << Spec.Name << " base mask " << BaseMask;
}

void diffAllBaseMasks(const models::ModelSpec &Spec, int64_t Batch) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable in this build/environment";
  // Per-PR: the 32 recompute-free base points (every switch below
  // Recompute's bit). Deep tier: all 64 base points of the non-JIT lattice
  // (JIT x recompute interplay).
  const unsigned Limit =
      verify::deepTier() ? verify::kJitMask : verify::kRecomputeMask;
  for (unsigned Base = 0; Base < Limit; ++Base)
    diffOneBaseMask(Spec, Batch, Base);
}

} // namespace

TEST(JitDiffTest, MlpBitIdenticalAcrossLattice) {
  // Fully-connected layers: GEMM-matched points dispatch kernels through
  // the trampoline, unmatched points run generated loop nests — both paths
  // must be bit-exact against the interpreter at every base point.
  diffAllBaseMasks(models::mlp(12, {16, 8}, 4), /*Batch=*/2);
}

TEST(JitDiffTest, ColumnBlockedFcBitIdentical) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable in this build/environment";
  // Both hidden layers' forward and input-gradient GEMMs (2 x 1024 x 1024)
  // take the column split (compiler/gradpart.h); the JIT's parallel column
  // loops must match the interpreter's.
  const models::ModelSpec Spec = models::mlp(1024, {1024, 1024}, 4);
  const unsigned Base =
      verify::kGemmMask | verify::kKernelsMask | verify::kParallelizeMask;
  const Program P = compileSpec(Spec, 2, verify::optionsForMask(Base));
  // N = 1024 is two whole blocks and no tail: each unit is the loop alone.
  int ColumnLoops = 0;
  for (const ir::Stmt *Pass : {P.Forward.get(), P.Backward.get()})
    for (const ir::StmtPtr &U : cast<ir::BlockStmt>(Pass)->stmts())
      if (const auto *F = dyn_cast<ir::ForStmt>(U.get()))
        ColumnLoops += F->var() == "cb";
  EXPECT_EQ(ColumnLoops, 4);
  diffOneBaseMask(Spec, /*Batch=*/2, Base);
}

TEST(JitDiffTest, PaddedConvPoolBitIdenticalAcrossLattice) {
  // Padded conv + ReLU + max pool: exercises gather/scatter index tables
  // (int32 buffers through the ABI), pooling argmax masks, and the
  // collapsed batch x tile parallel loops in generated code.
  diffAllBaseMasks(models::vggFirstThreeLayers(0.06), /*Batch=*/2);
}
