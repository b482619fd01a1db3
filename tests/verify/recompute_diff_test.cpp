//===- tests/verify/recompute_diff_test.cpp -------------------*- C++ -*-===//
///
/// Differential verification of the recompute (rematerialization) pass:
/// for every base point of the 2^5 lattice below Recompute's bit (JIT off),
/// run the same program twice — once at mask m|kRecomputeMask (recompute
/// on, gather buffers re-produced in backward) and once at mask m
/// (recompute off, gathers retained across the forward/backward
/// boundary) — and require weights, gradients and every other
/// commonly-retained root to be BITWISE identical. Recompute trades memory
/// for data movement; it must never change a value: the clone re-gathers
/// from retained Value/Data sources whose bytes are exactly what forward
/// produced, so any difference at all is a legality bug (a non-pure clone,
/// a clobbered source, a bad insertion point).
///
/// Comparability: the recompute-on plan no longer retains the
/// rematerialized gather roots at exit, so the comparison covers the roots
/// retained by BOTH plans — params, param grads, values, data gradient —
/// which is everything training observes.
///
/// Parallel loops, backward included, are race-free and independent of
/// the thread count, so bitwise equality is a sound expectation even on
/// the Parallelize points. The nightly deep tier (LATTE_DEEP=1) doubles
/// the epoch count to catch state leaking across longer runs.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"
#include "engine/executor.h"
#include "models/models.h"
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

/// Runs forward+backward twice (recompute on vs off) at one base lattice
/// point and compares every root retained by both plans bitwise.
void diffOneBaseMask(const models::ModelSpec &Spec, int64_t Batch,
                     unsigned BaseMask) {
  verify::LatticeOptions LO; // tiny-net tile geometry so tiling triggers
  CompileOptions On =
      verify::optionsForMask(BaseMask | verify::kRecomputeMask, LO);
  CompileOptions Off = verify::optionsForMask(BaseMask, LO);
  ASSERT_TRUE(On.Recompute);
  ASSERT_FALSE(Off.Recompute);

  Executor A(compileSpec(Spec, Batch, On));
  Executor B(compileSpec(Spec, Batch, Off));
  ASSERT_TRUE(A.program().Plan.Valid);
  ASSERT_TRUE(B.program().Plan.Valid);
  EXPECT_TRUE(B.program().Recomputes.empty());

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
        << "' diverged between recompute-on and recompute-off";
    ++Compared;
  }
  // Params, param grads, values and the data gradient must all have been
  // comparable; a collapse here means retainedAtExit regressed.
  EXPECT_GT(Compared, 4) << Spec.Name << " base mask " << BaseMask;
}

void diffAllBaseMasks(const models::ModelSpec &Spec, int64_t Batch) {
  for (unsigned Base = 0; Base < verify::kRecomputeMask; ++Base)
    diffOneBaseMask(Spec, Batch, Base);
}

} // namespace

TEST(RecomputeDiffTest, MlpBitIdenticalAcrossLattice) {
  // MLPs have no gather producers, so recompute must be a clean no-op at
  // every point (and the pass must not disturb anything while finding no
  // candidates).
  diffAllBaseMasks(models::mlp(12, {16, 8}, 4), /*Batch=*/2);
}

TEST(RecomputeDiffTest, PaddedConvPoolBitIdenticalAcrossLattice) {
  // Padded conv + ReLU + max pool: the im2col inputs buffer crosses the
  // forward/backward boundary and is actually rematerialized, so this
  // exercises the real clone-insert-and-replan path at every base point.
  diffAllBaseMasks(models::vggFirstThreeLayers(0.06), /*Batch=*/2);
}
