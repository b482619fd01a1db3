//===- tests/verify/memplan_diff_test.cpp ---------------------*- C++ -*-===//
///
/// Differential verification of the memory planner: for every swept point
/// of the 2^7 optimization lattice (verify::sweepMasks — all 128 under
/// LATTE_DEEP=1), run the same program twice — once with the
/// planned arena active and once with ExecOptions::NoMemPlan (eager
/// one-buffer-per-root allocation, the pre-planner behavior) — and require
/// the results to be BITWISE identical. The arena only changes where
/// buffers live, never what is computed, so any difference at all is a
/// planner bug (an unsound fold, a mis-scheduled lazy zero, a bad offset).
///
/// Comparability: only roots the plan guarantees intact at exit
/// (MemoryPlan::retainedAtExit) are compared — interval-allocated
/// gradients legitimately surrender their bytes after their last use.
/// Values, parameters, parameter gradients and the data gradient are all
/// retained, so the comparison covers everything training observes.
///
/// Parallel loops, backward included, are race-free and independent of
/// the thread count, so bitwise equality is a sound expectation even on
/// the Parallelize lattice points.
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

/// Runs forward+backward twice (planned vs eager) at one lattice point and
/// compares every retained-at-exit root bitwise.
void diffOneMask(const models::ModelSpec &Spec, int64_t Batch,
                 unsigned Mask) {
  verify::LatticeOptions LO; // tiny-net tile geometry so tiling triggers
  CompileOptions Opts = verify::optionsForMask(Mask, LO);

  ExecOptions Eager;
  Eager.NoMemPlan = true;

  Executor A(compileSpec(Spec, Batch, Opts));
  Executor B(compileSpec(Spec, Batch, Opts), Eager);
  ASSERT_TRUE(A.program().Plan.Valid);

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

  // Two epochs so the ZeroOn* reset paths (lazy per-unit clears on the
  // planned side, top-of-pass clears on the eager side) are exercised on
  // dirty buffers, not just on fresh zero-filled storage. The nightly
  // deep tier doubles that to catch state leaking across longer runs.
  const int Epochs = verify::deepTier() ? 4 : 2;
  for (int Epoch = 0; Epoch < Epochs; ++Epoch) {
    A.forward();
    A.backward();
    B.forward();
    B.backward();
  }

  const MemoryPlan &Plan = A.program().Plan;
  int Compared = 0;
  for (const BufferLifetime &L : Plan.Lifetimes) {
    if (L.Bytes == 0 || !Plan.retainedAtExit(L.Name))
      continue;
    Tensor TA = A.readBuffer(L.Name);
    Tensor TB = B.readBuffer(L.Name);
    ASSERT_EQ(TA.numElements(), TB.numElements()) << L.Name;
    ASSERT_EQ(std::memcmp(TA.data(), TB.data(),
                          sizeof(float) * TA.numElements()),
              0)
        << Spec.Name << " mask 0x" << std::hex << Mask << std::dec
        << ": buffer '" << L.Name << "' diverged between planned and eager";
    ++Compared;
  }
  // Params, param grads, values and the data gradient must all have been
  // comparable; a collapse here means retainedAtExit regressed.
  EXPECT_GT(Compared, 4) << Spec.Name << " mask " << Mask;
}

void diffAllMasks(const models::ModelSpec &Spec, int64_t Batch) {
  for (unsigned Mask : verify::sweepMasks())
    diffOneMask(Spec, Batch, Mask);
}

} // namespace

TEST(MemPlanDiffTest, MlpBitIdenticalAcrossLattice) {
  diffAllMasks(models::mlp(12, {16, 8}, 4), /*Batch=*/2);
}

TEST(MemPlanDiffTest, PaddedConvPoolBitIdenticalAcrossLattice) {
  // Padded conv + ReLU + max pool (the VGG microbenchmark stack at tiny
  // scale): exercises gathers/scatters, interval grad folding, and the
  // boundary-crossing im2col inputs.
  diffAllMasks(models::vggFirstThreeLayers(0.06), /*Batch=*/2);
}
