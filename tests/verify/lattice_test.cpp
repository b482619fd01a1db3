//===- tests/verify/lattice_test.cpp --------------------------*- C++ -*-===//
///
/// The optimization-lattice differential oracle: the swept combinations of
/// the eight CompileOptions switches (all 2^8 = 256 points at the deep
/// tier, the curated verify::sweepMasks() subset per-PR) must produce the
/// same forward outputs and parameter gradients as the fully-unoptimized
/// interpreter, on three hand-built nets covering the GEMM path, the
/// kernel-match path, and the interpreted/custom path. Also covers the
/// per-pass snapshot machinery (compiler::compileStaged) and divergence
/// localization.
///
//===----------------------------------------------------------------------===//

#include "verify/lattice.h"

#include "core/layers/layers.h"
#include "models/models.h"
#include "verify/random_net.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace latte;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::layers;

namespace {

/// data{12} -> FC -> ReLU(in place) -> dropout -> FC -> Tanh(copy) -> FC
/// -> softmax loss: exercises GEMM matching, in-place aliasing, dropout
/// determinism and activation kernels.
void buildMlp(Net &Net) {
  Ensemble *Data = DataLayer(Net, "data", Shape{12});
  Ensemble *Fc1 = FullyConnectedLayer(Net, "fc1", Data, 10);
  Ensemble *Act1 = ReluLayer(Net, "relu1", Fc1, /*InPlace=*/true);
  Ensemble *Drop = DropoutLayer(Net, "drop", Act1, 0.8);
  Ensemble *Fc2 = FullyConnectedLayer(Net, "fc2", Drop, 8);
  Ensemble *Act2 = TanhLayer(Net, "tanh2", Fc2, /*InPlace=*/false);
  Ensemble *Fc3 = FullyConnectedLayer(Net, "fc3", Act2, 4);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc3, Labels);
}

/// data{2,8,8} -> conv -> maxpool -> ReLU -> conv -> avgpool -> FC ->
/// loss: convolution windows with padding, both pooling kernels, spatial
/// shapes. The ReLU sits after the max pool: exact zeros ahead of a max
/// window create argmax ties whose gradient routing legitimately differs
/// between the interpreter and the matched kernel.
void buildConvNet(Net &Net) {
  Ensemble *Data = DataLayer(Net, "data", Shape{2, 8, 8});
  Ensemble *C1 = ConvolutionLayer(Net, "conv1", Data, 4, 3, 1, 1);
  Ensemble *P1 = MaxPoolingLayer(Net, "pool1", C1, 2, 2);
  Ensemble *A1 = ReluLayer(Net, "relu1", P1, /*InPlace=*/false);
  Ensemble *C2 = ConvolutionLayer(Net, "conv2", A1, 3, 3, 1, 1);
  Ensemble *P2 = AvgPoolingLayer(Net, "pool2", C2, 2, 2);
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", P2, 5);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc, Labels);
}

/// Branching elementwise net with researcher-defined ensembles: two FC
/// branches joined by Add/Mul, a PReLU and a custom ScaledTanh (both
/// always interpreted), then the classifier. Exercises partial matching:
/// optimized and interpreted ensembles coexist in one program.
void buildCustomNet(Net &Net) {
  Ensemble *Data = DataLayer(Net, "data", Shape{6});
  Ensemble *A = FullyConnectedLayer(Net, "bra", Data, 7);
  Ensemble *B = FullyConnectedLayer(Net, "brb", Data, 7);
  Ensemble *Add = AddLayer(Net, "add", {A, B});
  Ensemble *St = verify::ScaledTanhLayer(Net, "stanh", Add);
  Ensemble *C = FullyConnectedLayer(Net, "brc", St, 7);
  Ensemble *Mul = MulLayer(Net, "mul", St, C);
  Ensemble *Pr = PReluLayer(Net, "prelu", Mul);
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Pr, 3);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc, Labels);
}

} // namespace

TEST(LatticeTest, OptionsForMaskCoversAllSwitches) {
  EXPECT_EQ(verify::kNumLatticeSwitches, 8u);
  CompileOptions None = verify::optionsForMask(0);
  EXPECT_FALSE(None.PatternMatchGemm || None.PatternMatchKernels ||
               None.Tiling || None.Fusion || None.Parallelize ||
               None.VectorKernels || None.Recompute || None.Jit);
  CompileOptions All = verify::optionsForMask(255);
  EXPECT_TRUE(All.PatternMatchGemm && All.PatternMatchKernels && All.Tiling &&
              All.Fusion && All.Parallelize && All.VectorKernels &&
              All.Recompute && All.Jit);
  // Each bit flips exactly one switch.
  for (unsigned Bit = 0; Bit < verify::kNumLatticeSwitches; ++Bit) {
    CompileOptions C = verify::optionsForMask(1u << Bit);
    int On = C.PatternMatchGemm + C.PatternMatchKernels + C.Tiling +
             C.Fusion + C.Parallelize + C.VectorKernels + C.Recompute +
             C.Jit;
    EXPECT_EQ(On, 1) << "bit " << Bit;
  }
  std::string S = verify::flagString(All);
  EXPECT_NE(S.find("gemm=1"), std::string::npos);
  EXPECT_NE(S.find("vector=1"), std::string::npos);
  EXPECT_NE(S.find("recompute=1"), std::string::npos);
  EXPECT_NE(S.find("jit=1"), std::string::npos);
}

TEST(LatticeTest, SweepMasksCoverTier) {
  std::vector<unsigned> Masks = verify::sweepMasks();
  ASSERT_FALSE(Masks.empty());
  EXPECT_EQ(Masks.front(), 0u); // the reference point leads
  if (verify::deepTier()) {
    EXPECT_EQ(Masks.size(), 1u << verify::kNumLatticeSwitches);
  } else {
    // Per-PR tier: reference + full recompute-on sub-lattice + the
    // all-but-recompute point + three JIT probes, at roughly the
    // pre-recompute sweep cost (the full JIT x base cross product lives in
    // jit_diff_test and the deep tier).
    EXPECT_EQ(Masks.size(), 69u);
    EXPECT_NE(std::find(Masks.begin(), Masks.end(), 0x7fu), Masks.end());
    EXPECT_NE(std::find(Masks.begin(), Masks.end(), 0x3fu), Masks.end());
    EXPECT_NE(std::find(Masks.begin(), Masks.end(), 0x80u), Masks.end());
    EXPECT_NE(std::find(Masks.begin(), Masks.end(), 0xC0u), Masks.end());
    EXPECT_NE(std::find(Masks.begin(), Masks.end(), 0xFFu), Masks.end());
  }
  for (unsigned M : Masks)
    EXPECT_LT(M, 1u << verify::kNumLatticeSwitches);
}

TEST(LatticeTest, MlpLattice) {
  Net Net(3);
  buildMlp(Net);
  verify::LatticeReport R = verify::runLattice(Net, {}, "hand-built MLP");
  EXPECT_TRUE(R.Passed) << R.summary();
  EXPECT_EQ(R.PointsRun, static_cast<int>(verify::sweepMasks().size()));
  EXPECT_GT(R.BuffersCompared, 0);
}

TEST(LatticeTest, ConvNetLattice) {
  Net Net(2);
  buildConvNet(Net);
  verify::LatticeReport R = verify::runLattice(Net, {}, "hand-built ConvNet");
  EXPECT_TRUE(R.Passed) << R.summary();
  EXPECT_EQ(R.PointsRun, static_cast<int>(verify::sweepMasks().size()));
}

TEST(LatticeTest, CustomNeuronLattice) {
  Net Net(2);
  buildCustomNet(Net);
  verify::LatticeReport R =
      verify::runLattice(Net, {}, "hand-built custom/branching net");
  EXPECT_TRUE(R.Passed) << R.summary();
  EXPECT_EQ(R.PointsRun, static_cast<int>(verify::sweepMasks().size()));
}

TEST(LatticeTest, UnrolledLstmLattice) {
  // The unrolled shared-weight LSTM across the whole per-PR mask tier:
  // tied-gate GEMM matching, fusion, memory planning over aliased weight
  // roots, and the JIT probes must all stay bitwise faithful to the
  // interpreter, gradients included (BPTT).
  Net Net(2);
  models::buildLatte(Net, models::lstmClassifier(3, 4, 3, 3),
                     /*WithLoss=*/true);
  verify::LatticeReport R =
      verify::runLattice(Net, {}, "unrolled LSTM classifier");
  EXPECT_TRUE(R.Passed) << R.summary();
  EXPECT_EQ(R.PointsRun, static_cast<int>(verify::sweepMasks().size()));
}

TEST(LatticeTest, UnrolledGruLattice) {
  Net Net(2);
  models::buildLatte(Net, models::gruClassifier(3, 4, 3, 3),
                     /*WithLoss=*/true);
  verify::LatticeReport R =
      verify::runLattice(Net, {}, "unrolled GRU classifier");
  EXPECT_TRUE(R.Passed) << R.summary();
}

TEST(LatticeTest, AttentionLattice) {
  // First non-affine connection pattern through the sweep: dot-product
  // scores, the last-axis softmax, and the probability-weighted readout.
  Net Net(2);
  models::buildLatte(Net, models::attentionClassifier(3, 4, 3, 3),
                     /*WithLoss=*/true);
  verify::LatticeReport R =
      verify::runLattice(Net, {}, "single-head attention classifier");
  EXPECT_TRUE(R.Passed) << R.summary();
  EXPECT_EQ(R.PointsRun, static_cast<int>(verify::sweepMasks().size()));
}

TEST(LatticeTest, SummaryCarriesReproductionSeeds) {
  Net Net(2);
  buildMlp(Net);
  verify::LatticeOptions O;
  O.ParamSeed = 0xABC;
  O.DataSeed = 0xDEF;
  verify::LatticeReport R = verify::runLattice(Net, O, "seed echo");
  std::string S = R.summary();
  EXPECT_NE(S.find("0xabc"), std::string::npos) << S;
  EXPECT_NE(S.find("0xdef"), std::string::npos) << S;
  EXPECT_NE(S.find("seed echo"), std::string::npos) << S;
}

TEST(LatticeTest, CompileStagedSnapshotsPipeline) {
  Net Net(2);
  buildMlp(Net);
  CompileOptions All = verify::optionsForMask(127);
  std::vector<PassStage> Stages = compileStaged(Net, All);
  // baseline + one stage per enabled switch.
  ASSERT_EQ(Stages.size(), 8u);
  EXPECT_EQ(Stages.front().Name, "baseline");
  EXPECT_EQ(Stages.back().Name, "+recompute");
  for (const PassStage &S : Stages) {
    EXPECT_FALSE(S.ForwardIR.empty()) << S.Name;
    EXPECT_FALSE(S.BackwardIR.empty()) << S.Name;
  }
  // Disabling a switch drops its stage.
  CompileOptions NoTiling = All;
  NoTiling.Tiling = false;
  EXPECT_EQ(compileStaged(Net, NoTiling).size(), 7u);

  // Snapshots change as passes land: the baseline and fully-optimized
  // forward IR must differ (GEMM calls replace loop nests).
  EXPECT_NE(Stages.front().ForwardIR, Stages.back().ForwardIR);
}

TEST(LatticeTest, LocalizeDivergenceCleanOnCorrectCompiler) {
  // With a correct compiler no stage diverges; the localizer agrees with
  // the lattice's verdict.
  Net Net(2);
  buildConvNet(Net);
  verify::StageDivergence D =
      verify::localizeDivergence(Net, verify::optionsForMask(127), {});
  EXPECT_FALSE(D.Found) << "stage " << D.Stage << " diverged on buffer "
                        << D.Divergence.Buffer;
}

TEST(LatticeTest, DivergenceIsDetectedAndLocalized) {
  // End-to-end proof the oracle can actually fail: compare against a
  // tolerance so tight that float32 reassociation between the interpreter
  // and the GEMM path trips it, and check the report names a buffer and a
  // reproducing mask.
  Net Net(3);
  buildMlp(Net);
  verify::LatticeOptions Strict;
  Strict.AbsTol = 0.0f;
  Strict.RelTol = 0.0f;
  Strict.CheckGradients = true;
  verify::LatticeReport R = verify::runLattice(Net, Strict, "strict");
  ASSERT_FALSE(R.Passed);
  ASSERT_FALSE(R.Failures.empty());
  const verify::LatticePointResult &F = R.Failures.front();
  EXPECT_FALSE(F.First.Buffer.empty());
  EXPECT_GT(F.Mask, 0u);
  std::string S = R.summary();
  EXPECT_NE(S.find("FAIL"), std::string::npos);
  EXPECT_NE(S.find(F.First.Buffer), std::string::npos);

  // The per-pass localizer pins the same kind of noise to a single stage.
  verify::StageDivergence D = verify::localizeDivergence(Net, F.Opts, Strict);
  EXPECT_TRUE(D.Found);
  EXPECT_FALSE(D.Stage.empty());
  EXPECT_FALSE(D.Divergence.Buffer.empty());
}
