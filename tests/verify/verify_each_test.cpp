//===- tests/verify/verify_each_test.cpp ----------------------*- C++ -*-===//
///
/// Zero-false-positive proof for the static verifier: every swept point of
/// the 2^7 optimization lattice is compiled with LatticeOptions::VerifyEach,
/// which runs analyze::verifyProgram on each compiled program and aborts
/// on any Error diagnostic. A passing lattice run therefore certifies
/// that the verifier accepts everything the compiler legitimately emits —
/// across pattern matching, tiling, fusion, parallelization, recompute and
/// the JIT probes, on both a GEMM-heavy MLP and a padded conv/pool net.
///
//===----------------------------------------------------------------------===//

#include "verify/lattice.h"

#include "core/layers/layers.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::core;
using namespace latte::layers;

namespace {

void buildMlp(Net &Net) {
  Ensemble *Data = DataLayer(Net, "data", Shape{12});
  Ensemble *Fc1 = FullyConnectedLayer(Net, "fc1", Data, 10);
  Ensemble *Act1 = ReluLayer(Net, "relu1", Fc1, /*InPlace=*/true);
  Ensemble *Pr = PReluLayer(Net, "prelu", Act1);
  Ensemble *Fc2 = FullyConnectedLayer(Net, "fc2", Pr, 8);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc2, Labels);
}

/// Padding exercises the inexact-window footprints and their bound
/// regions; pooling exercises both window kernels and the argmax mask.
void buildPaddedConvNet(Net &Net) {
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

} // namespace

TEST(VerifyEachTest, MlpLatticeVerifiesEveryPoint) {
  Net Net(3);
  buildMlp(Net);
  verify::LatticeOptions O;
  O.VerifyEach = true;
  verify::LatticeReport R = verify::runLattice(Net, O, "verify-each MLP");
  EXPECT_TRUE(R.Passed) << R.summary();
  EXPECT_EQ(R.PointsRun, static_cast<int>(verify::sweepMasks().size()));
}

TEST(VerifyEachTest, PaddedConvLatticeVerifiesEveryPoint) {
  Net Net(2);
  buildPaddedConvNet(Net);
  verify::LatticeOptions O;
  O.VerifyEach = true;
  verify::LatticeReport R =
      verify::runLattice(Net, O, "verify-each padded conv net");
  EXPECT_TRUE(R.Passed) << R.summary();
  EXPECT_EQ(R.PointsRun, static_cast<int>(verify::sweepMasks().size()));
}
