//===- tests/solvers/solvers_test.cpp -------------------------*- C++ -*-===//

#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "data/datasets.h"
#include "engine/executor.h"
#include "models/models.h"
#include "solvers/solvers.h"
#include "support/ltd_format.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

using namespace latte;
using namespace latte::solvers;

TEST(LrPolicyTest, Fixed) {
  LRPolicy P = LRPolicy::fixed(0.1);
  EXPECT_DOUBLE_EQ(P.at(0), 0.1);
  EXPECT_DOUBLE_EQ(P.at(1000), 0.1);
}

TEST(LrPolicyTest, InvMatchesFormula) {
  // The Figure 7 policy: LRPolicy.Inv(0.01, 0.0001, 0.75).
  LRPolicy P = LRPolicy::inv(0.01, 0.0001, 0.75);
  EXPECT_DOUBLE_EQ(P.at(0), 0.01);
  EXPECT_NEAR(P.at(10000), 0.01 * std::pow(2.0, -0.75), 1e-12);
  EXPECT_GT(P.at(100), P.at(1000));
}

namespace {

/// A tiny learnable problem: logistic regression on two separable blobs.
engine::Executor makeBlobNet(int64_t Batch) {
  core::Net Net(Batch);
  auto *Data = layers::DataLayer(Net, "data", Shape{2});
  auto *Fc = layers::FullyConnectedLayer(Net, "fc", Data, 2);
  auto *Labels = layers::LabelLayer(Net, "labels");
  layers::SoftmaxLossLayer(Net, "loss", Fc, Labels);
  return engine::Executor(compiler::compile(Net));
}

BatchProvider blobBatches() {
  return [](int64_t Iter, Tensor &Data, Tensor &Labels) {
    Rng R(1000 + Iter);
    int64_t B = Data.shape().dim(0);
    for (int64_t I = 0; I < B; ++I) {
      int64_t L = R.uniformInt(2);
      Data.at(I * 2) = static_cast<float>((L ? 2.5 : -2.5) + R.gaussian());
      Data.at(I * 2 + 1) =
          static_cast<float>((L ? -2.0 : 2.0) + R.gaussian());
      Labels.at(I) = static_cast<float>(L);
    }
  };
}

double trainAndMeasure(SgdSolver &S, int64_t Batch = 32) {
  engine::Executor Ex = makeBlobNet(Batch);
  Ex.initParams(5);
  TrainStats Last = solve(S, Ex, blobBatches());
  return Last.Accuracy;
}

} // namespace

TEST(SolverTest, SgdLearnsSeparableBlobs) {
  SolverParameters P;
  P.Lr = LRPolicy::fixed(0.1);
  P.Momentum = MomPolicy::fixed(0.9);
  P.MaxIters = 120;
  SgdSolver S(P);
  EXPECT_GE(trainAndMeasure(S), 0.85);
}

TEST(SolverTest, WeightDecayShrinksWeights) {
  SolverParameters P;
  P.Lr = LRPolicy::fixed(0.1);
  P.Momentum = MomPolicy::fixed(0.0);
  P.ReguCoef = 0.5;
  P.MaxIters = 1;
  SgdSolver S(P);
  engine::Executor Ex = makeBlobNet(4);
  Ex.initParams(7);
  // Zero gradients, then a step must shrink weights by lr*regu fraction.
  Tensor W0 = Ex.readBuffer("fc_weights");
  Ex.forward();
  Ex.backward();
  // Overwrite gradients with zero to isolate the decay term.
  Tensor Z(Ex.shape("fc_grad_weights"));
  Ex.writeBuffer("fc_grad_weights", Z);
  Tensor Zb(Ex.shape("fc_grad_bias"));
  Ex.writeBuffer("fc_grad_bias", Zb);
  S.step(Ex, 0);
  Tensor W1 = Ex.readBuffer("fc_weights");
  for (int64_t I = 0; I < W0.numElements(); ++I)
    EXPECT_NEAR(W1.at(I), W0.at(I) * (1.0f - 0.1f * 0.5f), 1e-5f);
}

TEST(SolverTest, MomentumAcceleratesAlongConstantGradient) {
  SolverParameters P;
  P.Lr = LRPolicy::fixed(1.0);
  P.Momentum = MomPolicy::fixed(0.5);
  P.MaxIters = 1;
  SgdSolver S(P);
  engine::Executor Ex = makeBlobNet(4);
  Ex.initParams(7);
  Tensor W0 = Ex.readBuffer("fc_weights");
  // Constant gradient of 1 for two steps: velocities -1 then -1.5.
  Tensor G(Ex.shape("fc_grad_weights"));
  G.fill(1.0f);
  Ex.writeBuffer("fc_grad_weights", G);
  S.step(Ex, 0);
  Tensor W1 = Ex.readBuffer("fc_weights");
  EXPECT_NEAR(W1.at(0), W0.at(0) - 1.0f, 1e-5f);
  Ex.writeBuffer("fc_grad_weights", G);
  S.step(Ex, 1);
  Tensor W2 = Ex.readBuffer("fc_weights");
  EXPECT_NEAR(W2.at(0), W1.at(0) - 1.5f, 1e-5f);
}

TEST(SolverTest, StepAppliesEachBindingsLrMult) {
  // Bias fields carry LrMult = 2: from zero history one step moves the
  // bias by twice the rate the weights move by.
  SolverParameters P;
  P.Lr = LRPolicy::fixed(0.01);
  P.Momentum = MomPolicy::fixed(0.9);
  SgdSolver S(P);
  engine::Executor Ex = makeBlobNet(4);
  Ex.initParams(7);
  std::map<std::string, double> LrMult;
  for (const compiler::ParamBinding &B : Ex.program().Params)
    LrMult[B.Param] = B.LrMult;
  ASSERT_EQ(LrMult, (std::map<std::string, double>{{"fc_bias", 2.0},
                                                   {"fc_weights", 1.0}}));
  Tensor W0 = Ex.readBuffer("fc_weights"), B0 = Ex.readBuffer("fc_bias");
  Tensor Gw(Ex.shape("fc_grad_weights")), Gb(Ex.shape("fc_grad_bias"));
  Rng(11).fillGaussian(Gw, 0.0f, 1.0f);
  Rng(12).fillGaussian(Gb, 0.0f, 1.0f);
  Ex.writeBuffer("fc_grad_weights", Gw);
  Ex.writeBuffer("fc_grad_bias", Gb);
  S.step(Ex, 0);
  const float Lr = 0.01f;
  Tensor W1 = Ex.readBuffer("fc_weights"), B1 = Ex.readBuffer("fc_bias");
  for (int64_t I = 0; I < W0.numElements(); ++I)
    EXPECT_FLOAT_EQ(W1.at(I), W0.at(I) - Lr * Gw.at(I)) << "weight " << I;
  for (int64_t I = 0; I < B0.numElements(); ++I)
    EXPECT_FLOAT_EQ(B1.at(I), B0.at(I) - (2 * Lr) * Gb.at(I)) << "bias " << I;
}

TEST(SolverDeathTest, HistoryOfAnotherSizeIsFatal) {
  // One solver stepping two nets whose parameters share a name: the second
  // net's fc_weights has 4,000 floats, the stored history 4.
  auto FcNet = [](int64_t In, int64_t Out) {
    core::Net Net(1);
    auto *Data = layers::DataLayer(Net, "data", Shape{In});
    layers::FullyConnectedLayer(Net, "fc", Data, Out);
    return engine::Executor(compiler::compile(Net));
  };
  engine::Executor Small = FcNet(2, 2), Large = FcNet(40, 100);
  ASSERT_EQ(Small.size("fc_weights"), 4);
  ASSERT_EQ(Large.size("fc_weights"), 4000);
  SolverParameters P;
  SgdSolver S(P);
  S.step(Small, 0);
  EXPECT_DEATH(S.step(Large, 1), "parameter 'fc_weights' has 4000 elements, "
                                 "but its stored history has 4");
}

TEST(DatasetTest, SyntheticMnistDeterministicAndLabeled) {
  data::SyntheticMnist Ds(100);
  EXPECT_EQ(Ds.itemDims(), Shape({1, 28, 28}));
  Tensor A(Ds.itemDims()), B(Ds.itemDims());
  int64_t La = Ds.fillItem(17, A.data());
  int64_t Lb = Ds.fillItem(17, B.data());
  EXPECT_EQ(La, Lb);
  EXPECT_EQ(La, 17 % 10);
  EXPECT_EQ(A.firstMismatch(B, 0.0f), -1);
  // Different items differ.
  Ds.fillItem(27, B.data());
  EXPECT_NE(A.firstMismatch(B, 1e-3f), -1);
}

TEST(DatasetTest, LtdRoundTrip) {
  data::SyntheticMnist Ds(8, 42, 4, 12, 0.1f, 1);
  std::string Path = testing::TempDir() + "/mnist.ltd";
  ASSERT_TRUE(writeDatasetLtd(Ds, Path));
  data::MemoryDataset Loaded = data::readDatasetLtd(Path);
  EXPECT_EQ(Loaded.size(), 8);
  EXPECT_EQ(Loaded.itemDims(), Shape({1, 12, 12}));
  Tensor A(Ds.itemDims()), B(Loaded.itemDims());
  EXPECT_EQ(Ds.fillItem(3, A.data()), Loaded.fillItem(3, B.data()));
  EXPECT_EQ(A.firstMismatch(B, 0.0f), -1);
  std::remove(Path.c_str());
}

TEST(DatasetDeathTest, LtdShapeMismatchIsFatal) {
  // 10 items over 3 labels would read past the label tensor in fillItem.
  std::string Path = testing::TempDir() + "/mislabeled.ltd";
  ASSERT_TRUE(writeLtdFile(Path, {{"data", Tensor(Shape{10, 2})},
                                  {"label", Tensor(Shape{3})}}));
  EXPECT_DEATH(data::readDatasetLtd(Path),
               "mislabeled.ltd: 10 items but 3 labels");
  ASSERT_TRUE(writeLtdFile(Path, {{"data", Tensor(Shape{10})},
                                  {"label", Tensor(Shape{10})}}));
  EXPECT_DEATH(data::readDatasetLtd(Path),
               "mislabeled.ltd: 'data' must be \\(items, dims...\\)");
  std::remove(Path.c_str());
}

TEST(DatasetDeathTest, LtdLabelThatIsNoClassIndexIsFatal) {
  // fillItem casts each label to a class index: 2.7 would train as class
  // 2 and NaN is undefined behaviour in the cast.
  std::string Path = testing::TempDir() + "/badlabel.ltd";
  const float Bad[] = {2.7f, -1.0f, std::nanf(""), 16777216.0f};
  const char *Shown[] = {"2.7", "-1", "nan", "1.67772e\\+07"};
  for (int K = 0; K < 4; ++K) {
    Tensor Labels(Shape{3});
    Labels.at(0) = 1.0f;
    Labels.at(2) = Bad[K];
    ASSERT_TRUE(writeLtdFile(Path, {{"data", Tensor(Shape{3, 2})},
                                    {"label", Labels}}));
    EXPECT_DEATH(data::readDatasetLtd(Path),
                 std::string("badlabel.ltd: item 2 has label -?") + Shown[K] +
                     ", not a class index");
  }
  // The largest label a float holds exactly still loads.
  Tensor Labels(Shape{1});
  Labels.at(0) = 16777215.0f;
  ASSERT_TRUE(
      writeLtdFile(Path, {{"data", Tensor(Shape{1, 2})}, {"label", Labels}}));
  Tensor Item(Shape{2});
  EXPECT_EQ(data::readDatasetLtd(Path).fillItem(0, Item.data()), 16777215);
  std::remove(Path.c_str());
}

TEST(DatasetTest, MlpLearnsSyntheticMnist) {
  // End-to-end sanity: a small MLP reaches high accuracy quickly on the
  // synthetic digits (the full >99% run lives in the Figure 20 bench).
  data::SyntheticMnist Ds(512, 7, 10, 14, 0.15f, 1);
  core::Net Net(16);
  models::ModelSpec Spec = models::mlp(14 * 14, {64}, 10);
  Spec.InputDims = Shape{1, 14, 14};
  models::buildLatte(Net, Spec, true);
  engine::Executor Ex(compiler::compile(Net));
  Ex.initParams(3);

  SolverParameters P;
  P.Lr = LRPolicy::inv(0.05, 0.0001, 0.75);
  P.Momentum = MomPolicy::fixed(0.9);
  P.MaxIters = 150;
  SgdSolver S(P);
  solve(S, Ex, data::batchesOf(Ds));
  EXPECT_GE(data::evaluateAccuracy(Ex, Ds, 256), 0.95);
}
