//===- tests/compiler/compile_exec_test.cpp -------------------*- C++ -*-===//
///
/// End-to-end compiler + engine tests: numeric correctness of matched
/// paths (FC GEMM, conv GEMM, pooling, activations), the interpreted
/// fallback, optimization-level equivalence, and finite-difference
/// gradient checks.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "engine/executor.h"
#include "verify/lattice.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace latte;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::engine;
using namespace latte::layers;

namespace {

Tensor filled(Shape S, std::function<float(int64_t)> Fn) {
  Tensor T(std::move(S));
  for (int64_t I = 0; I < T.numElements(); ++I)
    T.at(I) = Fn(I);
  return T;
}

} // namespace

TEST(CompileExecTest, FullyConnectedForwardMatchesByHand) {
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{3});
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Data, 2);
  (void)Fc;
  Program P = compile(Net);
  EXPECT_TRUE(P.Report.gemmMatched("fc"));

  Executor Ex(std::move(P));
  // x0 = (1, 2, 3), x1 = (0, 1, 0); W = [[1,0,0],[0,2,0]]; b = (10, 20).
  Ex.setInput(filled(Shape{2, 3}, [](int64_t I) {
    const float V[] = {1, 2, 3, 0, 1, 0};
    return V[I];
  }));
  Ex.writeBuffer("fc_weights", filled(Shape{2, 3}, [](int64_t I) {
                   const float V[] = {1, 0, 0, 0, 2, 0};
                   return V[I];
                 }));
  Ex.writeBuffer("fc_bias", filled(Shape{2, 1}, [](int64_t I) {
                   return I == 0 ? 10.0f : 20.0f;
                 }));
  Ex.forward();
  Tensor Out = Ex.readBuffer("fc_value");
  EXPECT_FLOAT_EQ(Out.at({0, 0}), 1 + 10);
  EXPECT_FLOAT_EQ(Out.at({0, 1}), 4 + 20);
  EXPECT_FLOAT_EQ(Out.at({1, 0}), 0 + 10);
  EXPECT_FLOAT_EQ(Out.at({1, 1}), 2 + 20);
}

TEST(CompileExecTest, ConvForwardMatchesByHand) {
  Net Net(1);
  Ensemble *Data = DataLayer(Net, "data", Shape{1, 3, 3});
  ConvolutionLayer(Net, "conv", Data, 1, 2, 1, 0);
  Program P = compile(Net);
  EXPECT_TRUE(P.Report.gemmMatched("conv"));

  Executor Ex(std::move(P));
  Ex.setInput(filled(Shape{1, 1, 3, 3},
                     [](int64_t I) { return static_cast<float>(I + 1); }));
  // Filter = [[1, 0], [0, 1]], bias = 0.5.
  Ex.writeBuffer("conv_weights", filled(Shape{1, 4}, [](int64_t I) {
                   return (I == 0 || I == 3) ? 1.0f : 0.0f;
                 }));
  Ex.writeBuffer("conv_bias",
                 filled(Shape{1, 1}, [](int64_t) { return 0.5f; }));
  Ex.forward();
  Tensor Out = Ex.readBuffer("conv_value");
  // Windows: {1,2,4,5} -> 1+5; {2,3,5,6} -> 2+6; {4..} -> 4+8; {5..} -> 5+9.
  EXPECT_FLOAT_EQ(Out.at(0), 6.5f);
  EXPECT_FLOAT_EQ(Out.at(1), 8.5f);
  EXPECT_FLOAT_EQ(Out.at(2), 12.5f);
  EXPECT_FLOAT_EQ(Out.at(3), 14.5f);
}

TEST(CompileExecTest, ConvWithPaddingZeroExtends) {
  Net Net(1);
  Ensemble *Data = DataLayer(Net, "data", Shape{1, 2, 2});
  ConvolutionLayer(Net, "conv", Data, 1, 3, 1, 1);
  Program P = compile(Net);
  Executor Ex(std::move(P));
  Ex.setInput(filled(Shape{1, 1, 2, 2}, [](int64_t) { return 1.0f; }));
  Ex.writeBuffer("conv_weights",
                 filled(Shape{1, 9}, [](int64_t) { return 1.0f; }));
  Ex.forward();
  Tensor Out = Ex.readBuffer("conv_value");
  // Top-left output sees a 2x2 live region of ones.
  EXPECT_FLOAT_EQ(Out.at(0), 4.0f);
}

TEST(CompileExecTest, ReluAndPoolMatchedAndCorrect) {
  Net Net(1);
  Ensemble *Data = DataLayer(Net, "data", Shape{1, 4, 4});
  Ensemble *Conv = ConvolutionLayer(Net, "conv", Data, 2, 1, 1, 0);
  Ensemble *Relu = ReluLayer(Net, "relu", Conv);
  MaxPoolingLayer(Net, "pool", Relu, 2, 2);
  Program P = compile(Net);
  EXPECT_TRUE(P.Report.gemmMatched("conv"));
  ASSERT_EQ(P.Report.MatchedPoolEnsembles.size(), 1u);
  ASSERT_EQ(P.Report.MatchedActivationEnsembles.size(), 1u);

  Executor Ex(std::move(P));
  Ex.setInput(filled(Shape{1, 1, 4, 4}, [](int64_t I) {
    return static_cast<float>(I) - 8.0f; // values -8..7
  }));
  // Identity 1x1 filters: channel0 = +x, channel1 = -x.
  Ex.writeBuffer("conv_weights", filled(Shape{2, 1}, [](int64_t I) {
                   return I == 0 ? 1.0f : -1.0f;
                 }));
  Ex.forward();
  Tensor Pool = Ex.readBuffer("pool_value");
  ASSERT_EQ(Pool.shape(), Shape({1, 2, 2, 2}));
  // Channel 0 after relu: max(x, 0); pooling picks the max of each 2x2.
  EXPECT_FLOAT_EQ(Pool.at({0, 0, 0, 0}), 0.0f);  // all negative -> 0
  EXPECT_FLOAT_EQ(Pool.at({0, 0, 1, 1}), 7.0f);  // bottom-right block
  // Channel 1 = relu(-x): top-left block has the most negative x.
  EXPECT_FLOAT_EQ(Pool.at({0, 1, 0, 0}), 8.0f);
  EXPECT_FLOAT_EQ(Pool.at({0, 1, 1, 1}), 0.0f);
}

TEST(CompileExecTest, VggStyleGroupIsFused) {
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{3, 16, 16});
  Ensemble *Conv = ConvolutionLayer(Net, "conv1", Data, 4, 3, 1, 1);
  Ensemble *Relu = ReluLayer(Net, "relu1", Conv);
  MaxPoolingLayer(Net, "pool1", Relu, 2, 2);
  CompileOptions Opts;
  Opts.TileSize = 4;
  Opts.MinRowsToTile = 4;
  Program P = compile(Net, Opts);
  ASSERT_EQ(P.Report.FusionGroups.size(), 1u);
  EXPECT_EQ(P.Report.FusionGroups[0],
            (std::vector<std::string>{"conv1", "relu1", "pool1"}));
  EXPECT_GT(P.Report.NumTiledLoops, 0);
}

TEST(CompileExecTest, OverlappingPoolIsNotFused) {
  // AlexNet-style 3x3 stride-2 pooling overlaps: no fusion with producer.
  Net Net(1);
  Ensemble *Data = DataLayer(Net, "data", Shape{2, 17, 17});
  Ensemble *Conv = ConvolutionLayer(Net, "conv1", Data, 2, 3, 1, 1);
  Ensemble *Relu = ReluLayer(Net, "relu1", Conv);
  MaxPoolingLayer(Net, "pool1", Relu, 3, 2);
  Program P = compile(Net);
  for (const auto &Group : P.Report.FusionGroups)
    for (const std::string &Name : Group)
      EXPECT_NE(Name, "pool1");
}

TEST(CompileExecTest, PaddedConvDoesNotFuseWithProducer) {
  // conv2 (3x3 stride 1, pad 1) consuming pool1 reads across tile rows:
  // fusion between pool1 and conv2 must not happen.
  Net Net(1);
  Ensemble *Data = DataLayer(Net, "data", Shape{2, 16, 16});
  Ensemble *Conv1 = ConvolutionLayer(Net, "conv1", Data, 2, 3, 1, 1);
  Ensemble *Pool1 = MaxPoolingLayer(Net, "pool1", Conv1, 2, 2);
  ConvolutionLayer(Net, "conv2", Pool1, 2, 3, 1, 1);
  Program P = compile(Net);
  for (const auto &Group : P.Report.FusionGroups)
    for (const std::string &Name : Group)
      EXPECT_NE(Name, "conv2");
}

TEST(CompileExecTest, InterpretedFallbackPRelu) {
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{4});
  PReluLayer(Net, "prelu", Data);
  Program P = compile(Net);
  ASSERT_EQ(P.Report.InterpretedEnsembles.size(), 1u);
  EXPECT_EQ(P.Report.InterpretedEnsembles[0], "prelu");

  Executor Ex(std::move(P));
  Ex.setInput(filled(Shape{2, 4}, [](int64_t I) {
    return static_cast<float>(I) - 3.5f; // mixed signs
  }));
  Ex.forward();
  Tensor Out = Ex.readBuffer("prelu_value");
  // Slope initialized to 0.25.
  EXPECT_FLOAT_EQ(Out.at(0), -3.5f * 0.25f);
  EXPECT_FLOAT_EQ(Out.at(7), 3.5f);
}

TEST(CompileExecTest, OptimizationLevelsAgree) {
  auto BuildAndRun = [](const CompileOptions &Opts) {
    Net Net(2);
    Ensemble *Data = DataLayer(Net, "data", Shape{3, 8, 8});
    Ensemble *Conv = ConvolutionLayer(Net, "conv1", Data, 4, 3, 1, 1);
    Ensemble *Relu = ReluLayer(Net, "relu1", Conv);
    Ensemble *Pool = MaxPoolingLayer(Net, "pool1", Relu, 2, 2);
    Ensemble *Fc = FullyConnectedLayer(Net, "fc", Pool, 5);
    Ensemble *Labels = LabelLayer(Net, "labels");
    SoftmaxLossLayer(Net, "loss", Fc, Labels);

    ExecOptions EO;
    EO.Parallel = Opts.Parallelize;
    Executor Ex(compile(Net, Opts), EO);
    Ex.initParams(1234);
    Rng R(777);
    Tensor In(Shape{2, 3, 8, 8});
    R.fillGaussian(In, 0.0f, 1.0f);
    Ex.setInput(In);
    Ex.setLabels(filled(Shape{2, 1}, [](int64_t I) {
      return static_cast<float>(I % 5);
    }));
    Ex.forward();
    Ex.backward();
    Tensor Grad = Ex.readBuffer("conv1_grad_weights");
    Tensor Prob = Ex.readBuffer(Ex.program().ProbBuffer);
    return std::pair<Tensor, Tensor>(std::move(Prob), std::move(Grad));
  };

  CompileOptions Ref;
  Ref.PatternMatchGemm = false;
  Ref.PatternMatchKernels = false;
  Ref.Tiling = false;
  Ref.Fusion = false;
  Ref.Parallelize = false;
  auto [RefProb, RefGrad] = BuildAndRun(Ref);

  // Every combination of the four switches below Parallelize's lattice bit;
  // Parallelize and Recompute keep their defaults.
  for (unsigned Mask = 0; Mask < verify::kParallelizeMask; ++Mask) {
    CompileOptions O;
    O.PatternMatchGemm = Mask & verify::kGemmMask;
    O.PatternMatchKernels = Mask & verify::kKernelsMask;
    O.Tiling = Mask & verify::kTilingMask;
    O.Fusion = Mask & verify::kFusionMask;
    O.TileSize = 4;
    O.MinRowsToTile = 2;
    auto [Prob, Grad] = BuildAndRun(O);
    EXPECT_EQ(Prob.firstMismatch(RefProb, 1e-4f, 1e-3f), -1)
        << "prob mismatch at options mask " << Mask;
    EXPECT_EQ(Grad.firstMismatch(RefGrad, 1e-3f, 1e-2f), -1)
        << "grad mismatch at options mask " << Mask;
  }
}

namespace {

/// Finite-difference gradient check of d(meanLoss)/d(param) at a few
/// sampled parameter positions.
void checkParamGradient(Executor &Ex, const std::string &ParamBuf,
                        const std::string &GradBuf, float Tol) {
  Ex.forward();
  Ex.backward();
  Tensor Grad = Ex.readBuffer(GradBuf);
  Tensor Param = Ex.readBuffer(ParamBuf);
  const float Eps = 1e-2f;
  int64_t N = Param.numElements();
  int64_t Stride = std::max<int64_t>(1, N / 7);
  for (int64_t I = 0; I < N; I += Stride) {
    float Orig = Param.at(I);
    Param.at(I) = Orig + Eps;
    Ex.writeBuffer(ParamBuf, Param);
    Ex.forward();
    double LossPlus = Ex.lossValue();
    Param.at(I) = Orig - Eps;
    Ex.writeBuffer(ParamBuf, Param);
    Ex.forward();
    double LossMinus = Ex.lossValue();
    Param.at(I) = Orig;
    Ex.writeBuffer(ParamBuf, Param);
    double Numeric = (LossPlus - LossMinus) / (2.0 * Eps);
    EXPECT_NEAR(Grad.at(I), Numeric, Tol)
        << ParamBuf << " element " << I;
  }
}

} // namespace

TEST(CompileExecTest, GradientCheckMlp) {
  Net Net(4);
  Ensemble *Data = DataLayer(Net, "data", Shape{6});
  Ensemble *Fc1 = FullyConnectedLayer(Net, "fc1", Data, 8);
  Ensemble *Act = TanhLayer(Net, "act1", Fc1);
  Ensemble *Fc2 = FullyConnectedLayer(Net, "fc2", Act, 3);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc2, Labels);

  Executor Ex(compile(Net));
  Ex.initParams(99);
  Rng R(5);
  Tensor In(Shape{4, 6});
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Ex.setLabels(filled(Shape{4, 1}, [](int64_t I) {
    return static_cast<float>(I % 3);
  }));
  checkParamGradient(Ex, "fc1_weights", "fc1_grad_weights", 2e-3f);
  checkParamGradient(Ex, "fc2_bias", "fc2_grad_bias", 2e-3f);
}

TEST(CompileExecTest, GradientCheckConvNet) {
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{2, 6, 6});
  Ensemble *Conv = ConvolutionLayer(Net, "conv", Data, 3, 3, 1, 1);
  Ensemble *Relu = ReluLayer(Net, "relu", Conv);
  Ensemble *Pool = MaxPoolingLayer(Net, "pool", Relu, 2, 2);
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Pool, 4);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc, Labels);

  Executor Ex(compile(Net));
  Ex.initParams(31);
  Rng R(6);
  Tensor In(Shape{2, 2, 6, 6});
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Ex.setLabels(filled(Shape{2, 1}, [](int64_t I) {
    return static_cast<float>(I % 4);
  }));
  checkParamGradient(Ex, "conv_weights", "conv_grad_weights", 5e-3f);
  checkParamGradient(Ex, "conv_bias", "conv_grad_bias", 5e-3f);
  checkParamGradient(Ex, "fc_weights", "fc_grad_weights", 5e-3f);
}

TEST(CompileExecTest, GradientCheckInterpretedPRelu) {
  Net Net(3);
  Ensemble *Data = DataLayer(Net, "data", Shape{5});
  Ensemble *Fc1 = FullyConnectedLayer(Net, "fc1", Data, 6);
  Ensemble *Act = PReluLayer(Net, "prelu", Fc1);
  Ensemble *Fc2 = FullyConnectedLayer(Net, "fc2", Act, 2);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc2, Labels);

  Executor Ex(compile(Net));
  Ex.initParams(17);
  Rng R(8);
  Tensor In(Shape{3, 5});
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Ex.setLabels(filled(Shape{3, 1}, [](int64_t I) {
    return static_cast<float>(I % 2);
  }));
  checkParamGradient(Ex, "prelu_slope", "prelu_grad_slope", 2e-3f);
  checkParamGradient(Ex, "fc1_weights", "fc1_grad_weights", 2e-3f);
}

TEST(CompileExecTest, SoftmaxLayerForwardAndLossValue) {
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{4});
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Data, Labels);
  Program P = compile(Net);
  Executor Ex(std::move(P));
  Ex.setInput(filled(Shape{2, 4}, [](int64_t I) {
    return I < 4 ? static_cast<float>(I) : 0.0f;
  }));
  Ex.setLabels(filled(Shape{2, 1}, [](int64_t) { return 3.0f; }));
  Ex.forward();
  EXPECT_GT(Ex.lossValue(), 0.0);
  Tensor Prob = Ex.readBuffer(Ex.program().ProbBuffer);
  float Sum = 0;
  for (int I = 0; I < 4; ++I)
    Sum += Prob.at(I);
  EXPECT_NEAR(Sum, 1.0f, 1e-5f);
  // Second item is uniform: accuracy counts argmax == 3 only for item 0
  // when logits favor class 3.
  EXPECT_GE(Ex.accuracy(), 0.5);
}
