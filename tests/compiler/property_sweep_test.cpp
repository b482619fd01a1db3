//===- tests/compiler/property_sweep_test.cpp -----------------*- C++ -*-===//
///
/// Parameterized property sweeps: convolution configurations (kernel,
/// stride, pad, channels) checked for baseline agreement and correct
/// gradients; matched-vs-interpreted equivalence of the elementwise
/// ensembles; standalone softmax backward.
///
//===----------------------------------------------------------------------===//

#include "baselines/caffe/caffe.h"
#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "engine/executor.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace latte;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::engine;
using namespace latte::layers;

namespace {

Tensor randomTensor(Shape S, uint64_t Seed) {
  Rng R(Seed);
  Tensor T(std::move(S));
  R.fillGaussian(T, 0.0f, 1.0f);
  return T;
}

} // namespace

// (kernel, stride, pad, inChannels, filters)
class ConvSweepTest
    : public testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ConvSweepTest, MatchesCaffeAndGradChecks) {
  auto [Kernel, Stride, Pad, InC, Filters] = GetParam();
  const int64_t H = 9, Batch = 2;
  if ((H + 2 * Pad - Kernel) / Stride + 1 <= 0)
    GTEST_SKIP() << "degenerate geometry";

  // Latte net: conv -> loss over flattened logits via FC to keep the loss
  // scalar well-defined.
  Net Net(Batch);
  Ensemble *Data = DataLayer(Net, "data", Shape{InC, H, H});
  Ensemble *Conv =
      ConvolutionLayer(Net, "conv", Data, Filters, Kernel, Stride, Pad);
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Conv, 3);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc, Labels);
  Program P = compile(Net);
  EXPECT_TRUE(P.Report.gemmMatched("conv"));
  Executor Ex(std::move(P));
  Ex.initParams(101);

  Tensor In = randomTensor(Shape{Batch, InC, H, H}, 7);
  Ex.setInput(In);
  Tensor L(Shape{Batch, 1});
  L.at(1) = 1.0f;
  Ex.setLabels(L);
  Ex.forward();

  // Caffe baseline with the same parameters agrees on the conv output.
  caffe::CaffeNet C(Batch);
  C.setInputShape(Shape{InC, H, H});
  auto *CL = C.addLayer(std::make_unique<caffe::ConvolutionLayer>(
      "conv", Filters, Kernel, Stride, Pad));
  C.setup(1);
  Tensor W = Ex.readBuffer("conv_weights");
  W.reshape(CL->params()[0].Data.shape());
  CL->params()[0].Data = W;
  Tensor B = Ex.readBuffer("conv_bias");
  B.reshape(CL->params()[1].Data.shape());
  CL->params()[1].Data = B;
  C.inputBlob().Data = In;
  C.forward();
  Tensor LatteOut = Ex.readBuffer("conv_value");
  EXPECT_EQ(C.outputBlob().Data.firstMismatch(LatteOut, 1e-4f, 1e-3f), -1);

  // Finite-difference gradient check on a few weight elements.
  Ex.backward();
  Tensor Grad = Ex.readBuffer("conv_grad_weights");
  Tensor Wl = Ex.readBuffer("conv_weights");
  const float Eps = 1e-2f;
  int64_t Step = std::max<int64_t>(1, Wl.numElements() / 4);
  for (int64_t I = 0; I < Wl.numElements(); I += Step) {
    float Orig = Wl.at(I);
    Wl.at(I) = Orig + Eps;
    Ex.writeBuffer("conv_weights", Wl);
    Ex.forward();
    double Plus = Ex.lossValue();
    Wl.at(I) = Orig - Eps;
    Ex.writeBuffer("conv_weights", Wl);
    Ex.forward();
    double Minus = Ex.lossValue();
    Wl.at(I) = Orig;
    Ex.writeBuffer("conv_weights", Wl);
    EXPECT_NEAR(Grad.at(I), (Plus - Minus) / (2 * Eps), 5e-3)
        << "element " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweepTest,
    testing::Values(std::make_tuple(1, 1, 0, 1, 4),  // 1x1 conv
                    std::make_tuple(3, 1, 1, 2, 3),  // "same" conv
                    std::make_tuple(3, 2, 0, 2, 3),  // strided
                    std::make_tuple(2, 2, 0, 3, 2),  // non-overlapping
                    std::make_tuple(5, 1, 2, 1, 2),  // large kernel
                    std::make_tuple(3, 3, 1, 2, 2))); // stride > 1 with pad

TEST(InterpretedEquivalenceTest, ElementwiseEnsembles) {
  // Sum/Mul/Sub ensembles produce identical numerics whether matched to
  // kernels or run through the synthesized interpreter path.
  auto Run = [](bool Matched) {
    Net Net(2);
    Ensemble *A = DataLayer(Net, "a", Shape{6});
    Ensemble *Fc1 = FullyConnectedLayer(Net, "fc1", A, 6);
    Ensemble *Fc2 = FullyConnectedLayer(Net, "fc2", A, 6);
    Ensemble *Sum = AddLayer(Net, "sum", {Fc1, Fc2});
    Ensemble *Prod = MulLayer(Net, "prod", Sum, Fc1);
    Ensemble *Diff = SubLayer(Net, "diff", Prod, Fc2);
    Ensemble *Out = FullyConnectedLayer(Net, "out", Diff, 3);
    Ensemble *Labels = LabelLayer(Net, "labels");
    SoftmaxLossLayer(Net, "loss", Out, Labels);
    CompileOptions Opts;
    Opts.PatternMatchKernels = Matched;
    Program P = compile(Net, Opts);
    if (Matched) {
      EXPECT_TRUE(P.Report.InterpretedEnsembles.size() <= 1)
          << "only SubNeuron may stay interpreted";
    } else {
      EXPECT_GE(P.Report.InterpretedEnsembles.size(), 3u);
    }
    Executor Ex(std::move(P));
    Ex.initParams(11);
    Ex.setInput(randomTensor(Shape{2, 6}, 5));
    Tensor L(Shape{2, 1});
    L.at(0) = 2.0f;
    Ex.setLabels(L);
    Ex.forward();
    Ex.backward();
    return std::make_pair(Ex.readBuffer("diff_value"),
                          Ex.readBuffer("fc1_grad_weights"));
  };
  auto [V1, G1] = Run(true);
  auto [V2, G2] = Run(false);
  EXPECT_EQ(V1.firstMismatch(V2, 1e-5f, 1e-4f), -1);
  EXPECT_EQ(G1.firstMismatch(G2, 1e-5f, 1e-4f), -1);
}

TEST(SoftmaxLayerTest, StandaloneBackwardGradCheck) {
  // Softmax (not fused with a loss) exercises the full-Jacobian backward:
  // build softmax -> FC -> loss and gradient-check through it.
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{5});
  Ensemble *Sm = SoftmaxLayer(Net, "sm", Data);
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Sm, 3);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc, Labels);
  Executor Ex(compile(Net));
  Ex.initParams(23);
  Tensor In = randomTensor(Shape{2, 5}, 13);
  Ex.setInput(In);
  Tensor L(Shape{2, 1});
  L.at(0) = 1.0f;
  Ex.setLabels(L);
  Ex.forward();
  Ex.backward();
  Tensor Grad = Ex.readBuffer("data_grad");

  const float Eps = 1e-2f;
  for (int64_t I = 0; I < In.numElements(); I += 3) {
    float Orig = In.at(I);
    In.at(I) = Orig + Eps;
    Ex.setInput(In);
    Ex.forward();
    double Plus = Ex.lossValue();
    In.at(I) = Orig - Eps;
    Ex.setInput(In);
    Ex.forward();
    double Minus = Ex.lossValue();
    In.at(I) = Orig;
    Ex.setInput(In);
    EXPECT_NEAR(Grad.at(I), (Plus - Minus) / (2 * Eps), 2e-3)
        << "element " << I;
  }
}

TEST(AvgPoolLayerTest, MatchedAndGradChecks) {
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{2, 6, 6});
  Ensemble *Pool = AvgPoolingLayer(Net, "pool", Data, 2, 2);
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Pool, 2);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Fc, Labels);
  Program P = compile(Net);
  ASSERT_EQ(P.Report.MatchedPoolEnsembles.size(), 1u);
  Executor Ex(std::move(P));
  Ex.initParams(4);
  Tensor In = randomTensor(Shape{2, 2, 6, 6}, 21);
  Ex.setInput(In);
  Tensor L(Shape{2, 1});
  Ex.setLabels(L);
  Ex.forward();
  // Forward: each output is the mean of its window.
  Tensor Out = Ex.readBuffer("pool_value");
  float Expect = (In.at({0, 0, 0, 0}) + In.at({0, 0, 0, 1}) +
                  In.at({0, 0, 1, 0}) + In.at({0, 0, 1, 1})) /
                 4.0f;
  EXPECT_NEAR(Out.at(0), Expect, 1e-5f);

  Ex.backward();
  Tensor Grad = Ex.readBuffer("data_grad");
  const float Eps = 1e-2f;
  for (int64_t I = 0; I < 8; ++I) {
    float Orig = In.at(I);
    In.at(I) = Orig + Eps;
    Ex.setInput(In);
    Ex.forward();
    double Plus = Ex.lossValue();
    In.at(I) = Orig - Eps;
    Ex.setInput(In);
    Ex.forward();
    double Minus = Ex.lossValue();
    In.at(I) = Orig;
    Ex.setInput(In);
    EXPECT_NEAR(Grad.at(I), (Plus - Minus) / (2 * Eps), 2e-3);
  }
}
