//===- tests/compiler/fidelity_test.cpp -----------------------*- C++ -*-===//
///
/// Paper-fidelity tests: a hand-written Figure 5 mapping function (not
/// the library helper) is recognized by analysis and pattern-matched to
/// GEMM; learning-rate multipliers flow from Param declarations to the
/// solver.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "engine/executor.h"
#include "solvers/solvers.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::engine;
using namespace latte::layers;

TEST(FidelityTest, HandWrittenFigure5MappingIsMatched) {
  // A user writes the Figure 5 mapping directly as a lambda instead of
  // using the library helper; probing-based analysis recovers the same
  // structure and the ensemble still lowers to GEMM.
  const int64_t Channels = 2, Kernel = 3, Stride = 1, Pad = 1;
  Net Net(1);
  Ensemble *Data = DataLayer(Net, "data", Shape{Channels, 8, 8});
  const NeuronType *T = standardType(Net, "WeightedNeuron");
  Ensemble *Conv = Net.addEnsemble("conv", Shape{4, 8, 8}, T);
  FieldStorage Weights;
  Weights.StorageDims = Shape{4};
  Weights.ElemDims = Shape{Channels * Kernel * Kernel};
  Weights.Map = [](const std::vector<int64_t> &Sink) {
    return std::vector<int64_t>{Sink[0]};
  };
  Weights.Init = FieldInitKind::Xavier;
  Weights.FanIn = Channels * Kernel * Kernel;
  Conv->setFieldStorage("weights", std::move(Weights));
  FieldStorage Bias;
  Bias.StorageDims = Shape{4};
  Bias.ElemDims = Shape{1};
  Bias.Map = [](const std::vector<int64_t> &Sink) {
    return std::vector<int64_t>{Sink[0]};
  };
  Conv->setFieldStorage("bias", std::move(Bias));

  // Figure 5, 0-based: in_x = x*stride - pad; window covers all channels.
  Net.addConnections(Data, Conv, [=](const std::vector<int64_t> &Index) {
    int64_t InY = Index[1] * Stride - Pad;
    int64_t InX = Index[2] * Stride - Pad;
    return std::vector<Range>{{0, Channels},
                              {InY, InY + Kernel},
                              {InX, InX + Kernel}};
  });

  Program P = compile(Net);
  EXPECT_TRUE(P.Report.gemmMatched("conv"));
  EXPECT_TRUE(P.Report.InterpretedEnsembles.empty());

  // And it agrees numerically with the library-built equivalent.
  core::Net Ref(1);
  Ensemble *RData = DataLayer(Ref, "data", Shape{Channels, 8, 8});
  ConvolutionLayer(Ref, "conv", RData, 4, Kernel, Stride, Pad);
  Executor A(std::move(P)), B(compile(Ref));
  A.initParams(5);
  B.initParams(5);
  Rng R(77);
  Tensor In(Shape{1, Channels, 8, 8});
  R.fillGaussian(In, 0.0f, 1.0f);
  A.setInput(In);
  B.setInput(In);
  B.writeBuffer("conv_weights", A.readBuffer("conv_weights"));
  B.writeBuffer("conv_bias", A.readBuffer("conv_bias"));
  A.forward();
  B.forward();
  EXPECT_EQ(A.readBuffer("conv_value")
                .firstMismatch(B.readBuffer("conv_value"), 1e-5f, 1e-4f),
            -1);
}

TEST(FidelityTest, BiasLearningRateMultiplierReachesSolver) {
  // Figure 4 declares Param(:weights, 1.0) and Param(:bias, 2.0); the
  // WeightedNeuron field specs carry those multipliers into the solver.
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{3});
  FullyConnectedLayer(Net, "fc", Data, 2);
  Program P = compile(Net);
  float WeightsMult = 0, BiasMult = 0;
  for (const ParamBinding &B : P.Params) {
    if (B.Param == "fc_weights")
      WeightsMult = B.LrMult;
    if (B.Param == "fc_bias")
      BiasMult = B.LrMult;
  }
  EXPECT_FLOAT_EQ(WeightsMult, 1.0f);
  EXPECT_FLOAT_EQ(BiasMult, 2.0f);

  // An SGD step moves the bias twice as fast for equal gradients.
  Executor Ex(std::move(P));
  Ex.initParams(1);
  Tensor G(Ex.shape("fc_grad_weights"));
  G.fill(1.0f);
  Ex.writeBuffer("fc_grad_weights", G);
  Tensor Gb(Ex.shape("fc_grad_bias"));
  Gb.fill(1.0f);
  Ex.writeBuffer("fc_grad_bias", Gb);
  Tensor W0 = Ex.readBuffer("fc_weights");
  Tensor B0 = Ex.readBuffer("fc_bias");
  solvers::SolverParameters SP;
  SP.Lr = solvers::LRPolicy::fixed(0.1);
  SP.Momentum = solvers::MomPolicy::fixed(0.0);
  solvers::SgdSolver S(SP);
  S.step(Ex, 0);
  EXPECT_NEAR(Ex.readBuffer("fc_weights").at(0), W0.at(0) - 0.1f, 1e-6f);
  EXPECT_NEAR(Ex.readBuffer("fc_bias").at(0), B0.at(0) - 0.2f, 1e-6f);
}
