//===- tests/baselines/baselines_test.cpp ---------------------*- C++ -*-===//
///
/// Tests of the Caffe and Mocha baseline frameworks, plus the core
/// integration property: all three systems (Latte, Caffe baseline, Mocha
/// baseline) produce the same outputs and gradients for the same network
/// and the same parameters.
///
//===----------------------------------------------------------------------===//

#include "baselines/caffe/caffe.h"
#include "baselines/mocha/mocha.h"
#include "compiler/compiler.h"
#include "engine/executor.h"
#include "models/models.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::models;

namespace {

/// Copies the baseline net's parameters into the Latte executor, matching
/// layers by name (weights layouts are identical by construction).
void copyParamsToLatte(const caffe::CaffeNet &Net, engine::Executor &Ex) {
  for (const auto &L : Net.layers()) {
    if (L->params().empty())
      continue;
    Tensor W = L->params()[0].Data;
    W.reshape(Ex.readBuffer(L->name() + "_weights").shape());
    Ex.writeBuffer(L->name() + "_weights", W);
    Tensor B = L->params()[1].Data;
    B.reshape(Ex.readBuffer(L->name() + "_bias").shape());
    Ex.writeBuffer(L->name() + "_bias", B);
  }
}

/// Copies parameters between two baseline nets (same architecture).
void copyParams(const caffe::CaffeNet &From, caffe::CaffeNet &To) {
  ASSERT_EQ(From.layers().size(), To.layers().size());
  for (size_t I = 0; I < From.layers().size(); ++I) {
    auto &FP = From.layers()[I]->params();
    auto &TP = To.layers()[I]->params();
    ASSERT_EQ(FP.size(), TP.size());
    for (size_t J = 0; J < FP.size(); ++J)
      TP[J].Data = FP[J].Data;
  }
}

Tensor randomTensor(Shape S, uint64_t Seed) {
  Rng R(Seed);
  Tensor T(std::move(S));
  R.fillGaussian(T, 0.0f, 1.0f);
  return T;
}

Tensor labelsMod(int64_t Batch, int64_t Classes) {
  Tensor L(Shape{Batch});
  for (int64_t I = 0; I < Batch; ++I)
    L.at(I) = static_cast<float>(I % Classes);
  return L;
}

} // namespace

TEST(CaffeBaselineTest, ConvShapesAndParams) {
  caffe::CaffeNet Net(2);
  Net.setInputShape(Shape{3, 8, 8});
  auto *Conv = Net.addLayer(
      std::make_unique<caffe::ConvolutionLayer>("conv", 4, 3, 1, 1));
  Net.addLayer(std::make_unique<caffe::ReluLayer>("relu"));
  Net.addLayer(std::make_unique<caffe::PoolingLayer>(
      "pool", caffe::PoolingLayer::Mode::Max, 2, 2));
  Net.setup(7);
  EXPECT_EQ(Net.outputBlob().shape(), Shape({2, 4, 4, 4}));
  EXPECT_EQ(Conv->params()[0].shape(), Shape({4, 27}));
  EXPECT_EQ(Conv->params()[1].shape(), Shape({4}));
}

TEST(BaselineDeathTest, BadWindowIsFatal) {
  // reshape divides by the stride; a pooling window larger than the
  // padded input leaves no output. Caffe's layers, then Mocha's.
  auto Setup = [](std::unique_ptr<caffe::Layer> L) {
    caffe::CaffeNet Net(1);
    Net.setInputShape(Shape{3, 8, 8});
    Net.addLayer(std::move(L));
    Net.setup(7);
  };
  using Pool = caffe::PoolingLayer;
  EXPECT_DEATH(Setup(std::make_unique<caffe::ConvolutionLayer>("conv", 4, 3,
                                                               0, 1)),
               "conv layer 'conv' has kernel 3 and stride 0");
  EXPECT_DEATH(Setup(std::make_unique<caffe::ConvolutionLayer>("conv", 4, 0,
                                                               1, 0)),
               "conv layer 'conv' has kernel 0 and stride 1");
  EXPECT_DEATH(Setup(std::make_unique<Pool>("pool", Pool::Mode::Max, 2, 0)),
               "pooling layer 'pool' has kernel 2 and stride 0");
  EXPECT_DEATH(Setup(std::make_unique<Pool>("pool", Pool::Mode::Avg, 0, 2)),
               "pooling layer 'pool' has kernel 0 and stride 2");
  EXPECT_DEATH(Setup(std::make_unique<Pool>("pool", Pool::Mode::Max, 9, 1)),
               "pooling layer 'pool' has empty output");

  EXPECT_DEATH(Setup(std::make_unique<mocha::NaiveConvolutionLayer>(
                   "conv", 4, 3, 0, 1)),
               "conv layer 'conv' has kernel 3 and stride 0");
  EXPECT_DEATH(Setup(std::make_unique<mocha::NaiveMaxPoolingLayer>("pool",
                                                                   2, 0)),
               "pooling layer 'pool' has kernel 2 and stride 0");
  EXPECT_DEATH(Setup(std::make_unique<mocha::NaiveMaxPoolingLayer>("pool",
                                                                   9, 1)),
               "pooling layer 'pool' has empty output");
}

TEST(CaffeBaselineTest, InnerProductForwardByHand) {
  caffe::CaffeNet Net(1);
  Net.setInputShape(Shape{2});
  auto *Ip =
      Net.addLayer(std::make_unique<caffe::InnerProductLayer>("ip", 2));
  Net.setup(1);
  Ip->params()[0].Data.at(0) = 1.0f; // W = [[1, 2], [3, 4]]
  Ip->params()[0].Data.at(1) = 2.0f;
  Ip->params()[0].Data.at(2) = 3.0f;
  Ip->params()[0].Data.at(3) = 4.0f;
  Ip->params()[1].Data.at(0) = 0.5f;
  Ip->params()[1].Data.at(1) = -0.5f;
  Net.inputBlob().Data.at(0) = 1.0f;
  Net.inputBlob().Data.at(1) = 1.0f;
  Net.forward();
  EXPECT_FLOAT_EQ(Net.outputBlob().Data.at(0), 3.5f);
  EXPECT_FLOAT_EQ(Net.outputBlob().Data.at(1), 6.5f);
}

TEST(CaffeBaselineTest, LossDecreasesWithManualSgd) {
  caffe::CaffeNet Net(4);
  ModelSpec Spec = mlp(6, {12}, 3);
  // The Caffe baseline lacks Tanh; use a ReLU MLP instead.
  Spec.Layers[1].K = LayerSpec::Kind::Relu;
  Spec.Layers[1].Name = "relu1";
  buildCaffe(Net, Spec, /*WithLoss=*/true);
  Net.setup(3);
  Net.inputBlob().Data = randomTensor(Shape{4, 6}, 11);
  Net.labelBlob().Data = labelsMod(4, 3);

  Net.forward();
  double Loss0 = Net.lossValue();
  for (int Iter = 0; Iter < 30; ++Iter) {
    Net.forward();
    Net.backward();
    for (auto &L : Net.layers())
      for (caffe::Blob &P : L->params())
        for (int64_t I = 0; I < P.count(); ++I)
          P.Data.at(I) -= 0.5f * P.Grad.at(I);
  }
  Net.forward();
  EXPECT_LT(Net.lossValue(), Loss0 * 0.5);
}

TEST(MochaBaselineTest, MatchesCaffeForward) {
  ModelSpec Spec = vggFirstThreeLayers(0.1); // 22x22 input
  caffe::CaffeNet C(2), M(2);
  buildCaffe(C, Spec, true);
  buildMocha(M, Spec, true);
  C.setup(5);
  M.setup(99);
  copyParams(C, M);
  Tensor In = randomTensor(Shape{2, 3, 22, 22}, 21);
  C.inputBlob().Data = In;
  M.inputBlob().Data = In;
  C.labelBlob().Data = labelsMod(2, 10);
  M.labelBlob().Data = labelsMod(2, 10);
  C.forward();
  M.forward();
  EXPECT_NEAR(C.lossValue(), M.lossValue(), 1e-4);
  C.backward();
  M.backward();
  // Compare conv weight gradients.
  const Tensor &Gc = C.layers()[0]->params()[0].Grad;
  const Tensor &Gm = M.layers()[0]->params()[0].Grad;
  EXPECT_EQ(Gc.firstMismatch(Gm, 1e-3f, 1e-3f), -1);
}

// The headline integration property: the three systems agree.
class CrossSystemTest : public testing::TestWithParam<int> {};

TEST_P(CrossSystemTest, LatteMatchesBaselines) {
  ModelSpec Spec;
  switch (GetParam()) {
  case 0:
    Spec = vggFirstThreeLayers(0.1);
    break;
  case 1:
    Spec = vggGroup(2, 0.25); // 64 channels, 28x28
    break;
  case 2:
    Spec = lenet();
    break;
  case 3:
    Spec = mlp(20, {16, 12}, 4);
    // Baselines lack tanh; swap for relu in all three.
    for (LayerSpec &L : Spec.Layers)
      if (L.K == LayerSpec::Kind::Tanh)
        L.K = LayerSpec::Kind::Relu;
    break;
  }
  const int64_t Batch = 2;

  caffe::CaffeNet C(Batch);
  buildCaffe(C, Spec, true);
  C.setup(41);

  core::Net Net(Batch);
  buildLatte(Net, Spec, true);
  engine::Executor Ex(compiler::compile(Net));

  caffe::CaffeNet M(Batch);
  buildMocha(M, Spec, true);
  M.setup(77);

  copyParamsToLatte(C, Ex);
  copyParams(C, M);

  Tensor In = randomTensor(Spec.InputDims.withPrefix(Batch), 1234);
  Tensor Labels = labelsMod(Batch, Spec.NumClasses);
  C.inputBlob().Data = In;
  M.inputBlob().Data = In;
  Ex.setInput(In);
  C.labelBlob().Data = Labels;
  M.labelBlob().Data = Labels;
  Ex.setLabels(Labels);

  C.forward();
  M.forward();
  Ex.forward();
  EXPECT_NEAR(C.lossValue(), Ex.lossValue(), 1e-3);
  EXPECT_NEAR(M.lossValue(), Ex.lossValue(), 1e-3);

  C.backward();
  Ex.backward();
  // First conv/fc layer weight gradients agree.
  const std::string First = Spec.Layers[0].Name;
  Tensor Gl = Ex.readBuffer(First + "_grad_weights");
  Tensor Gc = C.layers()[0]->params()[0].Grad;
  Gc.reshape(Gl.shape());
  EXPECT_EQ(Gl.firstMismatch(Gc, 1e-3f, 1e-2f), -1);
}

INSTANTIATE_TEST_SUITE_P(Models, CrossSystemTest, testing::Range(0, 4));

TEST(ModelSpecTest, AlexNetShapesAndParams) {
  ModelSpec Spec = alexNet();
  std::vector<LayerAudit> Audit = auditSpec(Spec);
  // Canonical AlexNet stage shapes.
  EXPECT_EQ(Audit[0].OutDims, Shape({96, 55, 55}));  // conv1
  EXPECT_EQ(Audit[2].OutDims, Shape({96, 27, 27}));  // pool1
  EXPECT_EQ(Audit[3].OutDims, Shape({256, 27, 27})); // conv2
  EXPECT_EQ(Audit[5].OutDims, Shape({256, 13, 13})); // pool2
  EXPECT_EQ(Audit[12].OutDims, Shape({256, 6, 6}));  // pool5
  // Single-tower (ungrouped) AlexNet, as in the convnet-benchmarks
  // configurations the paper used: 62,378,344 parameters. (The original
  // two-GPU grouped variant has 60,965,224 — smaller by exactly the
  // halved conv2/conv4/conv5 fan-ins, 1,413,120.)
  EXPECT_EQ(countParams(Spec), 62378344);
}

TEST(ModelSpecTest, VggAParams) {
  // VGG model A (VGG-11): 132,863,336 parameters.
  EXPECT_EQ(countParams(vggA()), 132863336);
}

TEST(ModelSpecTest, Vgg16Params) {
  // VGG-16: 138,357,544 parameters.
  EXPECT_EQ(countParams(vgg16()), 138357544);
}

TEST(ModelSpecTest, OverfeatShapes) {
  std::vector<LayerAudit> Audit = auditSpec(overfeat());
  EXPECT_EQ(Audit[0].OutDims, Shape({96, 56, 56}));   // conv1
  EXPECT_EQ(Audit[2].OutDims, Shape({96, 28, 28}));   // pool1
  EXPECT_EQ(Audit[5].OutDims, Shape({256, 12, 12}));  // pool2
  EXPECT_EQ(Audit[12].OutDims, Shape({1024, 6, 6}));  // pool5
  EXPECT_GT(countParams(overfeat()), 130000000);
}

TEST(ModelSpecTest, ScaledSpecsRemainValid) {
  for (double Scale : {0.5, 0.25}) {
    EXPECT_GT(auditSpec(vggA(Scale)).size(), 0u);
    EXPECT_GT(auditSpec(overfeat(Scale)).size(), 0u);
  }
  EXPECT_GT(auditSpec(alexNet(0.5)).size(), 0u);
}

TEST(ModelSpecTest, VggGroupsMatchPaperStructure) {
  // Groups 1-2 have one conv; groups 3-4 have two (the fusion-limited
  // configuration the paper discusses for group 4).
  EXPECT_EQ(vggGroup(1).Layers.size(), 3u);
  EXPECT_EQ(vggGroup(2).Layers.size(), 3u);
  EXPECT_EQ(vggGroup(3).Layers.size(), 5u);
  EXPECT_EQ(vggGroup(4).Layers.size(), 5u);
  EXPECT_EQ(vggGroup(4).InputDims, Shape({256, 28, 28}));
}

TEST(ModelSpecTest, LatteBuildCompilesLenet) {
  core::Net Net(2);
  buildLatte(Net, lenet(), true);
  compiler::Program P = compiler::compile(Net);
  // conv + fc layers matched to GEMM; pools matched to pooling kernels.
  EXPECT_EQ(P.Report.MatchedGemmEnsembles.size(), 4u); // conv1/2, fc1, cls
  EXPECT_EQ(P.Report.MatchedPoolEnsembles.size(), 2u);
  EXPECT_TRUE(P.Report.InterpretedEnsembles.empty());
}
