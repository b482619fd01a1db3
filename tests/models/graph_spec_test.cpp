//===- tests/models/graph_spec_test.cpp -----------------------*- C++ -*-===//
///
/// Graph-structured ModelSpec tests: audit shapes and parameter counts for
/// the sequence models, weight-sharing groups, the zero-layer degenerate
/// audit, end-to-end compile + train smoke for the sequence classifiers,
/// and the baselines' rejection of graph-only nodes.
///
//===----------------------------------------------------------------------===//

#include "models/models.h"

#include "compiler/compiler.h"
#include "engine/executor.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace latte;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::engine;
using namespace latte::models;

namespace {

/// Builds, compiles, seeds, and runs one forward+backward iteration.
void trainSmoke(const ModelSpec &Spec, const CompileOptions &Copts = {}) {
  Net Net(2);
  buildLatte(Net, Spec, /*WithLoss=*/true);
  Executor Ex(compile(Net, Copts));
  Ex.initParams(3);
  const Program &P = Ex.program();
  Rng R(5);
  Tensor In(P.findBuffer(P.DataBuffer)->Dims);
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Tensor L(P.findBuffer(P.LabelBuffer)->Dims);
  for (int64_t I = 0; I < L.numElements(); ++I)
    L.at(I) = static_cast<float>(R.uniformInt(Spec.NumClasses));
  Ex.setLabels(L);
  Ex.forward();
  Ex.backward();
  EXPECT_TRUE(std::isfinite(Ex.lossValue())) << Spec.Name;
}

} // namespace

TEST(GraphSpecTest, LstmClassifierAudit) {
  ModelSpec Spec = lstmClassifier(3, 6, 5, 4);
  std::vector<LayerAudit> Audit = auditSpec(Spec);
  // 3 slices + 1 lstm + classifier row.
  ASSERT_EQ(Audit.size(), 5u);
  for (int I = 0; I < 3; ++I) {
    EXPECT_EQ(Audit[I].OutDims, Shape({6}));
    EXPECT_EQ(Audit[I].Params, 0);
  }
  EXPECT_EQ(Audit[3].OutDims, Shape({5}));
  // 4 gates x (input proj + recurrent proj), each with bias.
  EXPECT_EQ(Audit[3].Params, 4 * (5 * 6 + 5) + 4 * (5 * 5 + 5));
  EXPECT_EQ(Audit[4].OutDims, Shape({4}));
  EXPECT_EQ(Audit[4].Params, 4 * (5 + 1));
  EXPECT_EQ(countParams(Spec),
            4 * (5 * 6 + 5) + 4 * (5 * 5 + 5) + 4 * (5 + 1));
}

TEST(GraphSpecTest, GruClassifierAudit) {
  ModelSpec Spec = gruClassifier(3, 6, 5, 4);
  std::vector<LayerAudit> Audit = auditSpec(Spec);
  ASSERT_EQ(Audit.size(), 5u);
  EXPECT_EQ(Audit[3].Params, 3 * (5 * 6 + 5) + 3 * (5 * 5 + 5));
}

TEST(GraphSpecTest, AttentionClassifierAudit) {
  ModelSpec Spec = attentionClassifier(4, 6, 5, 4);
  std::vector<LayerAudit> Audit = auditSpec(Spec);
  // attention + classifier.
  ASSERT_EQ(Audit.size(), 2u);
  EXPECT_EQ(Audit[0].OutDims, Shape({4, 5}));
  // Q/K/V projections, each D x F weights + D bias, shared across time.
  EXPECT_EQ(Audit[0].Params, 3 * (5 * 6 + 5));
  // Classifier flattens the (T, D) context.
  EXPECT_EQ(Audit[1].Params, 4 * (4 * 5 + 1));
}

TEST(GraphSpecTest, SharedFcContributesNoParams) {
  ModelSpec Spec;
  Spec.Name = "tied";
  Spec.InputDims = Shape{6};
  Spec.NumClasses = 3;
  LayerSpec A;
  A.K = LayerSpec::Kind::Fc;
  A.Name = "fc1";
  A.Filters = 6;
  Spec.Layers.push_back(A);
  LayerSpec B;
  B.K = LayerSpec::Kind::Fc;
  B.Name = "fc2";
  B.Filters = 6;
  B.ShareWith = "fc1";
  Spec.Layers.push_back(B);
  std::vector<LayerAudit> Audit = auditSpec(Spec);
  ASSERT_EQ(Audit.size(), 3u);
  EXPECT_EQ(Audit[0].Params, 6 * 6 + 6);
  EXPECT_EQ(Audit[1].Params, 0);

  // The built network aliases the tied fields onto the owner's buffers.
  Net Net(2);
  buildLatte(Net, Spec, /*WithLoss=*/true);
  Program P = compile(Net);
  const BufferInfo *W2 = P.findBuffer("fc2_weights");
  ASSERT_NE(W2, nullptr);
  EXPECT_EQ(W2->AliasOf, "fc1_weights");
  trainSmoke(Spec);
}

TEST(GraphSpecTest, ZeroLayerSpecAuditsToClassifierOnly) {
  // The degenerate graph: no layers at all. The audit is just the
  // classifier row over the raw input.
  ModelSpec Spec;
  Spec.Name = "linear";
  Spec.InputDims = Shape{7};
  Spec.NumClasses = 3;
  std::vector<LayerAudit> Audit = auditSpec(Spec);
  ASSERT_EQ(Audit.size(), 1u);
  EXPECT_EQ(Audit[0].Name, "classifier");
  EXPECT_EQ(Audit[0].OutDims, Shape({3}));
  EXPECT_EQ(Audit[0].Params, 3 * (7 + 1));
  EXPECT_EQ(countParams(Spec), 3 * (7 + 1));
  trainSmoke(Spec);
}

TEST(GraphSpecTest, SequenceClassifiersTrainSmoke) {
  trainSmoke(lstmClassifier());
  trainSmoke(gruClassifier());
  trainSmoke(attentionClassifier());
}

TEST(GraphSpecTest, SequenceClassifiersTrainSmokeUnplanned) {
  // The memory planner off-path exercises the per-buffer allocation route
  // for aliased tied weights and the BPTT liveness fallback.
  CompileOptions NoPlan;
  NoPlan.Fusion = false;
  trainSmoke(lstmClassifier(), NoPlan);
  trainSmoke(attentionClassifier(), NoPlan);
}

TEST(GraphSpecTest, LstmGateWeightsAreTiedInBuiltNet) {
  ModelSpec Spec = lstmClassifier(3, 6, 5, 4);
  Net Net(2);
  buildLatte(Net, Spec, /*WithLoss=*/true);
  Program P = compile(Net);
  const BufferInfo *T2 = P.findBuffer("lstm_ix_t2_weights");
  ASSERT_NE(T2, nullptr);
  EXPECT_EQ(T2->AliasOf, "lstm_ix_t0_weights");
}

TEST(GraphSpecTest, BaselinesRejectGraphNodes) {
  ModelSpec Lstm = lstmClassifier();
  ModelSpec Attn = attentionClassifier();
  EXPECT_DEATH(
      {
        caffe::CaffeNet Net(2);
        buildCaffe(Net, Lstm, /*WithLoss=*/true);
      },
      "graph-structured");
  EXPECT_DEATH(
      {
        caffe::CaffeNet Net(2);
        buildMocha(Net, Attn, /*WithLoss=*/true);
      },
      "graph-structured");
}

TEST(GraphSpecTest, BaselinesStillLowerFlatSpecs) {
  // The flat CNN suite must keep working through both baselines.
  caffe::CaffeNet Net(2);
  buildCaffe(Net, lenet(), /*WithLoss=*/true);
  caffe::CaffeNet Net2(2);
  buildMocha(Net2, vggFirstThreeLayers(0.1), /*WithLoss=*/true);
}
