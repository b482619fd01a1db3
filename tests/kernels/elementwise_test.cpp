//===- tests/kernels/elementwise_test.cpp ---------------------*- C++ -*-===//

#include "kernels/elementwise.h"
#include "kernels/softmax.h"

#include "support/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace latte;
using namespace latte::kernels;

TEST(ElementwiseTest, ReluFwd) {
  std::vector<float> Src = {-2.0f, -0.0f, 0.5f, 3.0f};
  std::vector<float> Dst(4);
  reluFwd(Dst.data(), Src.data(), 4);
  EXPECT_FLOAT_EQ(Dst[0], 0.0f);
  EXPECT_FLOAT_EQ(Dst[1], 0.0f);
  EXPECT_FLOAT_EQ(Dst[2], 0.5f);
  EXPECT_FLOAT_EQ(Dst[3], 3.0f);
}

TEST(ElementwiseTest, ReluMatchesDefinitionOnLongInput) {
  // 1001 elements: long enough to run the vector loop body many times,
  // and odd, so the scalar tail runs too.
  Rng R(4);
  const int64_t N = 1001;
  std::vector<float> Src(N), OutGrad(N), DstGrad(N);
  for (float &V : Src)
    V = static_cast<float>(R.uniform(-1.0, 1.0));
  for (float &V : OutGrad)
    V = static_cast<float>(R.uniform(-1.0, 1.0));
  for (float &V : DstGrad)
    V = static_cast<float>(R.uniform(-1.0, 1.0));

  std::vector<float> Fwd(N), WantFwd(N);
  reluFwd(Fwd.data(), Src.data(), N);
  for (int64_t I = 0; I < N; ++I)
    WantFwd[I] = Src[I] > 0.0f ? Src[I] : 0.0f;
  EXPECT_EQ(Fwd, WantFwd);

  std::vector<float> Bwd = DstGrad, WantBwd = DstGrad;
  reluBwd(Bwd.data(), OutGrad.data(), Src.data(), N);
  for (int64_t I = 0; I < N; ++I)
    WantBwd[I] += Src[I] > 0.0f ? OutGrad[I] : 0.0f;
  EXPECT_EQ(Bwd, WantBwd);
}

TEST(ElementwiseTest, ReluBwdGatesOnValue) {
  std::vector<float> Value = {-1.0f, 2.0f, 0.0f};
  std::vector<float> OutGrad = {10.0f, 20.0f, 30.0f};
  std::vector<float> DstGrad = {1.0f, 1.0f, 1.0f};
  reluBwd(DstGrad.data(), OutGrad.data(), Value.data(), 3);
  EXPECT_FLOAT_EQ(DstGrad[0], 1.0f);  // blocked: value <= 0
  EXPECT_FLOAT_EQ(DstGrad[1], 21.0f); // passed and accumulated
  EXPECT_FLOAT_EQ(DstGrad[2], 1.0f);  // value == 0 blocks
}

TEST(ElementwiseTest, AddToMulIntoScale) {
  std::vector<float> A = {1, 2, 3}, B = {4, 5, 6}, C(3);
  addTo(A.data(), B.data(), 3);
  EXPECT_FLOAT_EQ(A[2], 9.0f);
  mulInto(C.data(), A.data(), B.data(), 3);
  EXPECT_FLOAT_EQ(C[0], 20.0f);
  scale(C.data(), 0.5f, 3);
  EXPECT_FLOAT_EQ(C[0], 10.0f);
}

TEST(ElementwiseTest, GatherWithPadding) {
  std::vector<float> Src = {10.0f, 20.0f, 30.0f};
  std::vector<int32_t> Table = {2, -1, 0, 1};
  std::vector<float> Dst(4, 99.0f);
  gather(Dst.data(), Src.data(), Table.data(), 4);
  EXPECT_FLOAT_EQ(Dst[0], 30.0f);
  EXPECT_FLOAT_EQ(Dst[1], 0.0f); // padding
  EXPECT_FLOAT_EQ(Dst[2], 10.0f);
  EXPECT_FLOAT_EQ(Dst[3], 20.0f);
}

TEST(ElementwiseTest, ScatterAddIsGatherAdjoint) {
  // <gather(x), y> == <x, scatterAdd(y)> for any 0/1 table pattern.
  Rng R(7);
  const int64_t SrcN = 50, DstN = 80;
  std::vector<int32_t> Table(DstN);
  for (auto &T : Table)
    T = static_cast<int32_t>(R.uniformInt(SrcN + 10)) - 10; // some negative
  std::vector<float> X(SrcN), Y(DstN);
  for (auto &V : X)
    V = static_cast<float>(R.uniform(-1, 1));
  for (auto &V : Y)
    V = static_cast<float>(R.uniform(-1, 1));

  std::vector<float> Gx(DstN);
  gather(Gx.data(), X.data(), Table.data(), DstN);
  double Lhs = 0;
  for (int64_t I = 0; I < DstN; ++I)
    Lhs += static_cast<double>(Gx[I]) * Y[I];

  std::vector<float> Sy(SrcN, 0.0f);
  scatterAdd(Sy.data(), Y.data(), Table.data(), DstN);
  double Rhs = 0;
  for (int64_t I = 0; I < SrcN; ++I)
    Rhs += static_cast<double>(X[I]) * Sy[I];

  EXPECT_NEAR(Lhs, Rhs, 1e-4);
}

TEST(ElementwiseTest, SigmoidAndTanh) {
  std::vector<float> Src = {0.0f, 100.0f, -100.0f};
  std::vector<float> Dst(3);
  sigmoidFwd(Dst.data(), Src.data(), 3);
  EXPECT_FLOAT_EQ(Dst[0], 0.5f);
  EXPECT_NEAR(Dst[1], 1.0f, 1e-6f);
  EXPECT_NEAR(Dst[2], 0.0f, 1e-6f);
  tanhFwd(Dst.data(), Src.data(), 3);
  EXPECT_FLOAT_EQ(Dst[0], 0.0f);
  EXPECT_NEAR(Dst[1], 1.0f, 1e-6f);
}

TEST(ElementwiseTest, SumAndMax) {
  std::vector<float> V = {1.0f, -2.0f, 3.5f};
  EXPECT_FLOAT_EQ(sum(V.data(), 3), 2.5f);
  EXPECT_FLOAT_EQ(maxElement(V.data(), 3), 3.5f);
}

TEST(SoftmaxTest, SumsToOne) {
  std::vector<float> Src = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> Dst(4);
  softmaxFwd(Dst.data(), Src.data(), 4);
  float Total = 0;
  for (float V : Dst) {
    EXPECT_GT(V, 0.0f);
    Total += V;
  }
  EXPECT_NEAR(Total, 1.0f, 1e-6f);
  EXPECT_GT(Dst[3], Dst[0]);
}

TEST(SoftmaxTest, StableUnderLargeInputs) {
  std::vector<float> Src = {1000.0f, 1001.0f};
  std::vector<float> Dst(2);
  softmaxFwd(Dst.data(), Src.data(), 2);
  EXPECT_FALSE(std::isnan(Dst[0]));
  EXPECT_NEAR(Dst[0] + Dst[1], 1.0f, 1e-6f);
  EXPECT_GT(Dst[1], Dst[0]);
}

TEST(SoftmaxTest, InPlace) {
  std::vector<float> V = {0.0f, 0.0f};
  softmaxFwd(V.data(), V.data(), 2);
  EXPECT_NEAR(V[0], 0.5f, 1e-6f);
}

TEST(SoftmaxTest, LossAndGradient) {
  std::vector<float> Prob = {0.1f, 0.7f, 0.2f};
  float Loss = crossEntropyLoss(Prob.data(), 3, 1);
  EXPECT_NEAR(Loss, -std::log(0.7f), 1e-6f);

  std::vector<float> Grad(3, 0.0f);
  softmaxLossBwd(Grad.data(), Prob.data(), 3, 1, 1.0f);
  EXPECT_NEAR(Grad[0], 0.1f, 1e-6f);
  EXPECT_NEAR(Grad[1], -0.3f, 1e-6f);
  EXPECT_NEAR(Grad[2], 0.2f, 1e-6f);
  // Gradient sums to zero (softmax invariance).
  EXPECT_NEAR(Grad[0] + Grad[1] + Grad[2], 0.0f, 1e-6f);
}

TEST(SoftmaxTest, LossClampsZeroProbability) {
  std::vector<float> Prob = {1.0f, 0.0f};
  float Loss = crossEntropyLoss(Prob.data(), 2, 1);
  EXPECT_FALSE(std::isinf(Loss));
  EXPECT_GT(Loss, 40.0f); // -log(1e-20)
}
