//===- tests/kernels/im2col_pool_test.cpp ---------------------*- C++ -*-===//

#include "kernels/im2col.h"
#include "kernels/pooling.h"

#include "support/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

using namespace latte;
using namespace latte::kernels;

namespace {

// The per-element guarded loops the window-split kernels replaced: every
// output tests its input position against the image. The split kernels
// must write the same bytes.

void guardedIm2colRows(const float *Image, const ConvGeometry &G, float *Col,
                       int64_t RowBegin, int64_t RowCount) {
  const int64_t OutH = G.outH(), OutW = G.outW();
  int64_t Row = 0;
  for (int64_t C = 0; C < G.Channels; ++C) {
    for (int64_t KY = 0; KY < G.KernelH; ++KY) {
      for (int64_t KX = 0; KX < G.KernelW; ++KX, ++Row) {
        float *ColRow = Col + Row * (OutH * OutW);
        const float *Chan = Image + C * G.Height * G.Width;
        for (int64_t Y = RowBegin; Y < RowBegin + RowCount; ++Y) {
          int64_t InY = Y * G.StrideH - G.PadH + KY;
          if (InY < 0 || InY >= G.Height) {
            for (int64_t X = 0; X < OutW; ++X)
              ColRow[Y * OutW + X] = 0.0f;
            continue;
          }
          for (int64_t X = 0; X < OutW; ++X) {
            int64_t InX = X * G.StrideW - G.PadW + KX;
            ColRow[Y * OutW + X] = (InX >= 0 && InX < G.Width)
                                       ? Chan[InY * G.Width + InX]
                                       : 0.0f;
          }
        }
      }
    }
  }
}

void guardedCol2imRows(const float *Col, const ConvGeometry &G, float *Image,
                       int64_t RowBegin, int64_t RowCount) {
  const int64_t OutH = G.outH(), OutW = G.outW();
  int64_t Row = 0;
  for (int64_t C = 0; C < G.Channels; ++C) {
    for (int64_t KY = 0; KY < G.KernelH; ++KY) {
      for (int64_t KX = 0; KX < G.KernelW; ++KX, ++Row) {
        const float *ColRow = Col + Row * (OutH * OutW);
        float *Chan = Image + C * G.Height * G.Width;
        for (int64_t Y = RowBegin; Y < RowBegin + RowCount; ++Y) {
          int64_t InY = Y * G.StrideH - G.PadH + KY;
          if (InY < 0 || InY >= G.Height)
            continue;
          for (int64_t X = 0; X < OutW; ++X) {
            int64_t InX = X * G.StrideW - G.PadW + KX;
            if (InX >= 0 && InX < G.Width)
              Chan[InY * G.Width + InX] += ColRow[Y * OutW + X];
          }
        }
      }
    }
  }
}

void guardedMaxPoolFwdRows(const float *Input, const ConvGeometry &G,
                           float *Output, int32_t *Mask, int64_t RowBegin,
                           int64_t RowCount) {
  const int64_t OutH = G.outH(), OutW = G.outW();
  for (int64_t C = 0; C < G.Channels; ++C) {
    const float *Chan = Input + C * G.Height * G.Width;
    for (int64_t Y = RowBegin; Y < RowBegin + RowCount; ++Y) {
      for (int64_t X = 0; X < OutW; ++X) {
        float Max = -std::numeric_limits<float>::infinity();
        int64_t ArgMax = -1;
        for (int64_t KY = 0; KY < G.KernelH; ++KY) {
          int64_t InY = Y * G.StrideH - G.PadH + KY;
          if (InY < 0 || InY >= G.Height)
            continue;
          for (int64_t KX = 0; KX < G.KernelW; ++KX) {
            int64_t InX = X * G.StrideW - G.PadW + KX;
            if (InX < 0 || InX >= G.Width)
              continue;
            float V = Chan[InY * G.Width + InX];
            if (V > Max) {
              Max = V;
              ArgMax = C * G.Height * G.Width + InY * G.Width + InX;
            }
          }
        }
        int64_t Out = (C * OutH + Y) * OutW + X;
        Output[Out] = Max;
        if (Mask)
          Mask[Out] = static_cast<int32_t>(ArgMax);
      }
    }
  }
}

/// Values whose comparisons and sums the kernels must not reorder: NaN,
/// both zeros, -inf, ties, and magnitudes whose sums round. +inf only with
/// \p PosInf: a sum of +inf and -inf is a second NaN, and which NaN a sum
/// of two returns depends on the add's operand order, which C++ leaves to
/// the compiler.
std::vector<float> awkwardValues(int64_t Count, Rng &R, bool PosInf) {
  const float Inf = std::numeric_limits<float>::infinity();
  const float Special[] = {std::nanf(""), 0.0f, -0.0f, -Inf,
                           PosInf ? Inf : 2.5f, 1.0f, 1.0f, 3e7f, -3e7f};
  std::vector<float> V(static_cast<size_t>(Count));
  for (float &X : V) {
    const int64_t Pick = R.uniformInt(16);
    X = Pick < 9 ? Special[Pick] : static_cast<float>(R.uniform(-2, 2));
  }
  return V;
}

} // namespace

TEST(ConvGeometryTest, OutputSizes) {
  ConvGeometry G{3, 224, 224, 11, 11, 4, 4, 0, 0};
  EXPECT_EQ(G.outH(), 54); // AlexNet conv1 without pad: (224-11)/4+1
  EXPECT_EQ(G.outW(), 54);
  ConvGeometry P{64, 112, 112, 2, 2, 2, 2, 0, 0};
  EXPECT_EQ(P.outH(), 56);
  ConvGeometry S{3, 224, 224, 3, 3, 1, 1, 1, 1};
  EXPECT_EQ(S.outH(), 224); // VGG "same" conv
  EXPECT_EQ(S.colRows(), 27);
}

TEST(Im2ColTest, SimpleNoPad) {
  // 1 channel, 3x3 image, 2x2 kernel, stride 1.
  ConvGeometry G{1, 3, 3, 2, 2, 1, 1, 0, 0};
  std::vector<float> Img = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> Col(G.colRows() * G.colCols());
  im2col(Img.data(), G, Col.data());
  // Rows: (ky,kx) in order (0,0),(0,1),(1,0),(1,1); cols: outputs (y,x).
  // Output (0,0) window = {1,2,4,5}.
  int64_t Cols = G.colCols();
  EXPECT_FLOAT_EQ(Col[0 * Cols + 0], 1);
  EXPECT_FLOAT_EQ(Col[1 * Cols + 0], 2);
  EXPECT_FLOAT_EQ(Col[2 * Cols + 0], 4);
  EXPECT_FLOAT_EQ(Col[3 * Cols + 0], 5);
  // Output (1,1) window = {5,6,8,9}.
  EXPECT_FLOAT_EQ(Col[0 * Cols + 3], 5);
  EXPECT_FLOAT_EQ(Col[3 * Cols + 3], 9);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  ConvGeometry G{1, 2, 2, 3, 3, 1, 1, 1, 1};
  std::vector<float> Img = {1, 2, 3, 4};
  std::vector<float> Col(G.colRows() * G.colCols());
  im2col(Img.data(), G, Col.data());
  // Top-left output, kernel position (0,0) reads padding -> 0.
  EXPECT_FLOAT_EQ(Col[0], 0.0f);
  // Kernel center (1,1) at output (0,0) reads pixel (0,0) = 1.
  int64_t CenterRow = 1 * 3 + 1;
  EXPECT_FLOAT_EQ(Col[CenterRow * G.colCols() + 0], 1.0f);
}

// Adjointness property over a sweep of geometries:
// <im2col(x), y> == <x, col2im(y)>.
class Im2ColSweepTest
    : public testing::TestWithParam<
          std::tuple<int, int, int, int, int>> {}; // C, H, kernel, stride, pad

TEST_P(Im2ColSweepTest, AdjointProperty) {
  auto [C, H, Kernel, Stride, Pad] = GetParam();
  ConvGeometry G{C, H, H, Kernel, Kernel, Stride, Stride, Pad, Pad};
  if (G.outH() <= 0)
    GTEST_SKIP() << "degenerate geometry";
  Rng R(C * 100 + H * 10 + Kernel + Stride + Pad);
  std::vector<float> X(C * H * H), Y(G.colRows() * G.colCols());
  for (auto &V : X)
    V = static_cast<float>(R.uniform(-1, 1));
  for (auto &V : Y)
    V = static_cast<float>(R.uniform(-1, 1));

  std::vector<float> ColX(Y.size());
  im2col(X.data(), G, ColX.data());
  double Lhs = 0;
  for (size_t I = 0; I < Y.size(); ++I)
    Lhs += static_cast<double>(ColX[I]) * Y[I];

  std::vector<float> ImY(X.size(), 0.0f);
  col2im(Y.data(), G, ImY.data());
  double Rhs = 0;
  for (size_t I = 0; I < X.size(); ++I)
    Rhs += static_cast<double>(X[I]) * ImY[I];

  EXPECT_NEAR(Lhs, Rhs, 1e-3 * static_cast<double>(Y.size()));
}

INSTANTIATE_TEST_SUITE_P(Geometries, Im2ColSweepTest,
                         testing::Combine(testing::Values(1, 3),
                                          testing::Values(4, 7, 12),
                                          testing::Values(1, 2, 3),
                                          testing::Values(1, 2),
                                          testing::Values(0, 1)));

TEST(MaxPoolTest, ForwardPicksMaxAndMask) {
  ConvGeometry G{1, 4, 4, 2, 2, 2, 2, 0, 0};
  std::vector<float> In = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                           16};
  std::vector<float> Out(4);
  std::vector<int32_t> Mask(4);
  maxPoolFwd(In.data(), G, Out.data(), Mask.data());
  EXPECT_FLOAT_EQ(Out[0], 6);
  EXPECT_FLOAT_EQ(Out[1], 8);
  EXPECT_FLOAT_EQ(Out[2], 14);
  EXPECT_FLOAT_EQ(Out[3], 16);
  EXPECT_EQ(Mask[0], 5);
  EXPECT_EQ(Mask[3], 15);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  ConvGeometry G{1, 4, 4, 2, 2, 2, 2, 0, 0};
  std::vector<float> In(16);
  for (int I = 0; I < 16; ++I)
    In[I] = static_cast<float>(I);
  std::vector<float> Out(4);
  std::vector<int32_t> Mask(4);
  maxPoolFwd(In.data(), G, Out.data(), Mask.data());

  std::vector<float> OutGrad = {1, 2, 3, 4};
  std::vector<float> InGrad(16, 0.0f);
  maxPoolBwd(OutGrad.data(), G, Mask.data(), InGrad.data());
  EXPECT_FLOAT_EQ(InGrad[5], 1);
  EXPECT_FLOAT_EQ(InGrad[7], 2);
  EXPECT_FLOAT_EQ(InGrad[13], 3);
  EXPECT_FLOAT_EQ(InGrad[15], 4);
  float Total = 0;
  for (float V : InGrad)
    Total += V;
  EXPECT_FLOAT_EQ(Total, 10.0f); // gradient is conserved
}

TEST(MaxPoolTest, OverlappingWindows) {
  // AlexNet-style 3x3 stride-2 overlapping pooling.
  ConvGeometry G{1, 5, 5, 3, 3, 2, 2, 0, 0};
  std::vector<float> In(25, 0.0f);
  In[12] = 5.0f; // center pixel participates in all four windows
  std::vector<float> Out(4);
  std::vector<int32_t> Mask(4);
  maxPoolFwd(In.data(), G, Out.data(), Mask.data());
  for (int I = 0; I < 4; ++I) {
    EXPECT_FLOAT_EQ(Out[I], 5.0f);
    EXPECT_EQ(Mask[I], 12);
  }
}

TEST(AvgPoolTest, ForwardAveragesWindow) {
  ConvGeometry G{1, 2, 2, 2, 2, 2, 2, 0, 0};
  std::vector<float> In = {1, 2, 3, 4};
  std::vector<float> Out(1);
  avgPoolFwd(In.data(), G, Out.data());
  EXPECT_FLOAT_EQ(Out[0], 2.5f);
}

TEST(AvgPoolTest, BackwardSpreadsUniformly) {
  ConvGeometry G{1, 2, 2, 2, 2, 2, 2, 0, 0};
  std::vector<float> OutGrad = {4.0f};
  std::vector<float> InGrad(4, 0.0f);
  avgPoolBwd(OutGrad.data(), G, InGrad.data());
  for (float V : InGrad)
    EXPECT_FLOAT_EQ(V, 1.0f);
}

TEST(MaxPoolTest, MultiChannelIndependence) {
  ConvGeometry G{2, 2, 2, 2, 2, 2, 2, 0, 0};
  std::vector<float> In = {1, 2, 3, 4, 40, 30, 20, 10};
  std::vector<float> Out(2);
  std::vector<int32_t> Mask(2);
  maxPoolFwd(In.data(), G, Out.data(), Mask.data());
  EXPECT_FLOAT_EQ(Out[0], 4);
  EXPECT_FLOAT_EQ(Out[1], 40);
  EXPECT_EQ(Mask[1], 4); // linear offset within the whole CHW tensor
}

TEST(WindowSplitTest, BitwiseEqualToGuardedLoops) {
  // Every geometry here, at every (RowBegin, RowCount) window: non-square
  // kernel, stride and pad; stride above the kernel; pad at or above the
  // kernel (all-padding windows pool to -inf with mask -1). Each buffer
  // ends at its last element, so an over-read leaves the allocation.
  Rng R(2024);
  int64_t Cases = 0;
  for (int64_t C : {1, 3})
    for (auto [H, W] : {std::pair<int64_t, int64_t>{1, 1}, {4, 6}, {7, 5}})
      for (auto [KH, KW] : {std::pair<int64_t, int64_t>{1, 1}, {2, 3}, {3, 2}})
        for (auto [SH, SW] :
             {std::pair<int64_t, int64_t>{1, 1}, {2, 1}, {1, 3}, {4, 4}})
          for (auto [PH, PW] :
               {std::pair<int64_t, int64_t>{0, 0}, {1, 2}, {2, 0}, {3, 3}}) {
            ConvGeometry G{C, H, W, KH, KW, SH, SW, PH, PW};
            const int64_t OutH = G.outH(), OutW = G.outW();
            if (OutH <= 0 || OutW <= 0)
              continue;
            const int64_t ImageN = C * H * W, ColN = G.colRows() * G.colCols(),
                          OutN = C * OutH * OutW;
            const std::vector<float> Image = awkwardValues(ImageN, R, true);
            const std::vector<float> ColIn = awkwardValues(ColN, R, false);
            const std::vector<float> Acc = awkwardValues(ImageN, R, false);
            for (int64_t Begin = 0; Begin < OutH; ++Begin)
              for (int64_t Count = 1; Begin + Count <= OutH; ++Count) {
                SCOPED_TRACE(testing::Message()
                             << "C" << C << " H" << H << " W" << W << " K"
                             << KH << "x" << KW << " S" << SH << "x" << SW
                             << " P" << PH << "x" << PW << " rows [" << Begin
                             << ", " << Begin + Count << ")");
                std::vector<float> Want(ColN, 7.0f), Got(ColN, 7.0f);
                guardedIm2colRows(Image.data(), G, Want.data(), Begin, Count);
                im2colRows(Image.data(), G, Got.data(), Begin, Count);
                ASSERT_EQ(std::memcmp(Want.data(), Got.data(), ColN * 4), 0);

                Want = Acc;
                Got = Acc;
                guardedCol2imRows(ColIn.data(), G, Want.data(), Begin, Count);
                col2imRows(ColIn.data(), G, Got.data(), Begin, Count);
                ASSERT_EQ(std::memcmp(Want.data(), Got.data(), ImageN * 4), 0);

                std::vector<float> WantOut(OutN, 7.0f), GotOut(OutN, 7.0f);
                std::vector<int32_t> WantMask(OutN, 5), GotMask(OutN, 5);
                guardedMaxPoolFwdRows(Image.data(), G, WantOut.data(),
                                      WantMask.data(), Begin, Count);
                maxPoolFwdRows(Image.data(), G, GotOut.data(), GotMask.data(),
                               Begin, Count);
                ASSERT_EQ(
                    std::memcmp(WantOut.data(), GotOut.data(), OutN * 4), 0);
                ASSERT_EQ(WantMask, GotMask);
                std::fill(GotOut.begin(), GotOut.end(), 7.0f);
                maxPoolFwdRows(Image.data(), G, GotOut.data(), nullptr, Begin,
                               Count);
                ASSERT_EQ(
                    std::memcmp(WantOut.data(), GotOut.data(), OutN * 4), 0);
                ++Cases;
              }
          }
  EXPECT_GT(Cases, 1000);
}
