//===- baselines/mocha/mocha.cpp ------------------------------*- C++ -*-===//

#include "baselines/mocha/mocha.h"

#include "kernels/gemm.h"
#include "support/error.h"

#include <limits>
#include <vector>

using namespace latte;
using namespace latte::caffe;
using namespace latte::mocha;

// Scalar loops throughout; vectorization suppressed to model interpreted
// high-level framework code.
#define LATTE_NOVEC                                                           \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))

//===----------------------------------------------------------------------===//
// NaiveConvolutionLayer
//===----------------------------------------------------------------------===//

void NaiveConvolutionLayer::reshape(const std::vector<Blob *> &Bottom,
                                    const std::vector<Blob *> &Top) {
  const Shape &In = Bottom[0]->shape();
  assert(In.rank() == 4 && "conv bottom must be (batch, C, H, W)");
  kernels::checkWindow("conv layer '" + Name + "'", Kernel, Stride);
  Geom = kernels::ConvGeometry{In[1], In[2], In[3], Kernel, Kernel,
                               Stride,  Stride, Pad,   Pad};
  if (Geom.outH() <= 0 || Geom.outW() <= 0)
    reportFatalError("conv layer '" + Name + "' has empty output");
  *Top[0] = Blob(Shape{In[0], NumFilters, Geom.outH(), Geom.outW()});
  Params.clear();
  Params.emplace_back(Shape{NumFilters, Geom.colRows()});
  Params.emplace_back(Shape{NumFilters});
}

void NaiveConvolutionLayer::initParams(Rng &R) {
  R.fillXavier(Params[0].Data, Geom.colRows());
  Params[1].Data.zero();
}

LATTE_NOVEC void
NaiveConvolutionLayer::forward(const std::vector<Blob *> &Bottom,
                               const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t C = Geom.Channels, H = Geom.Height, W = Geom.Width;
  const int64_t OutH = Geom.outH(), OutW = Geom.outW();
  for (int64_t I = 0; I < B; ++I) {
    // Per-call scratch allocation, as a garbage-collected framework incurs.
    std::vector<float> Window(static_cast<size_t>(Geom.colRows()));
    const float *In = Bottom[0]->Data.data() + I * Bottom[0]->itemCount();
    float *Out = Top[0]->Data.data() + I * Top[0]->itemCount();
    for (int64_t F = 0; F < NumFilters; ++F) {
      const float *Filter = Params[0].Data.data() + F * Geom.colRows();
      for (int64_t Y = 0; Y < OutH; ++Y) {
        for (int64_t X = 0; X < OutW; ++X) {
          int64_t Idx = 0;
          for (int64_t Ch = 0; Ch < C; ++Ch)
            for (int64_t KY = 0; KY < Kernel; ++KY)
              for (int64_t KX = 0; KX < Kernel; ++KX, ++Idx) {
                int64_t InY = Y * Stride - Pad + KY;
                int64_t InX = X * Stride - Pad + KX;
                Window[Idx] = (InY >= 0 && InY < H && InX >= 0 && InX < W)
                                  ? In[(Ch * H + InY) * W + InX]
                                  : 0.0f;
              }
          float Sum = Params[1].Data.at(F);
          for (int64_t K = 0; K < Geom.colRows(); ++K)
            Sum += Filter[K] * Window[K];
          Out[(F * OutH + Y) * OutW + X] = Sum;
        }
      }
    }
  }
}

LATTE_NOVEC void
NaiveConvolutionLayer::backward(const std::vector<Blob *> &Bottom,
                                const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t C = Geom.Channels, H = Geom.Height, W = Geom.Width;
  const int64_t OutH = Geom.outH(), OutW = Geom.outW();
  for (int64_t I = 0; I < B; ++I) {
    const float *In = Bottom[0]->Data.data() + I * Bottom[0]->itemCount();
    float *InG = Bottom[0]->Grad.data() + I * Bottom[0]->itemCount();
    const float *OutG = Top[0]->Grad.data() + I * Top[0]->itemCount();
    for (int64_t F = 0; F < NumFilters; ++F) {
      const float *Filter = Params[0].Data.data() + F * Geom.colRows();
      float *FilterG = Params[0].Grad.data() + F * Geom.colRows();
      for (int64_t Y = 0; Y < OutH; ++Y) {
        for (int64_t X = 0; X < OutW; ++X) {
          float G = OutG[(F * OutH + Y) * OutW + X];
          Params[1].Grad.at(F) += G;
          int64_t Idx = 0;
          for (int64_t Ch = 0; Ch < C; ++Ch)
            for (int64_t KY = 0; KY < Kernel; ++KY)
              for (int64_t KX = 0; KX < Kernel; ++KX, ++Idx) {
                int64_t InY = Y * Stride - Pad + KY;
                int64_t InX = X * Stride - Pad + KX;
                if (InY < 0 || InY >= H || InX < 0 || InX >= W)
                  continue;
                FilterG[Idx] += G * In[(Ch * H + InY) * W + InX];
                InG[(Ch * H + InY) * W + InX] += G * Filter[Idx];
              }
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// NaiveInnerProductLayer
//===----------------------------------------------------------------------===//

void NaiveInnerProductLayer::reshape(const std::vector<Blob *> &Bottom,
                                     const std::vector<Blob *> &Top) {
  NumInputs = Bottom[0]->itemCount();
  *Top[0] = Blob(Shape{Bottom[0]->shape()[0], NumOutputs});
  Params.clear();
  Params.emplace_back(Shape{NumOutputs, NumInputs});
  Params.emplace_back(Shape{NumOutputs});
}

void NaiveInnerProductLayer::initParams(Rng &R) {
  R.fillXavier(Params[0].Data, NumInputs);
  Params[1].Data.zero();
}

void NaiveInnerProductLayer::forward(const std::vector<Blob *> &Bottom,
                                     const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  kernels::sgemmNaive(false, true, B, NumOutputs, NumInputs,
                      Bottom[0]->Data.data(), NumInputs,
                      Params[0].Data.data(), NumInputs, Top[0]->Data.data(),
                      NumOutputs, /*Accumulate=*/false);
  for (int64_t I = 0; I < B; ++I)
    for (int64_t O = 0; O < NumOutputs; ++O)
      Top[0]->Data.at(I * NumOutputs + O) += Params[1].Data.at(O);
}

void NaiveInnerProductLayer::backward(const std::vector<Blob *> &Bottom,
                                      const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  kernels::sgemmNaive(true, false, NumOutputs, NumInputs, B,
                      Top[0]->Grad.data(), NumOutputs,
                      Bottom[0]->Data.data(), NumInputs,
                      Params[0].Grad.data(), NumInputs, /*Accumulate=*/true);
  for (int64_t I = 0; I < B; ++I)
    for (int64_t O = 0; O < NumOutputs; ++O)
      Params[1].Grad.at(O) += Top[0]->Grad.at(I * NumOutputs + O);
  kernels::sgemmNaive(false, false, B, NumInputs, NumOutputs,
                      Top[0]->Grad.data(), NumOutputs,
                      Params[0].Data.data(), NumInputs,
                      Bottom[0]->Grad.data(), NumInputs,
                      /*Accumulate=*/true);
}

//===----------------------------------------------------------------------===//
// NaiveReluLayer
//===----------------------------------------------------------------------===//

void NaiveReluLayer::reshape(const std::vector<Blob *> &Bottom,
                             const std::vector<Blob *> &Top) {
  *Top[0] = Blob(Bottom[0]->shape());
}

LATTE_NOVEC void NaiveReluLayer::forward(const std::vector<Blob *> &Bottom,
                                         const std::vector<Blob *> &Top) {
  for (int64_t I = 0, E = Bottom[0]->count(); I < E; ++I)
    Top[0]->Data.at(I) =
        Bottom[0]->Data.at(I) > 0.0f ? Bottom[0]->Data.at(I) : 0.0f;
}

LATTE_NOVEC void NaiveReluLayer::backward(const std::vector<Blob *> &Bottom,
                                          const std::vector<Blob *> &Top) {
  for (int64_t I = 0, E = Bottom[0]->count(); I < E; ++I)
    Bottom[0]->Grad.at(I) +=
        Top[0]->Data.at(I) > 0.0f ? Top[0]->Grad.at(I) : 0.0f;
}

//===----------------------------------------------------------------------===//
// NaiveMaxPoolingLayer
//===----------------------------------------------------------------------===//

void NaiveMaxPoolingLayer::reshape(const std::vector<Blob *> &Bottom,
                                   const std::vector<Blob *> &Top) {
  const Shape &In = Bottom[0]->shape();
  kernels::checkWindow("pooling layer '" + Name + "'", Kernel, Stride);
  Geom = kernels::ConvGeometry{In[1], In[2], In[3], Kernel, Kernel,
                               Stride,  Stride, Pad,   Pad};
  if (Geom.outH() <= 0 || Geom.outW() <= 0)
    reportFatalError("pooling layer '" + Name + "' has empty output");
  *Top[0] = Blob(Shape{In[0], In[1], Geom.outH(), Geom.outW()});
}

LATTE_NOVEC void
NaiveMaxPoolingLayer::forward(const std::vector<Blob *> &Bottom,
                              const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t C = Geom.Channels, H = Geom.Height, W = Geom.Width;
  const int64_t OutH = Geom.outH(), OutW = Geom.outW();
  for (int64_t I = 0; I < B; ++I) {
    const float *In = Bottom[0]->Data.data() + I * Bottom[0]->itemCount();
    float *Out = Top[0]->Data.data() + I * Top[0]->itemCount();
    for (int64_t Ch = 0; Ch < C; ++Ch)
      for (int64_t Y = 0; Y < OutH; ++Y)
        for (int64_t X = 0; X < OutW; ++X) {
          float Max = -std::numeric_limits<float>::infinity();
          for (int64_t KY = 0; KY < Kernel; ++KY)
            for (int64_t KX = 0; KX < Kernel; ++KX) {
              int64_t InY = Y * Stride - Pad + KY;
              int64_t InX = X * Stride - Pad + KX;
              if (InY < 0 || InY >= H || InX < 0 || InX >= W)
                continue;
              float V = In[(Ch * H + InY) * W + InX];
              if (V > Max)
                Max = V;
            }
          Out[(Ch * OutH + Y) * OutW + X] = Max;
        }
  }
}

LATTE_NOVEC void
NaiveMaxPoolingLayer::backward(const std::vector<Blob *> &Bottom,
                               const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t C = Geom.Channels, H = Geom.Height, W = Geom.Width;
  const int64_t OutH = Geom.outH(), OutW = Geom.outW();
  for (int64_t I = 0; I < B; ++I) {
    const float *In = Bottom[0]->Data.data() + I * Bottom[0]->itemCount();
    float *InG = Bottom[0]->Grad.data() + I * Bottom[0]->itemCount();
    const float *Out = Top[0]->Data.data() + I * Top[0]->itemCount();
    const float *OutG = Top[0]->Grad.data() + I * Top[0]->itemCount();
    for (int64_t Ch = 0; Ch < C; ++Ch)
      for (int64_t Y = 0; Y < OutH; ++Y)
        for (int64_t X = 0; X < OutW; ++X) {
          // Rescan the window for the (first) max position.
          float Max = Out[(Ch * OutH + Y) * OutW + X];
          float G = OutG[(Ch * OutH + Y) * OutW + X];
          bool Routed = false;
          for (int64_t KY = 0; KY < Kernel && !Routed; ++KY)
            for (int64_t KX = 0; KX < Kernel && !Routed; ++KX) {
              int64_t InY = Y * Stride - Pad + KY;
              int64_t InX = X * Stride - Pad + KX;
              if (InY < 0 || InY >= H || InX < 0 || InX >= W)
                continue;
              if (In[(Ch * H + InY) * W + InX] == Max) {
                InG[(Ch * H + InY) * W + InX] += G;
                Routed = true;
              }
            }
        }
  }
}
