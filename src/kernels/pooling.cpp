//===- kernels/pooling.cpp ------------------------------------*- C++ -*-===//

#include "kernels/pooling.h"

#include "kernels/code_align.h"

#include <cassert>
#include <limits>

using namespace latte;
using namespace latte::kernels;

LATTE_KERNEL_ALIGN void
kernels::maxPoolFwd(const float *Input, const ConvGeometry &G,
                    float *Output, int32_t *Mask) {
  maxPoolFwdRows(Input, G, Output, Mask, 0, G.outH());
}

LATTE_KERNEL_ALIGN void
kernels::maxPoolFwdRows(const float *Input, const ConvGeometry &G,
                        float *Output, int32_t *Mask, int64_t RowBegin,
                        int64_t RowCount) {
  const int64_t OutH = G.outH(), OutW = G.outW();
  assert(RowBegin >= 0 && RowBegin + RowCount <= OutH &&
         "pooling row range out of bounds");
  const int64_t RowEnd = RowBegin + RowCount;
  const int64_t Plane = G.Height * G.Width;
  // The outputs whose whole window is inside the image: the first tap's
  // valid range cut with the last tap's, rows [Y0, Y1) x columns [X0, X1).
  const int64_t Y0 = std::clamp(
      validOutputs(-G.PadH, G.StrideH, G.Height, OutH).Lo, RowBegin, RowEnd);
  const int64_t Y1 = std::clamp(
      validOutputs(G.KernelH - 1 - G.PadH, G.StrideH, G.Height, OutH).Hi, Y0,
      RowEnd);
  const int64_t X0 = validOutputs(-G.PadW, G.StrideW, G.Width, OutW).Lo;
  const int64_t X1 = std::max(
      X0, validOutputs(G.KernelW - 1 - G.PadW, G.StrideW, G.Width, OutW).Hi);
  for (int64_t C = 0; C < G.Channels; ++C) {
    const float *Chan = Input + C * Plane;
    // One output; Inside drops the tap checks, which then always pass.
    auto Pool = [&](int64_t Y, int64_t X, bool Inside) {
      float Max = -std::numeric_limits<float>::infinity();
      int64_t ArgMax = -1;
      for (int64_t KY = 0; KY < G.KernelH; ++KY) {
        int64_t InY = Y * G.StrideH - G.PadH + KY;
        if (!Inside && (InY < 0 || InY >= G.Height))
          continue;
        for (int64_t KX = 0; KX < G.KernelW; ++KX) {
          int64_t InX = X * G.StrideW - G.PadW + KX;
          if (!Inside && (InX < 0 || InX >= G.Width))
            continue;
          float V = Chan[InY * G.Width + InX];
          if (V > Max) {
            Max = V;
            ArgMax = C * Plane + InY * G.Width + InX;
          }
        }
      }
      int64_t Out = (C * OutH + Y) * OutW + X;
      Output[Out] = Max;
      if (Mask)
        Mask[Out] = static_cast<int32_t>(ArgMax);
    };
    for (int64_t Y = RowBegin; Y < RowEnd; ++Y) {
      const bool Inside = Y >= Y0 && Y < Y1;
      const int64_t Lo = Inside ? X0 : OutW, Hi = Inside ? X1 : OutW;
      for (int64_t X = 0; X < Lo; ++X)
        Pool(Y, X, false);
      for (int64_t X = Lo; X < Hi; ++X)
        Pool(Y, X, true);
      for (int64_t X = Hi; X < OutW; ++X)
        Pool(Y, X, false);
    }
  }
}

LATTE_KERNEL_ALIGN void
kernels::maxPoolBwd(const float *OutputGrad, const ConvGeometry &G,
                    const int32_t *Mask, float *InputGrad) {
  maxPoolBwdRows(OutputGrad, G, Mask, InputGrad, 0, G.outH());
}

LATTE_KERNEL_ALIGN void
kernels::maxPoolBwdRows(const float *OutputGrad, const ConvGeometry &G,
                        const int32_t *Mask, float *InputGrad,
                        int64_t RowBegin, int64_t RowCount) {
  assert(Mask && "max pooling backward requires the forward argmax mask");
  const int64_t OutH = G.outH(), OutW = G.outW();
  for (int64_t C = 0; C < G.Channels; ++C) {
    for (int64_t Y = RowBegin; Y < RowBegin + RowCount; ++Y) {
      const int64_t Row = (C * OutH + Y) * OutW;
      for (int64_t X = 0; X < OutW; ++X)
        if (Mask[Row + X] >= 0)
          InputGrad[Mask[Row + X]] += OutputGrad[Row + X];
    }
  }
}

LATTE_KERNEL_ALIGN void
kernels::avgPoolFwd(const float *Input, const ConvGeometry &G,
                    float *Output) {
  avgPoolFwdRows(Input, G, Output, 0, G.outH());
}

LATTE_KERNEL_ALIGN void
kernels::avgPoolFwdRows(const float *Input, const ConvGeometry &G,
                        float *Output, int64_t RowBegin,
                        int64_t RowCount) {
  const int64_t OutH = G.outH(), OutW = G.outW();
  const float Inv = 1.0f / static_cast<float>(G.KernelH * G.KernelW);
  for (int64_t C = 0; C < G.Channels; ++C) {
    const float *Chan = Input + C * G.Height * G.Width;
    for (int64_t Y = RowBegin; Y < RowBegin + RowCount; ++Y) {
      for (int64_t X = 0; X < OutW; ++X) {
        float Sum = 0.0f;
        for (int64_t KY = 0; KY < G.KernelH; ++KY) {
          int64_t InY = Y * G.StrideH - G.PadH + KY;
          if (InY < 0 || InY >= G.Height)
            continue;
          for (int64_t KX = 0; KX < G.KernelW; ++KX) {
            int64_t InX = X * G.StrideW - G.PadW + KX;
            if (InX >= 0 && InX < G.Width)
              Sum += Chan[InY * G.Width + InX];
          }
        }
        Output[(C * OutH + Y) * OutW + X] = Sum * Inv;
      }
    }
  }
}

LATTE_KERNEL_ALIGN void
kernels::avgPoolBwd(const float *OutputGrad, const ConvGeometry &G,
                    float *InputGrad) {
  avgPoolBwdRows(OutputGrad, G, InputGrad, 0, G.outH());
}

LATTE_KERNEL_ALIGN void
kernels::avgPoolBwdRows(const float *OutputGrad, const ConvGeometry &G,
                        float *InputGrad, int64_t RowBegin,
                        int64_t RowCount) {
  const int64_t OutH = G.outH(), OutW = G.outW();
  const float Inv = 1.0f / static_cast<float>(G.KernelH * G.KernelW);
  for (int64_t C = 0; C < G.Channels; ++C) {
    float *Chan = InputGrad + C * G.Height * G.Width;
    for (int64_t Y = RowBegin; Y < RowBegin + RowCount; ++Y) {
      for (int64_t X = 0; X < OutW; ++X) {
        float G0 = OutputGrad[(C * OutH + Y) * OutW + X] * Inv;
        for (int64_t KY = 0; KY < G.KernelH; ++KY) {
          int64_t InY = Y * G.StrideH - G.PadH + KY;
          if (InY < 0 || InY >= G.Height)
            continue;
          for (int64_t KX = 0; KX < G.KernelW; ++KX) {
            int64_t InX = X * G.StrideW - G.PadW + KX;
            if (InX >= 0 && InX < G.Width)
              Chan[InY * G.Width + InX] += G0;
          }
        }
      }
    }
  }
}
