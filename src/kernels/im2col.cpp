//===- kernels/im2col.cpp -------------------------------------*- C++ -*-===//

#include "kernels/im2col.h"

#include "kernels/code_align.h"

#include <cassert>

using namespace latte;
using namespace latte::kernels;

LATTE_KERNEL_ALIGN void
kernels::im2col(const float *Image, const ConvGeometry &G, float *Col) {
  im2colRows(Image, G, Col, 0, G.outH());
}

LATTE_KERNEL_ALIGN void
kernels::im2colRows(const float *Image, const ConvGeometry &G,
                    float *Col, int64_t RowBegin, int64_t RowCount) {
  const int64_t OutH = G.outH(), OutW = G.outW();
  assert(OutH > 0 && OutW > 0 && "convolution output must be non-empty");
  assert(RowBegin >= 0 && RowBegin + RowCount <= OutH &&
         "im2col row range out of bounds");
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

LATTE_KERNEL_ALIGN void
kernels::col2im(const float *Col, const ConvGeometry &G, float *Image) {
  col2imRows(Col, G, Image, 0, G.outH());
}

LATTE_KERNEL_ALIGN void
kernels::col2imRows(const float *Col, const ConvGeometry &G,
                    float *Image, int64_t RowBegin, int64_t RowCount) {
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
