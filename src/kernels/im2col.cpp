//===- kernels/im2col.cpp -------------------------------------*- C++ -*-===//

#include "kernels/im2col.h"

#include "kernels/code_align.h"
#include "support/error.h"

#include <cassert>

using namespace latte;
using namespace latte::kernels;

LATTE_KERNEL_ALIGN void kernels::checkWindow(const std::string &Layer,
                                            int64_t Kernel, int64_t Stride) {
  if (Kernel < 1 || Stride < 1)
    reportFatalError(Layer + " has kernel " + std::to_string(Kernel) +
                     " and stride " + std::to_string(Stride) +
                     "; both must be at least 1");
}

LATTE_KERNEL_ALIGN void
kernels::im2col(const float *Image, const ConvGeometry &G, float *Col) {
  im2colRows(Image, G, Col, 0, G.outH());
}

// Both row kernels copy or accumulate one row of a tap's valid rectangle
// at a time. A unit stride gets its own loop: that one the compiler
// vectorizes, while a runtime stride leaves the copy scalar.

LATTE_KERNEL_ALIGN void
kernels::im2colRows(const float *Image, const ConvGeometry &G,
                    float *Col, int64_t RowBegin, int64_t RowCount) {
  const int64_t OutH = G.outH(), OutW = G.outW();
  assert(OutH > 0 && OutW > 0 && "convolution output must be non-empty");
  assert(RowBegin >= 0 && RowBegin + RowCount <= OutH &&
         "im2col row range out of bounds");
  const int64_t RowEnd = RowBegin + RowCount;
  float *ColRow = Col;
  for (int64_t C = 0; C < G.Channels; ++C) {
    const float *Chan = Image + C * G.Height * G.Width;
    for (int64_t KY = 0; KY < G.KernelH; ++KY) {
      const OutputRange Rows =
          validOutputs(KY - G.PadH, G.StrideH, G.Height, OutH);
      const int64_t Y0 = std::clamp(Rows.Lo, RowBegin, RowEnd);
      const int64_t Y1 = std::clamp(Rows.Hi, Y0, RowEnd);
      for (int64_t KX = 0; KX < G.KernelW; ++KX, ColRow += OutH * OutW) {
        const OutputRange Cols =
            validOutputs(KX - G.PadW, G.StrideW, G.Width, OutW);
        // Padding reads as zero: clear the rows once, then copy the
        // rectangle [Y0, Y1) x [Cols.Lo, Cols.Hi) over them.
        if (Y0 > RowBegin || Y1 < RowEnd || Cols.Lo > 0 || Cols.Hi < OutW)
          std::fill(ColRow + RowBegin * OutW, ColRow + RowEnd * OutW, 0.0f);
        const int64_t N = Cols.Hi - Cols.Lo;
        for (int64_t Y = Y0; Y < Y1; ++Y) {
          float *Dst = ColRow + Y * OutW + Cols.Lo;
          const float *Src = Chan + (Y * G.StrideH - G.PadH + KY) * G.Width +
                             Cols.Lo * G.StrideW - G.PadW + KX;
          if (G.StrideW == 1)
            for (int64_t X = 0; X < N; ++X)
              Dst[X] = Src[X];
          else
            for (int64_t X = 0; X < N; ++X)
              Dst[X] = Src[X * G.StrideW];
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
  const int64_t RowEnd = RowBegin + RowCount;
  const float *ColRow = Col;
  for (int64_t C = 0; C < G.Channels; ++C) {
    float *Chan = Image + C * G.Height * G.Width;
    for (int64_t KY = 0; KY < G.KernelH; ++KY) {
      const OutputRange Rows =
          validOutputs(KY - G.PadH, G.StrideH, G.Height, OutH);
      const int64_t Y0 = std::clamp(Rows.Lo, RowBegin, RowEnd);
      const int64_t Y1 = std::clamp(Rows.Hi, Y0, RowEnd);
      for (int64_t KX = 0; KX < G.KernelW; ++KX, ColRow += OutH * OutW) {
        const OutputRange Cols =
            validOutputs(KX - G.PadW, G.StrideW, G.Width, OutW);
        // Padding takes no gradient: only the rectangle accumulates.
        const int64_t N = Cols.Hi - Cols.Lo;
        for (int64_t Y = Y0; Y < Y1; ++Y) {
          float *Dst = Chan + (Y * G.StrideH - G.PadH + KY) * G.Width +
                       Cols.Lo * G.StrideW - G.PadW + KX;
          const float *Src = ColRow + Y * OutW + Cols.Lo;
          if (G.StrideW == 1)
            for (int64_t X = 0; X < N; ++X)
              Dst[X] += Src[X];
          else
            for (int64_t X = 0; X < N; ++X)
              Dst[X * G.StrideW] += Src[X];
        }
      }
    }
  }
}
