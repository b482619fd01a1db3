//===- kernels/dispatch.cpp -----------------------------------*- C++ -*-===//

#include "kernels/dispatch.h"

#include "ir/stmt.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/pooling.h"
#include "kernels/softmax.h"
#include "support/error.h"

#include <string>

using namespace latte;
using ir::ActOpKind;
using ir::KernelKind;

namespace {

/// Labels reach the loss kernels from outside (dataset files, callers'
/// writeBuffer, a standalone program's .ltd input): one outside
/// [0, Classes), or NaN, would index past the probability row. Checked on
/// the float, before the cast.
int64_t checkedLabel(float Label, int64_t Classes) {
  if (!(Label >= 0.0f && Label < static_cast<float>(Classes)))
    reportFatalError("softmax loss: label " + std::to_string(Label) +
                     " is outside [0, " + std::to_string(Classes) + ")");
  return static_cast<int64_t>(Label);
}

/// The geometry of an Im2ColRows / Col2ImRows / pooling call, whose int
/// args start {C, InH, InW, K, S, Pad}.
kernels::ConvGeometry geometry(const int64_t *IA) {
  kernels::ConvGeometry G;
  G.Channels = IA[0];
  G.Height = IA[1];
  G.Width = IA[2];
  G.KernelH = G.KernelW = IA[3];
  G.StrideH = G.StrideW = IA[4];
  G.PadH = G.PadW = IA[5];
  return G;
}

} // namespace

void kernels::dispatch(int64_t KindId, float **FB, int32_t **IB,
                       const int64_t *IA, const double *FA,
                       const int64_t *EA) {
  switch (static_cast<KernelKind>(KindId)) {
  case KernelKind::Zero:
    zero(FB[0], IA[0]);
    return;
  case KernelKind::Copy:
    copy(FB[0], FB[1], IA[0]);
    return;
  case KernelKind::AddTo:
    addTo(FB[0], FB[1], IA[0]);
    return;
  case KernelKind::MulInto:
    mulInto(FB[0], FB[1], FB[2], IA[0]);
    return;
  case KernelKind::MulAddTo:
    mulAddTo(FB[0], FB[1], FB[2], IA[0]);
    return;
  case KernelKind::Scale:
    scale(FB[0], static_cast<float>(FA[0]), IA[0]);
    return;
  case KernelKind::Sgemm:
    // ints: {M, N, K, LdA, LdB, LdC, TransA, TransB, Accumulate}
    sgemm(IA[6] != 0, IA[7] != 0, IA[0], IA[1], IA[2], FB[0], IA[3], FB[1],
          IA[4], FB[2], IA[5], IA[8] != 0);
    return;
  case KernelKind::Gather2D: {
    // ints: {Rows, Cols, ColCount}; exprs: {ColBegin}
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2], Cb = EA[0];
    float *Dst = FB[0];
    const float *Src = FB[1];
    const int32_t *Table = IB[2];
    for (int64_t R = 0; R < Rows; ++R)
      gather(Dst + R * Cols + Cb, Src, Table + R * Cols + Cb, Cnt);
    return;
  }
  case KernelKind::ScatterAdd2D: {
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2], Cb = EA[0];
    float *Dst = FB[0];
    const float *Src = FB[1];
    const int32_t *Table = IB[2];
    for (int64_t R = 0; R < Rows; ++R)
      scatterAdd(Dst, Src + R * Cols + Cb, Table + R * Cols + Cb, Cnt);
    return;
  }
  case KernelKind::ActFwdCols: {
    // ints: {Op, Rows, Cols, ColCount}; exprs: {ColBegin}
    auto Op = static_cast<ActOpKind>(IA[0]);
    int64_t Rows = IA[1], Cols = IA[2], Cnt = IA[3], Cb = EA[0];
    float *Dst = FB[0];
    const float *Src = FB[1];
    for (int64_t R = 0; R < Rows; ++R) {
      float *D = Dst + R * Cols + Cb;
      const float *Sp = Src + R * Cols + Cb;
      switch (Op) {
      case ActOpKind::Relu:
        reluFwd(D, Sp, Cnt);
        break;
      case ActOpKind::Sigmoid:
        sigmoidFwd(D, Sp, Cnt);
        break;
      case ActOpKind::Tanh:
        tanhFwd(D, Sp, Cnt);
        break;
      }
    }
    return;
  }
  case KernelKind::ActBwdCols: {
    // ints: {Op, Rows, Cols, ColCount, InPlace}; exprs: {ColBegin}
    auto Op = static_cast<ActOpKind>(IA[0]);
    int64_t Rows = IA[1], Cols = IA[2], Cnt = IA[3], Cb = EA[0];
    bool InPlace = IA[4] != 0;
    float *DstG = FB[0];
    const float *OutG = FB[1];
    const float *Val = FB[2];
    for (int64_t R = 0; R < Rows; ++R) {
      int64_t Base = R * Cols + Cb;
      float *Dg = DstG + Base;
      const float *Og = OutG + Base;
      const float *V = Val + Base;
      switch (Op) {
      case ActOpKind::Relu:
        if (InPlace) {
          for (int64_t I = 0; I < Cnt; ++I)
            Dg[I] = V[I] > 0.0f ? Og[I] : 0.0f;
        } else {
          reluBwd(Dg, Og, V, Cnt);
        }
        break;
      case ActOpKind::Sigmoid:
        for (int64_t I = 0; I < Cnt; ++I) {
          float D = Og[I] * V[I] * (1.0f - V[I]);
          Dg[I] = InPlace ? D : Dg[I] + D;
        }
        break;
      case ActOpKind::Tanh:
        for (int64_t I = 0; I < Cnt; ++I) {
          float D = Og[I] * (1.0f - V[I] * V[I]);
          Dg[I] = InPlace ? D : Dg[I] + D;
        }
        break;
      }
    }
    return;
  }
  case KernelKind::BiasAddCols: {
    // ints: {Rows, Cols, ColCount}; exprs: {ColBegin}
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2], Cb = EA[0];
    float *Dst = FB[0];
    const float *Bias = FB[1];
    for (int64_t R = 0; R < Rows; ++R)
      addScalar(Dst + R * Cols + Cb, Bias[R], Cnt);
    return;
  }
  case KernelKind::BiasAddPerRow: {
    int64_t Rows = IA[0], Cols = IA[1];
    float *Dst = FB[0];
    const float *Bias = FB[1];
    for (int64_t R = 0; R < Rows; ++R)
      addTo(Dst + R * Cols, Bias, Cols);
    return;
  }
  case KernelKind::RowSumAdd: {
    int64_t Rows = IA[0], Cols = IA[1];
    float *Dst = FB[0];
    const float *Src = FB[1];
    for (int64_t R = 0; R < Rows; ++R)
      Dst[R] += sum(Src + R * Cols, Cols);
    return;
  }
  case KernelKind::ColSumAdd: {
    int64_t Rows = IA[0], Cols = IA[1];
    float *Dst = FB[0];
    const float *Src = FB[1];
    for (int64_t R = 0; R < Rows; ++R)
      addTo(Dst, Src + R * Cols, Cols);
    return;
  }
  // ints: {C, InH, InW, K, S, Pad, RowCount}; exprs: {RowBegin}
  case KernelKind::Im2ColRows:
    im2colRows(FB[1], geometry(IA), FB[0], EA[0], IA[6]);
    return;
  case KernelKind::Col2ImRows:
    col2imRows(FB[1], geometry(IA), FB[0], EA[0], IA[6]);
    return;
  case KernelKind::MaxPoolFwdRows:
    maxPoolFwdRows(FB[1], geometry(IA), FB[0], IB[2], EA[0], IA[6]);
    return;
  case KernelKind::MaxPoolBwdRows:
    maxPoolBwdRows(FB[1], geometry(IA), IB[2], FB[0], EA[0], IA[6]);
    return;
  case KernelKind::AvgPoolFwdRows:
    avgPoolFwdRows(FB[1], geometry(IA), FB[0], EA[0], IA[6]);
    return;
  case KernelKind::AvgPoolBwdRows:
    avgPoolBwdRows(FB[1], geometry(IA), FB[0], EA[0], IA[6]);
    return;
  case KernelKind::SoftmaxFwd: {
    int64_t Rows = IA[0], Classes = IA[1];
    float *Dst = FB[0];
    const float *Src = FB[1];
    for (int64_t R = 0; R < Rows; ++R)
      softmaxFwd(Dst + R * Classes, Src + R * Classes, Classes);
    return;
  }
  case KernelKind::SoftmaxLossFwd: {
    int64_t Rows = IA[0], Classes = IA[1];
    float *Prob = FB[0];
    const float *Src = FB[1];
    const float *Labels = FB[2];
    float *Loss = FB[3];
    for (int64_t R = 0; R < Rows; ++R) {
      softmaxFwd(Prob + R * Classes, Src + R * Classes, Classes);
      Loss[R] = crossEntropyLoss(Prob + R * Classes, Classes,
                                 checkedLabel(Labels[R], Classes));
    }
    return;
  }
  case KernelKind::SoftmaxLossBwd: {
    int64_t Rows = IA[0], Classes = IA[1];
    float Scale = static_cast<float>(FA[0]);
    float *Grad = FB[0];
    const float *Prob = FB[1];
    const float *Labels = FB[2];
    for (int64_t R = 0; R < Rows; ++R)
      softmaxLossBwd(Grad + R * Classes, Prob + R * Classes, Classes,
                     checkedLabel(Labels[R], Classes), Scale);
    return;
  }
  case KernelKind::SoftmaxBwd: {
    int64_t Rows = IA[0], Classes = IA[1];
    float *Gin = FB[0];
    const float *Og = FB[1];
    const float *P = FB[2];
    for (int64_t R = 0; R < Rows; ++R) {
      const float *Ogr = Og + R * Classes;
      const float *Pr = P + R * Classes;
      float Dot = 0.0f;
      for (int64_t C = 0; C < Classes; ++C)
        Dot += Ogr[C] * Pr[C];
      float *G = Gin + R * Classes;
      for (int64_t C = 0; C < Classes; ++C)
        G[C] += Pr[C] * (Ogr[C] - Dot);
    }
    return;
  }
  }
  latteUnreachable("unknown kernel kind");
}
