//===- kernels/elementwise.cpp --------------------------------*- C++ -*-===//

#include "kernels/elementwise.h"

#include <cassert>
#include <cmath>
#include <cstring>

using namespace latte;

void kernels::zero(float *Dst, int64_t Count) {
  std::memset(Dst, 0, static_cast<size_t>(Count) * sizeof(float));
}

void kernels::copy(float *Dst, const float *Src, int64_t Count) {
  std::memcpy(Dst, Src, static_cast<size_t>(Count) * sizeof(float));
}

void kernels::reluFwd(float *Dst, const float *Src, int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    Dst[I] = Src[I] > 0.0f ? Src[I] : 0.0f;
}

void kernels::reluBwd(float *DstGrad, const float *OutGrad,
                      const float *Value, int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    DstGrad[I] += Value[I] > 0.0f ? OutGrad[I] : 0.0f;
}

void kernels::addTo(float *Dst, const float *Src, int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    Dst[I] += Src[I];
}

void kernels::mulInto(float *Dst, const float *A, const float *B,
                      int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    Dst[I] = A[I] * B[I];
}

void kernels::mulAddTo(float *Dst, const float *A, const float *B,
                       int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    Dst[I] += A[I] * B[I];
}

void kernels::addScalar(float *Dst, float Value, int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    Dst[I] += Value;
}

void kernels::scale(float *Dst, float Factor, int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    Dst[I] *= Factor;
}

void kernels::gather(float *Dst, const float *Src, const int32_t *Table,
                     int64_t Count) {
  for (int64_t I = 0; I < Count; ++I) {
    int32_t Idx = Table[I];
    Dst[I] = Idx >= 0 ? Src[Idx] : 0.0f;
  }
}

void kernels::scatterAdd(float *Dst, const float *Src, const int32_t *Table,
                         int64_t Count) {
  for (int64_t I = 0; I < Count; ++I) {
    int32_t Idx = Table[I];
    if (Idx >= 0)
      Dst[Idx] += Src[I];
  }
}

void kernels::sigmoidFwd(float *Dst, const float *Src, int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    Dst[I] = 1.0f / (1.0f + std::exp(-Src[I]));
}

void kernels::tanhFwd(float *Dst, const float *Src, int64_t Count) {
  for (int64_t I = 0; I < Count; ++I)
    Dst[I] = std::tanh(Src[I]);
}

float kernels::sum(const float *Src, int64_t Count) {
  float Total = 0.0f;
  for (int64_t I = 0; I < Count; ++I)
    Total += Src[I];
  return Total;
}

float kernels::maxElement(const float *Src, int64_t Count) {
  assert(Count > 0 && "maxElement requires at least one element");
  float Max = Src[0];
  for (int64_t I = 1; I < Count; ++I)
    if (Src[I] > Max)
      Max = Src[I];
  return Max;
}
