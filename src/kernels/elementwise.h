//===- kernels/elementwise.h - Vectorized elementwise kernels -*- C++ -*-===//
///
/// \file
/// The elementwise and data-movement kernels Latte's code generator emits
/// for matched neuron bodies and synthesized copy tasks (paper §5.3, §5.4).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_KERNELS_ELEMENTWISE_H
#define LATTE_KERNELS_ELEMENTWISE_H

#include <cstdint>

namespace latte {
namespace kernels {

/// Dst[i] = 0.
void zero(float *Dst, int64_t Count);

/// Dst[i] = Src[i].
void copy(float *Dst, const float *Src, int64_t Count);

/// Dst[i] = max(Src[i], 0).
void reluFwd(float *Dst, const float *Src, int64_t Count);

/// DstGrad[i] += OutGrad[i] * (Value[i] > 0).
void reluBwd(float *DstGrad, const float *OutGrad, const float *Value,
             int64_t Count);

/// Dst[i] += Src[i].
void addTo(float *Dst, const float *Src, int64_t Count);

/// Dst[i] = A[i] * B[i].
void mulInto(float *Dst, const float *A, const float *B, int64_t Count);

/// Dst[i] += A[i] * B[i].
void mulAddTo(float *Dst, const float *A, const float *B, int64_t Count);

/// Dst[i] *= Factor.
void scale(float *Dst, float Factor, int64_t Count);

/// Dst[i] += Value.
void addScalar(float *Dst, float Value, int64_t Count);

/// Gather through an index table: Dst[i] = Table[i] >= 0 ? Src[Table[i]] : 0.
/// Negative table entries encode out-of-bounds window positions (padding).
void gather(float *Dst, const float *Src, const int32_t *Table,
            int64_t Count);

/// Scatter-accumulate (the adjoint of gather):
/// if Table[i] >= 0 then Dst[Table[i]] += Src[i].
void scatterAdd(float *Dst, const float *Src, const int32_t *Table,
                int64_t Count);

/// Dst[i] = 1 / (1 + exp(-Src[i])).
void sigmoidFwd(float *Dst, const float *Src, int64_t Count);

/// Dst[i] = tanh(Src[i]).
void tanhFwd(float *Dst, const float *Src, int64_t Count);

/// Sum of all elements.
float sum(const float *Src, int64_t Count);

/// Maximum element (Count must be positive).
float maxElement(const float *Src, int64_t Count);

} // namespace kernels
} // namespace latte

#endif // LATTE_KERNELS_ELEMENTWISE_H
