//===- kernels/pooling.h - Pooling kernels ---------------------*- C++ -*-===//
///
/// \file
/// Max and average pooling over CHW tensors, with the argmax mask needed by
/// back-propagation. The Caffe baseline calls these directly; Latte's
/// compiled programs call the row-ranged variants through
/// kernels::dispatch (interpreter, JIT and standalone program alike).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_KERNELS_POOLING_H
#define LATTE_KERNELS_POOLING_H

#include "kernels/im2col.h"

#include <cstdint>

namespace latte {
namespace kernels {

/// Max pooling forward. \p Mask (same size as the output, may be null)
/// receives the linear input offset of each window maximum for backward.
void maxPoolFwd(const float *Input, const ConvGeometry &G, float *Output,
                int32_t *Mask);

/// Max pooling backward: routes each output gradient to the recorded argmax
/// position. Accumulates into InputGrad.
void maxPoolBwd(const float *OutputGrad, const ConvGeometry &G,
                const int32_t *Mask, float *InputGrad);

/// Average pooling forward (padding positions count toward the divisor as
/// zero, i.e. divisor is the full window size, matching Caffe's default).
void avgPoolFwd(const float *Input, const ConvGeometry &G, float *Output);

/// Average pooling backward. Accumulates into InputGrad.
void avgPoolBwd(const float *OutputGrad, const ConvGeometry &G,
                float *InputGrad);

// Row-ranged variants covering output rows [RowBegin, RowBegin + RowCount)
// only — the units Latte's tiling pass splits pooling work into.
void maxPoolFwdRows(const float *Input, const ConvGeometry &G, float *Output,
                    int32_t *Mask, int64_t RowBegin, int64_t RowCount);
void maxPoolBwdRows(const float *OutputGrad, const ConvGeometry &G,
                    const int32_t *Mask, float *InputGrad, int64_t RowBegin,
                    int64_t RowCount);
void avgPoolFwdRows(const float *Input, const ConvGeometry &G, float *Output,
                    int64_t RowBegin, int64_t RowCount);
void avgPoolBwdRows(const float *OutputGrad, const ConvGeometry &G,
                    float *InputGrad, int64_t RowBegin, int64_t RowCount);

} // namespace kernels
} // namespace latte

#endif // LATTE_KERNELS_POOLING_H
