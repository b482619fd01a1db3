//===- kernels/im2col.h - Convolution lowering helpers ---------*- C++ -*-===//
///
/// \file
/// im2col / col2im: the matrix-multiplication formulation of convolution
/// used by Caffe-style frameworks (and by Latte's synthesized data-copy
/// tasks for convolution ensembles). Data layout is CHW (channel, row,
/// column), row-major.
///
/// im2col produces a matrix of shape
///   [Channels * KernelH * KernelW] x [OutH * OutW]
/// where column (y, x) holds the input window that produces output (y, x).
///
/// The window split: for one kernel tap (KY, KX), the outputs whose input
/// position lies inside the image form one rectangle of rows x columns
/// (validOutputs below, once per tap and dimension). im2col / col2im copy
/// or accumulate that rectangle with no per-element bound check; im2col
/// first clears the tap's rows when the rectangle leaves padding in them.
/// Max pooling runs the outputs whose whole window is inside (the
/// rectangle of the first tap cut with that of the last) unchecked, and
/// only the border outputs checked. The split removes comparisons whose
/// outcome the rectangle already decides: every output keeps its value,
/// and every accumulation its order.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_KERNELS_IM2COL_H
#define LATTE_KERNELS_IM2COL_H

#include <algorithm>
#include <cstdint>
#include <string>

namespace latte {
namespace kernels {

struct ConvGeometry {
  int64_t Channels = 0;
  int64_t Height = 0;
  int64_t Width = 0;
  int64_t KernelH = 0;
  int64_t KernelW = 0;
  int64_t StrideH = 1;
  int64_t StrideW = 1;
  int64_t PadH = 0;
  int64_t PadW = 0;

  int64_t outH() const { return (Height + 2 * PadH - KernelH) / StrideH + 1; }
  int64_t outW() const { return (Width + 2 * PadW - KernelW) / StrideW + 1; }
  int64_t colRows() const { return Channels * KernelH * KernelW; }
  int64_t colCols() const { return outH() * outW(); }
};

/// Fails with a fatal error naming \p Layer unless \p Kernel and \p Stride
/// are both at least 1: the output extents divide by the stride, and the
/// kernels assume a window of at least one tap. The layers that build a
/// ConvGeometry call it first.
void checkWindow(const std::string &Layer, int64_t Kernel, int64_t Stride);

/// Half-open output range [Lo, Hi), empty when Lo == Hi.
struct OutputRange {
  int64_t Lo = 0;
  int64_t Hi = 0;
};

/// The outputs O in [0, Out) of one dimension whose input coordinate
/// O * Stride + Offset lies in [0, Size); Stride >= 1 (the layers reject
/// smaller strides).
inline OutputRange validOutputs(int64_t Offset, int64_t Stride, int64_t Size,
                                int64_t Out) {
  const int64_t Lo =
      std::min(Out, Offset >= 0 ? 0 : (Stride - 1 - Offset) / Stride);
  const int64_t Last = Size - 1 - Offset;
  return {Lo, Last < 0 ? Lo : std::clamp(Last / Stride + 1, Lo, Out)};
}

/// Expands \p Image (C x H x W) into \p Col (colRows x colCols). Positions
/// that fall into padding become zero.
void im2col(const float *Image, const ConvGeometry &G, float *Col);

/// Adjoint of im2col: accumulates \p Col back into \p Image. The caller is
/// responsible for zeroing Image first when overwrite semantics are wanted.
void col2im(const float *Col, const ConvGeometry &G, float *Image);

// Row-ranged variants covering output rows [RowBegin, RowBegin + RowCount)
// only — the units Latte's tiling pass splits convolution data-copy tasks
// into (the synthesized copy loops of paper §5.3).
void im2colRows(const float *Image, const ConvGeometry &G, float *Col,
                int64_t RowBegin, int64_t RowCount);
void col2imRows(const float *Col, const ConvGeometry &G, float *Image,
                int64_t RowBegin, int64_t RowCount);

} // namespace kernels
} // namespace latte

#endif // LATTE_KERNELS_IM2COL_H
