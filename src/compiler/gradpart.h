//===- compiler/gradpart.h - Row- and column-blocked GEMM units -*- C++ -*-===//
///
/// \file
/// Parallel synchronized backward (§3.1). Every item of a backward batch
/// loop `+=`s into the same parameter-gradient rows, so the loop cannot
/// run its items in parallel as assembled. This pass makes such units
/// race-free without changing a byte of the result, by splitting each one
/// into loops inside the same top-level unit:
///
///   for n in 0:+B parallel       (a) the race-free per-item statements
///     ...                            (activation grads, dX GEMM, col2im)
///   for rb in 0:+M/R parallel    (b) the ParamGrad statements, each row
///     for n in 0:+B                  block of R rows on its own, items
///       sgemm / row_sum_add          in ascending order within it
///         rows [rb*R, rb*R + R)
///   for n in 0:+B                    static tail when R does not divide M
///     sgemm / row_sum_add rows [M - M%R, M)
///
/// Each gradient element still receives its per-item contributions in
/// ascending n, through the same kernel; Sgemm and RowSumAdd compute every
/// output row independently. The result is therefore bitwise the serial
/// loop's at every thread count and for any block size. R is the constant
/// kGradRowBlock, never derived from the thread count. Whole-batch
/// ParamGrad GEMMs taller than one block (the fully-connected dW GEMMs)
/// are wrapped in loop (b) the same way, unless they are too small for a
/// fork/join to pay off.
///
/// Legality is checked against analyze::effects, not assumed: the moved
/// statements are row-splittable kernels whose output is a ParamGrad root
/// no other statement of the unit touches, and they read nothing that
/// loop (a) writes in a later item (the race detector over the original
/// unit reports nothing outside those roots) or, for statements that
/// followed them in the body, in the same item. A unit that fails — an
/// interpreted `+=` nest, say — loses its Parallel annotation and runs
/// serially; CompileReport::Notes records why.
///
/// After this pass a Parallel annotation on a backward loop means
/// race-free, exactly as it does in forward, so the engine, the JIT and
/// the standalone emitter all run the same IR in parallel.
///
/// Column blocks. A top-level Sgemm unit with too few rows for row blocks
/// (M <= kGradRowBlock: the fully-connected forward and input-gradient
/// GEMMs at small batch, where M is the batch) is split over its columns
/// instead, in forward and in backward:
///
///   for cb in 0:+N/W parallel
///     sgemm columns [cb*W, cb*W + W)   only C's and op(B)'s offsets and N
///   sgemm columns [N - N%W, N)         static tail when W does not divide N
///
/// Every C element keeps its ascending-k chain, so each block computes
/// exactly its part of the single call (the sub-block invariant in
/// kernels/gemm.h). W is the constant kGemmColBlock. A unit is split only
/// when it has at least two whole blocks of at least 2^20 multiply-adds
/// each; a call inside a loop is never split. The forward split depends on the
/// forward unit alone, so the training and inference compiles keep the
/// same forward IR.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_GRADPART_H
#define LATTE_COMPILER_GRADPART_H

#include <cstdint>

namespace latte {
namespace compiler {

struct Program;

/// Output rows per partition of a ParamGrad kernel. 32 divides every conv
/// and fully-connected output-channel count in AlexNet and VGG.
constexpr int64_t kGradRowBlock = 32;

/// Output columns per block of a column-split GEMM. Chosen from a per-unit
/// timing of AlexNet(0.5)'s fully-connected GEMMs at batch 8
/// (EXPERIMENTS.md, "Fully-connected GEMMs, clears and solver on every
/// thread").
constexpr int64_t kGemmColBlock = 512;

/// Runs the partition over Prog.Backward (after recomputeGathers, before
/// planMemory; only meaningful when CompileOptions::Parallelize is on).
void partitionParamGrads(Program &Prog);

/// Splits the qualifying top-level Sgemm units of Prog.Forward and
/// Prog.Backward into column blocks (after partitionParamGrads in training,
/// after the inference strip in inference; before planMemory; only when
/// CompileOptions::Parallelize is on).
void splitGemmColumns(Program &Prog);

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_GRADPART_H
