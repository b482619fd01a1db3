//===- kernels/gemm.h - Single-precision GEMM ------------------*- C++ -*-===//
///
/// \file
/// The library kernel the Latte compiler pattern-matches MAC loop nests
/// into (paper §5.4.1, where the target was MKL's sgemm). Row-major
/// convention throughout:
///
///   C[M x N] (+)= op(A)[M x K] * op(B)[K x N]
///
/// - When TransX is false, X is stored with its op() shape and leading
///   dimension LdX counts elements between consecutive rows.
/// - When TransX is true, X is stored transposed (op(A) element [i,k] is
///   A[k * LdA + i]).
/// - Accumulate=false overwrites C; true adds into it.
///
/// Two implementations exist. sgemm, which the engine calls, is a
/// register-blocked micro-kernel over panels of op(B), packed where the
/// panel is reused, and MR-row slivers of op(A), read in place (only a
/// ragged last sliver is copied). Two kinds of call run as the transposed
/// product C^T = op(B)^T * op(A)^T, which reads B in place and packs op(A)
/// instead: A * B^T with few rows over a deep K (the FC forward, the
/// deeper weight-gradient row blocks) and A^T * B with few columns (the
/// conv input gradients). sgemmNaive is a plain triple loop compiled with
/// vectorization disabled: the reference sgemm is tested against, the
/// Mocha baseline's GEMM, and bench/kernels_gemm's naive rows.
///
/// Invariant: both kernels run the same multiply-add chain per C element,
/// c = (Accumulate ? c : +0), then c += op(A)[i,k] * op(B)[k,j] for k
/// ascending (a swapped call forms b * a, which equals a * b exactly). They
/// are therefore byte-identical, and any row or column sub-block of a call
/// computes exactly the corresponding part of the whole call. The
/// compiler's gradient row blocks, conv column windows and the
/// JIT-vs-interpreter oracle rely on this; tests/kernels/gemm_test.cpp
/// holds sgemm to it with memcmp.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_KERNELS_GEMM_H
#define LATTE_KERNELS_GEMM_H

#include <cstdint>

namespace latte {
namespace kernels {

/// Blocked, register-tiled GEMM.
void sgemm(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
           const float *A, int64_t LdA, const float *B, int64_t LdB, float *C,
           int64_t LdC, bool Accumulate);

/// Reference GEMM: naive loop order, vectorization suppressed. Used by the
/// Mocha baseline and as the ground truth in kernel tests.
void sgemmNaive(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
                const float *A, int64_t LdA, const float *B, int64_t LdB,
                float *C, int64_t LdC, bool Accumulate);

} // namespace kernels
} // namespace latte

#endif // LATTE_KERNELS_GEMM_H
