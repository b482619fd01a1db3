//===- kernels/gemm.cpp ---------------------------------------*- C++ -*-===//

#include "kernels/gemm.h"

#include "kernels/code_align.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

using namespace latte;

namespace {

/// Element accessor for a possibly transposed row-major matrix.
LATTE_KERNEL_ALIGN inline float opAt(const float *X, int64_t LdX, bool Trans,
                                     int64_t Row, int64_t Col) {
  return Trans ? X[Col * LdX + Row] : X[Row * LdX + Col];
}

/// Sixteen floats: one AVX-512 register, two AVX ones. The micro-kernel is
/// written in this GCC/Clang vector type, so the tile maps onto registers
/// without depending on the auto-vectorizer.
typedef float V __attribute__((vector_size(64)));
constexpr int64_t VL = sizeof(V) / sizeof(float);

/// Rounds \p Floats up to whole vectors.
LATTE_KERNEL_ALIGN constexpr int64_t padToVector(int64_t Floats) {
  return (Floats + VL - 1) / VL * VL;
}

/// The same vector at float alignment, for loads and stores at any offset.
/// may_alias makes access to float arrays through it defined, as for the
/// compilers' own unaligned intrinsic types.
typedef float VUnaligned
    __attribute__((vector_size(64), aligned(4), may_alias));
LATTE_KERNEL_ALIGN inline VUnaligned *vecAt(float *P) {
  return reinterpret_cast<VUnaligned *>(P);
}
LATTE_KERNEL_ALIGN inline const VUnaligned *vecAt(const float *P) {
  return reinterpret_cast<const VUnaligned *>(P);
}

// Register tile: MR rows of C by NV vectors, with NV = MaxNV, 2 or 1 as the
// panel's width allows. 6 x 4 vectors is 24 accumulators, which leaves
// AVX-512's 32 registers room for the four B vectors of a k step and the
// broadcast A value; 8 x 4 would not fit. Where a V takes two registers,
// one vector per row keeps the tile at 12 of AVX's 16.
constexpr int64_t MR = 6;
#ifdef __AVX512F__
constexpr int MaxNV = 4;
#else
constexpr int MaxNV = 1;
#endif

// Cache blocking: a packed panel of B, KC x NC floats (512 KiB), stays in
// L2 while MR-row slivers of op(A) stream through it. A narrower panel takes
// the whole of K in one block when that still fits 512 KiB: a call with
// N = 25 then runs each C element's chain in one pass instead of storing
// and reloading its tile every KC steps, and each sliver reads its rows of
// A end to end. A K too deep for that (the served classifier's 50176) keeps
// KC, so no call allocates a larger panel than a KC x NC one.
constexpr int64_t KC = 256;
constexpr int64_t NC = 512;

/// The K block over panels at most \p LdP floats wide; never more than K.
LATTE_KERNEL_ALIGN constexpr int64_t blockDepth(int64_t K, int64_t LdP) {
  return K * LdP <= KC * NC ? K : KC;
}

// Two kinds of call run swapped, as C^T = op(B)^T * op(A)^T written into C
// through transposed tiles: B then supplies the slivers, read in place, and
// op(A)^T the packed panel. The bounds come from kernels_gemm measurements
// (EXPERIMENTS.md, "Operands read in place"):
// - A * B^T with few rows over a deep K: M <= SwapMaxM, M < N and
//   K >= SwapMinKPerM * M. Unswapped, all of B is transposed into panels
//   that serve only M rows of C. Swapped, the FC forward (M = 8) and the
//   conv1/conv2 weight-gradient blocks (M = 32, K = 676 or 144) run 1.5-3x
//   faster. The two ways tie near K = M, and below it the transposed tiles
//   cost more than the pack saves, as on the conv3-5 blocks (K = 25). With
//   M >= N the swap would pack the larger operand.
// - A^T * B with fewer columns than rows over K >= SwapMinKTransA.
//   Unswapped, an in-place sliver of op(A) touches a line LdA floats away
//   at every k step. Swapped, op(A) is copied into contiguous panel rows
//   and the slivers come from B. The conv input gradients (N = 25 or 144,
//   K = 256 or 384) run 1.2-2.4x faster; at K = 64 the swap lost.
constexpr int64_t SwapMaxM = 64;
constexpr int64_t SwapMinKPerM = 2;
constexpr int64_t SwapMinKTransA = 128;

// Transposed-B packing walks B in PackTile x PackTile tiles once its rows
// are at least a page apart (LdB >= PackTileMinLd floats): each B row is then
// read PackTile elements at a time instead of one element per page touched.
// Below that the whole source panel stays cache- and TLB-resident and the
// plain loop was measured faster. On a 4-vCPU Xeon VM: fc7's 8 x 4096 x
// 4096 forward GEMM, before it ran swapped, packed its B^T in 105 ms plain
// vs 27 ms tiled; the conv dW packs with LdB 25..676 run ~2x slower tiled.
// The swapped FC forward packs its 8-row A^T either way in the same time;
// the tiles still serve B^T operands of many rows a page apart that run
// unswapped, such as the Caffe baseline's VGG conv weight gradients.
constexpr int64_t PackTile = 16;
constexpr int64_t PackTileMinLd = 1024;

/// Packs op(B)[K0..K0+KB) x [J0..J0+JB) into a contiguous KB x LdP panel and
/// zeroes its columns [JB, LdP). Every path copies the same values to the
/// same panel slots.
LATTE_KERNEL_ALIGN void packB(bool TransB, const float *B, int64_t LdB,
                              int64_t K0, int64_t J0, int64_t KB, int64_t JB,
                              int64_t LdP, float *Panel) {
  for (int64_t K = 0; K < KB; ++K)
    std::memset(Panel + K * LdP + JB, 0,
                static_cast<size_t>(LdP - JB) * sizeof(float));
  if (!TransB) {
    for (int64_t K = 0; K < KB; ++K)
      std::memcpy(Panel + K * LdP, B + (K0 + K) * LdB + J0,
                  static_cast<size_t>(JB) * sizeof(float));
    return;
  }
  if (LdB < PackTileMinLd) {
    for (int64_t K = 0; K < KB; ++K)
      for (int64_t J = 0; J < JB; ++J)
        Panel[K * LdP + J] = B[(J0 + J) * LdB + (K0 + K)];
    return;
  }
  for (int64_t J1 = 0; J1 < JB; J1 += PackTile) {
    int64_t JE = std::min(J1 + PackTile, JB);
    for (int64_t K1 = 0; K1 < KB; K1 += PackTile) {
      int64_t KE = std::min(K1 + PackTile, KB);
      for (int64_t J = J1; J < JE; ++J) {
        const float *Row = B + (J0 + J) * LdB + K0;
        for (int64_t K = K1; K < KE; ++K)
          Panel[K * LdP + J] = Row[K];
      }
    }
  }
}

/// Packs op(A)[I0..I0+Rows) x [K0..K0+KB) k-major into an MR-row sliver:
/// Sliver[K * MR + R] = op(A)[I0 + R, K0 + K], with rows [Rows, MR) zero.
LATTE_KERNEL_ALIGN void packA(bool TransA, const float *A, int64_t LdA,
                              int64_t I0, int64_t K0, int64_t Rows, int64_t KB,
                              float *Sliver) {
  for (int64_t K = 0; K < KB; ++K) {
    float *Dst = Sliver + K * MR;
    for (int64_t R = 0; R < Rows; ++R)
      Dst[R] = opAt(A, LdA, TransA, I0 + R, K0 + K);
    for (int64_t R = Rows; R < MR; ++R)
      Dst[R] = 0.0f;
  }
}

/// How the micro-kernel reads an MR-row sliver of op(A) at \p A. A full
/// sliver is read in place: op(A)'s rows are LdA apart with k contiguous
/// (Rows), or, with A stored transposed, its k steps are LdA apart with the
/// rows contiguous (Cols). Only a ragged last sliver is packed (packA), and
/// its stride stays the constant MR.
enum class Sliver { Rows, Cols, Packed };

template <Sliver S>
LATTE_KERNEL_ALIGN inline float sliverAt(const float *A, int64_t LdA,
                                         int64_t R, int64_t K) {
  if constexpr (S == Sliver::Rows)
    return A[R * LdA + K];
  else if constexpr (S == Sliver::Cols)
    return A[K * LdA + R];
  else
    return A[K * MR + R];
}

/// C[0..MR) x [0..NV*VL) (+)= sliver * Panel over KB steps of k. The tile
/// starts from C when Load is set and from +0 otherwise, then takes one
/// c += a * b per k in ascending order, exactly as sgemmNaive's chain.
template <int NV, Sliver S>
LATTE_KERNEL_ALIGN inline void
microKernel(int64_t KB, const float *__restrict A, int64_t LdA,
            const float *__restrict Panel, int64_t LdP, float *C, int64_t LdC,
            bool Load) {
  V Acc[MR][NV];
  for (int64_t R = 0; R < MR; ++R)
    for (int X = 0; X < NV; ++X)
      Acc[R][X] = Load ? *vecAt(C + R * LdC + X * VL) : V{};
  for (int64_t K = 0; K < KB; ++K) {
    V BRow[NV];
    for (int X = 0; X < NV; ++X)
      BRow[X] = *vecAt(Panel + K * LdP + X * VL);
    for (int64_t R = 0; R < MR; ++R) {
      float AVal = sliverAt<S>(A, LdA, R, K);
      for (int X = 0; X < NV; ++X)
        Acc[R][X] += AVal * BRow[X];
    }
  }
  for (int64_t R = 0; R < MR; ++R)
    for (int X = 0; X < NV; ++X)
      *vecAt(C + R * LdC + X * VL) = Acc[R][X];
}

/// One MR x NV*VL tile of C, of which the Rows x Cols corner exists. With
/// TransC the tile is one of C^T, its element (R, X) at C[X * LdC + R]. A
/// ragged or transposed tile runs the same micro-kernel on a zeroed staging
/// copy and writes back only that corner.
template <int NV, Sliver S, bool TransC>
LATTE_KERNEL_ALIGN void tile(int64_t KB, const float *A, int64_t LdA,
                             const float *Panel, int64_t LdP, float *C,
                             int64_t LdC, int64_t Rows, int64_t Cols,
                             bool Load) {
  if (!TransC && Rows == MR && Cols == NV * VL) {
    microKernel<NV, S>(KB, A, LdA, Panel, LdP, C, LdC, Load);
    return;
  }
  constexpr int64_t LdS = NV * VL;
  alignas(sizeof(V)) float Stage[MR * LdS] = {};
  if constexpr (TransC) {
    if (Load)
      for (int64_t X = 0; X < Cols; ++X)
        for (int64_t R = 0; R < Rows; ++R)
          Stage[R * LdS + X] = C[X * LdC + R];
    microKernel<NV, S>(KB, A, LdA, Panel, LdP, Stage, LdS, Load);
    for (int64_t X = 0; X < Cols; ++X)
      for (int64_t R = 0; R < Rows; ++R)
        C[X * LdC + R] = Stage[R * LdS + X];
  } else {
    if (Load)
      for (int64_t R = 0; R < Rows; ++R)
        std::memcpy(Stage + R * LdS, C + R * LdC,
                    static_cast<size_t>(Cols) * sizeof(float));
    microKernel<NV, S>(KB, A, LdA, Panel, LdP, Stage, LdS, Load);
    for (int64_t R = 0; R < Rows; ++R)
      std::memcpy(C + R * LdC, Stage + R * LdS,
                  static_cast<size_t>(Cols) * sizeof(float));
  }
}

/// Covers columns [J, LdP) of one MR-row sliver with tiles NV vectors wide
/// while they fit, then with narrower ones: with LdP a multiple of VL, each
/// halving runs at most once. \p C is the sliver's first element.
template <int NV, Sliver S, bool TransC>
LATTE_KERNEL_ALIGN void tileRow(int64_t KB, const float *A, int64_t LdA,
                                const float *Panel, int64_t LdP, int64_t J,
                                int64_t JB, float *C, int64_t LdC,
                                int64_t Rows, bool Load) {
  for (; J + NV * VL <= LdP; J += NV * VL)
    tile<NV, S, TransC>(KB, A, LdA, Panel + J, LdP, C + (TransC ? J * LdC : J),
                        LdC, Rows, std::min(NV * VL, JB - J), Load);
  if constexpr (NV > 1)
    tileRow<NV / 2, S, TransC>(KB, A, LdA, Panel, LdP, J, JB, C, LdC, Rows,
                               Load);
}

/// C (+)= op(A) * op(B) over packed panels of op(B) and MR-row slivers of
/// op(A); with TransC, C holds the M x N product transposed (element
/// (I, J) at C[J * LdC + I]).
template <bool TransC>
LATTE_KERNEL_ALIGN void blocked(bool TransA, bool TransB, int64_t M,
                                int64_t N, int64_t K, const float *A,
                                int64_t LdA, const float *B, int64_t LdB,
                                float *C, int64_t LdC, bool Accumulate) {
  // One allocation: the B panel (columns padded to a multiple of VL) then,
  // if M leaves a ragged sliver, its packed copy, from the first vector
  // boundary so the panel rows stay aligned. A plain float array rather
  // than an over-aligned V array: aligned allocation added 3.4 MB to the
  // peak RSS of an AlexNet training run on a 4-vCPU Xeon VM.
  const int64_t MaxLdP = padToVector(std::min(N, NC));
  const int64_t KD = blockDepth(K, MaxLdP);
  const int64_t FullRows = M - M % MR;
  int64_t PanelFloats = KD * MaxLdP;
  int64_t RaggedFloats = FullRows < M ? KD * MR : 0;
  std::unique_ptr<float[]> Buf(new float[PanelFloats + RaggedFloats + VL]);
  float *Panel = reinterpret_cast<float *>(
      (reinterpret_cast<uintptr_t>(Buf.get()) + sizeof(V) - 1) &
      ~uintptr_t(sizeof(V) - 1));
  float *Ragged = Panel + PanelFloats;

  for (int64_t J0 = 0; J0 < N; J0 += NC) {
    int64_t JB = std::min(NC, N - J0);
    int64_t LdP = padToVector(JB);
    float *CPanel = C + (TransC ? J0 * LdC : J0);
    for (int64_t K0 = 0; K0 < K; K0 += KD) {
      int64_t KB = std::min(KD, K - K0);
      // Later panels continue the chain each C element holds after the
      // previous one; the first starts it from C or from +0.
      bool Load = Accumulate || K0 > 0;
      packB(TransB, B, LdB, K0, J0, KB, JB, LdP, Panel);
      for (int64_t I0 = 0; I0 < FullRows; I0 += MR) {
        float *CSliver = CPanel + (TransC ? I0 : I0 * LdC);
        if (TransA)
          tileRow<MaxNV, Sliver::Cols, TransC>(KB, A + K0 * LdA + I0, LdA,
                                               Panel, LdP, 0, JB, CSliver,
                                               LdC, MR, Load);
        else
          tileRow<MaxNV, Sliver::Rows, TransC>(KB, A + I0 * LdA + K0, LdA,
                                               Panel, LdP, 0, JB, CSliver,
                                               LdC, MR, Load);
      }
      if (FullRows < M) {
        packA(TransA, A, LdA, FullRows, K0, M - FullRows, KB, Ragged);
        tileRow<MaxNV, Sliver::Packed, TransC>(
            KB, Ragged, MR, Panel, LdP, 0, JB,
            CPanel + (TransC ? FullRows : FullRows * LdC), LdC, M - FullRows,
            Load);
      }
    }
  }
}

} // namespace

LATTE_KERNEL_ALIGN void kernels::sgemm(bool TransA, bool TransB, int64_t M,
                                       int64_t N, int64_t K, const float *A,
                                       int64_t LdA, const float *B,
                                       int64_t LdB, float *C, int64_t LdC,
                                       bool Accumulate) {
  assert(M >= 0 && N >= 0 && K >= 0 && "matrix extents must be non-negative");
  if (M == 0 || N == 0)
    return;
  if (K == 0) {
    if (!Accumulate)
      for (int64_t I = 0; I < M; ++I)
        std::memset(C + I * LdC, 0, static_cast<size_t>(N) * sizeof(float));
    return;
  }
  // Swapped, C^T = op(B)^T * op(A)^T: each operand trades places and its
  // transpose flag flips. Each C element takes the same products in the
  // same order (a * b == b * a exactly).
  bool Swap = TransB ? M <= SwapMaxM && M < N && K >= SwapMinKPerM * M
                     : TransA && N < M && K >= SwapMinKTransA;
  if (Swap)
    blocked<true>(!TransB, !TransA, N, M, K, B, LdB, A, LdA, C, LdC,
                  Accumulate);
  else
    blocked<false>(TransA, TransB, M, N, K, A, LdA, B, LdB, C, LdC,
                   Accumulate);
}

// Disable vectorization so the "no vectorization" ablation level measures a
// genuinely scalar GEMM, mirroring un-vectorized framework code.
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
LATTE_KERNEL_ALIGN void
kernels::sgemmNaive(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
                    const float *A, int64_t LdA, const float *B, int64_t LdB,
                    float *C, int64_t LdC, bool Accumulate) {
  for (int64_t I = 0; I < M; ++I) {
    for (int64_t J = 0; J < N; ++J) {
      float Sum = Accumulate ? C[I * LdC + J] : 0.0f;
      for (int64_t KK = 0; KK < K; ++KK)
        Sum += opAt(A, LdA, TransA, I, KK) * opAt(B, LdB, TransB, KK, J);
      C[I * LdC + J] = Sum;
    }
  }
}
