//===- kernels/gemm.cpp ---------------------------------------*- C++ -*-===//

#include "kernels/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

using namespace latte;

namespace {

/// Element accessor for a possibly transposed row-major matrix.
inline float opAt(const float *X, int64_t LdX, bool Trans, int64_t Row,
                  int64_t Col) {
  return Trans ? X[Col * LdX + Row] : X[Row * LdX + Col];
}

/// Sixteen floats: one AVX-512 register, two AVX ones. The micro-kernel is
/// written in this GCC/Clang vector type, so the tile maps onto registers
/// without depending on the auto-vectorizer.
typedef float V __attribute__((vector_size(64)));
constexpr int64_t VL = sizeof(V) / sizeof(float);

/// Rounds \p Floats up to whole vectors.
constexpr int64_t padToVector(int64_t Floats) {
  return (Floats + VL - 1) / VL * VL;
}

/// The same vector at float alignment, for loads and stores at any offset.
/// may_alias makes access to float arrays through it defined, as for the
/// compilers' own unaligned intrinsic types.
typedef float VUnaligned
    __attribute__((vector_size(64), aligned(4), may_alias));
inline VUnaligned *vecAt(float *P) { return reinterpret_cast<VUnaligned *>(P); }
inline const VUnaligned *vecAt(const float *P) {
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

// Cache blocking: a KC x NC panel of B (512 KiB) stays in L2 while MR-row
// slivers of A (6 KiB) stream through it from L1.
constexpr int64_t KC = 256;
constexpr int64_t NC = 512;

// Transposed-B packing walks B in PackTile x PackTile tiles once its rows
// are at least a page apart (LdB >= PackTileMinLd floats): each B row is then
// read PackTile elements at a time instead of one element per page touched.
// Below that the whole source panel stays cache- and TLB-resident and the
// plain loop was measured faster. On a 4-vCPU Xeon VM: fc7's 8 x 4096 x
// 4096 forward GEMM packs in 105 ms plain vs 27 ms tiled; the conv dW packs
// with LdB 25..676 run ~2x slower tiled.
constexpr int64_t PackTile = 16;
constexpr int64_t PackTileMinLd = 1024;

/// Packs op(B)[K0..K0+KB) x [J0..J0+JB) into a contiguous KB x LdP panel and
/// zeroes its columns [JB, LdP). Every path copies the same values to the
/// same panel slots.
void packB(bool TransB, const float *B, int64_t LdB, int64_t K0, int64_t J0,
           int64_t KB, int64_t JB, int64_t LdP, float *Panel) {
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
void packA(bool TransA, const float *A, int64_t LdA, int64_t I0, int64_t K0,
           int64_t Rows, int64_t KB, float *Sliver) {
  for (int64_t K = 0; K < KB; ++K) {
    float *Dst = Sliver + K * MR;
    for (int64_t R = 0; R < Rows; ++R)
      Dst[R] = opAt(A, LdA, TransA, I0 + R, K0 + K);
    for (int64_t R = Rows; R < MR; ++R)
      Dst[R] = 0.0f;
  }
}

/// C[0..MR) x [0..NV*VL) (+)= Sliver * Panel over KB steps of k. The tile
/// starts from C when Load is set and from +0 otherwise, then takes one
/// c += a * b per k in ascending order, exactly as sgemmNaive's chain.
template <int NV>
inline void microKernel(int64_t KB, const float *__restrict Sliver,
                        const float *__restrict Panel, int64_t LdP, float *C,
                        int64_t LdC, bool Load) {
  V Acc[MR][NV];
  for (int64_t R = 0; R < MR; ++R)
    for (int X = 0; X < NV; ++X)
      Acc[R][X] = Load ? *vecAt(C + R * LdC + X * VL) : V{};
  for (int64_t K = 0; K < KB; ++K) {
    V BRow[NV];
    for (int X = 0; X < NV; ++X)
      BRow[X] = *vecAt(Panel + K * LdP + X * VL);
    for (int64_t R = 0; R < MR; ++R) {
      float AVal = Sliver[K * MR + R];
      for (int X = 0; X < NV; ++X)
        Acc[R][X] += AVal * BRow[X];
    }
  }
  for (int64_t R = 0; R < MR; ++R)
    for (int X = 0; X < NV; ++X)
      *vecAt(C + R * LdC + X * VL) = Acc[R][X];
}

/// One MR x NV*VL tile of C, of which the Rows x Cols corner exists. A
/// ragged tile runs the same micro-kernel on a zeroed staging copy and
/// writes back only that corner.
template <int NV>
void tile(int64_t KB, const float *Sliver, const float *Panel, int64_t LdP,
          float *C, int64_t LdC, int64_t Rows, int64_t Cols, bool Load) {
  if (Rows == MR && Cols == NV * VL) {
    microKernel<NV>(KB, Sliver, Panel, LdP, C, LdC, Load);
    return;
  }
  constexpr int64_t LdS = NV * VL;
  alignas(sizeof(V)) float Stage[MR * LdS] = {};
  if (Load)
    for (int64_t R = 0; R < Rows; ++R)
      std::memcpy(Stage + R * LdS, C + R * LdC,
                  static_cast<size_t>(Cols) * sizeof(float));
  microKernel<NV>(KB, Sliver, Panel, LdP, Stage, LdS, Load);
  for (int64_t R = 0; R < Rows; ++R)
    std::memcpy(C + R * LdC, Stage + R * LdS,
                static_cast<size_t>(Cols) * sizeof(float));
}

/// Covers columns [J, LdP) of one MR-row sliver with tiles NV vectors wide
/// while they fit, then with narrower ones: with LdP a multiple of VL, each
/// halving runs at most once.
template <int NV>
void tileRow(int64_t KB, const float *Sliver, const float *Panel, int64_t LdP,
             int64_t J, int64_t JB, float *C, int64_t LdC, int64_t Rows,
             bool Load) {
  for (; J + NV * VL <= LdP; J += NV * VL)
    tile<NV>(KB, Sliver, Panel + J, LdP, C + J, LdC, Rows,
             std::min(NV * VL, JB - J), Load);
  if constexpr (NV > 1)
    tileRow<NV / 2>(KB, Sliver, Panel, LdP, J, JB, C, LdC, Rows, Load);
}

} // namespace

void kernels::sgemm(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
                    const float *A, int64_t LdA, const float *B, int64_t LdB,
                    float *C, int64_t LdC, bool Accumulate) {
  assert(M >= 0 && N >= 0 && K >= 0 && "matrix extents must be non-negative");
  if (M == 0 || N == 0)
    return;
  if (K == 0) {
    if (!Accumulate)
      for (int64_t I = 0; I < M; ++I)
        std::memset(C + I * LdC, 0, static_cast<size_t>(N) * sizeof(float));
    return;
  }

  // One allocation: the B panel (KC x NC, columns padded to a multiple of
  // VL) then the A sliver, from the first vector boundary so the panel rows
  // stay aligned. A plain float array rather than an over-aligned V array:
  // aligned allocation added 3.4 MB to the peak RSS of an AlexNet training
  // run on a 4-vCPU Xeon VM.
  int64_t PanelFloats = std::min(K, KC) * padToVector(std::min(N, NC));
  int64_t SliverFloats = std::min(K, KC) * MR;
  std::unique_ptr<float[]> Buf(new float[PanelFloats + SliverFloats + VL]);
  float *Panel = reinterpret_cast<float *>(
      (reinterpret_cast<uintptr_t>(Buf.get()) + sizeof(V) - 1) &
      ~uintptr_t(sizeof(V) - 1));
  float *Sliver = Panel + PanelFloats;

  for (int64_t J0 = 0; J0 < N; J0 += NC) {
    int64_t JB = std::min(NC, N - J0);
    int64_t LdP = padToVector(JB);
    for (int64_t K0 = 0; K0 < K; K0 += KC) {
      int64_t KB = std::min(KC, K - K0);
      // Later panels continue the chain each C element holds after the
      // previous one; the first starts it from C or from +0.
      bool Load = Accumulate || K0 > 0;
      packB(TransB, B, LdB, K0, J0, KB, JB, LdP, Panel);
      for (int64_t I0 = 0; I0 < M; I0 += MR) {
        int64_t Rows = std::min(MR, M - I0);
        packA(TransA, A, LdA, I0, K0, Rows, KB, Sliver);
        tileRow<MaxNV>(KB, Sliver, Panel, LdP, 0, JB, C + I0 * LdC + J0, LdC,
                       Rows, Load);
      }
    }
  }
}

// Disable vectorization so the "no vectorization" ablation level measures a
// genuinely scalar GEMM, mirroring un-vectorized framework code.
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize"))) void
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
