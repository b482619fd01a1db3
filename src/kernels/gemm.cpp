//===- kernels/gemm.cpp ---------------------------------------*- C++ -*-===//

#include "kernels/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

using namespace latte;

namespace {

/// Element accessor for a possibly transposed row-major matrix.
inline float opAt(const float *X, int64_t LdX, bool Trans, int64_t Row,
                  int64_t Col) {
  return Trans ? X[Col * LdX + Row] : X[Row * LdX + Col];
}

// Cache blocking parameters: a KC x NC panel of B (~128 KiB) stays resident
// in L2 while MC rows of A stream through it.
constexpr int64_t MC = 64;
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

/// Packs op(B)[K0..K0+KB) x [J0..J0+JB) into a contiguous KB x JB panel.
/// Every path copies the same values to the same panel slots.
void packB(bool TransB, const float *B, int64_t LdB, int64_t K0, int64_t J0,
           int64_t KB, int64_t JB, float *Panel) {
  if (!TransB) {
    for (int64_t K = 0; K < KB; ++K)
      std::memcpy(Panel + K * JB, B + (K0 + K) * LdB + J0,
                  static_cast<size_t>(JB) * sizeof(float));
    return;
  }
  if (LdB < PackTileMinLd) {
    for (int64_t K = 0; K < KB; ++K)
      for (int64_t J = 0; J < JB; ++J)
        Panel[K * JB + J] = B[(J0 + J) * LdB + (K0 + K)];
    return;
  }
  for (int64_t J1 = 0; J1 < JB; J1 += PackTile) {
    int64_t JE = std::min(J1 + PackTile, JB);
    for (int64_t K1 = 0; K1 < KB; K1 += PackTile) {
      int64_t KE = std::min(K1 + PackTile, KB);
      for (int64_t J = J1; J < JE; ++J) {
        const float *Row = B + (J0 + J) * LdB + K0;
        for (int64_t K = K1; K < KE; ++K)
          Panel[K * JB + J] = Row[K];
      }
    }
  }
}

} // namespace

// The vectorized AXPY below compiles to a ~25-byte loop whose speed depends
// on fitting one 32-byte instruction-fetch window. With the default 16-byte
// loop alignment that depends on where the linker places this function: a
// 48-byte shift from unrelated code-size changes cost 20-25% of an AlexNet
// training step on a 4-vCPU Xeon VM. Align the loops explicitly.
__attribute__((optimize("align-loops=32"))) void
kernels::sgemm(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
               const float *A, int64_t LdA, const float *B, int64_t LdB,
               float *C, int64_t LdC, bool Accumulate) {
  assert(M >= 0 && N >= 0 && K >= 0 && "matrix extents must be non-negative");
  if (M == 0 || N == 0)
    return;
  if (!Accumulate)
    for (int64_t I = 0; I < M; ++I)
      std::memset(C + I * LdC, 0, static_cast<size_t>(N) * sizeof(float));
  if (K == 0)
    return;

  std::vector<float> Panel(static_cast<size_t>(std::min(K, KC) *
                                               std::min(N, NC)));

  for (int64_t J0 = 0; J0 < N; J0 += NC) {
    int64_t JB = std::min(NC, N - J0);
    for (int64_t K0 = 0; K0 < K; K0 += KC) {
      int64_t KB = std::min(KC, K - K0);
      packB(TransB, B, LdB, K0, J0, KB, JB, Panel.data());
      for (int64_t I0 = 0; I0 < M; I0 += MC) {
        int64_t IB = std::min(MC, M - I0);
        for (int64_t I = 0; I < IB; ++I) {
          float *CRow = C + (I0 + I) * LdC + J0;
          for (int64_t KK = 0; KK < KB; ++KK) {
            float AVal = opAt(A, LdA, TransA, I0 + I, K0 + KK);
            const float *BRow = Panel.data() + KK * JB;
            // Contiguous AXPY over the packed panel: this is the loop the
            // compiler vectorizes.
            for (int64_t J = 0; J < JB; ++J)
              CRow[J] += AVal * BRow[J];
          }
        }
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
