//===- tests/kernels/gemm_test.cpp ----------------------------*- C++ -*-===//

#include "kernels/gemm.h"

#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

using namespace latte;
using namespace latte::kernels;

namespace {

std::vector<float> randomMatrix(Rng &R, int64_t Elems) {
  std::vector<float> M(Elems);
  for (float &V : M)
    V = static_cast<float>(R.uniform(-1.0, 1.0));
  return M;
}

} // namespace

TEST(GemmTest, Identity) {
  // C = I * B == B.
  const int64_t N = 4;
  std::vector<float> A(N * N, 0.0f), B(N * N), C(N * N, -1.0f);
  for (int64_t I = 0; I < N; ++I)
    A[I * N + I] = 1.0f;
  for (int64_t I = 0; I < N * N; ++I)
    B[I] = static_cast<float>(I);
  sgemm(false, false, N, N, N, A.data(), N, B.data(), N, C.data(), N, false);
  for (int64_t I = 0; I < N * N; ++I)
    EXPECT_FLOAT_EQ(C[I], B[I]);
}

TEST(GemmTest, Accumulate) {
  const int64_t M = 2, N = 3, K = 1;
  std::vector<float> A = {1.0f, 2.0f};
  std::vector<float> B = {10.0f, 20.0f, 30.0f};
  std::vector<float> C(M * N, 5.0f);
  sgemm(false, false, M, N, K, A.data(), K, B.data(), N, C.data(), N, true);
  EXPECT_FLOAT_EQ(C[0], 15.0f);
  EXPECT_FLOAT_EQ(C[5], 65.0f);
  // Without accumulate, C is overwritten.
  sgemm(false, false, M, N, K, A.data(), K, B.data(), N, C.data(), N, false);
  EXPECT_FLOAT_EQ(C[0], 10.0f);
}

TEST(GemmTest, ZeroKClearsCWhenNotAccumulating) {
  std::vector<float> C(6, 3.0f);
  sgemm(false, false, 2, 3, 0, nullptr, 1, nullptr, 1, C.data(), 3, false);
  for (float V : C)
    EXPECT_FLOAT_EQ(V, 0.0f);
}

TEST(GemmTest, LeadingDimensionLargerThanWidth) {
  // Multiply inside a larger allocation: A is 2x2 inside rows of length 4.
  std::vector<float> A = {1, 2, 9, 9, 3, 4, 9, 9};
  std::vector<float> B = {5, 6, 7, 8};
  std::vector<float> C(4, 0.0f);
  sgemm(false, false, 2, 2, 2, A.data(), 4, B.data(), 2, C.data(), 2, false);
  EXPECT_FLOAT_EQ(C[0], 1 * 5 + 2 * 7);
  EXPECT_FLOAT_EQ(C[1], 1 * 6 + 2 * 8);
  EXPECT_FLOAT_EQ(C[2], 3 * 5 + 4 * 7);
  EXPECT_FLOAT_EQ(C[3], 3 * 6 + 4 * 8);
}

// Property sweep: blocked GEMM agrees with the naive reference over sizes
// spanning the blocking boundaries and all four transpose combinations.
class GemmSweepTest
    : public testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {};

TEST_P(GemmSweepTest, MatchesNaive) {
  auto [M, N, K, TransA, TransB] = GetParam();
  Rng R(1000 + M * 7 + N * 13 + K * 31 + TransA * 2 + TransB);
  int64_t LdA = TransA ? M : K;
  int64_t LdB = TransB ? K : N;
  std::vector<float> A = randomMatrix(R, M * K);
  std::vector<float> B = randomMatrix(R, K * N);
  std::vector<float> C0 = randomMatrix(R, M * N);
  std::vector<float> C1 = C0;

  sgemm(TransA, TransB, M, N, K, A.data(), LdA, B.data(), LdB, C0.data(), N,
        true);
  sgemmNaive(TransA, TransB, M, N, K, A.data(), LdA, B.data(), LdB, C1.data(),
             N, true);
  for (int64_t I = 0; I < M * N; ++I)
    ASSERT_NEAR(C0[I], C1[I], 1e-3f * (K + 1)) << "at " << I;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSweepTest,
    testing::Combine(testing::Values(1, 7, 64, 65), testing::Values(1, 33, 130),
                     testing::Values(1, 16, 300), testing::Bool(),
                     testing::Bool()));

TEST(GemmTest, LargeBlockedCaseCrossesAllPanels) {
  // Exercise multiple NC/KC/MC panels in one call.
  const int64_t M = 130, N = 600, K = 300;
  Rng R(99);
  std::vector<float> A = randomMatrix(R, M * K);
  std::vector<float> B = randomMatrix(R, K * N);
  std::vector<float> C0(M * N, 0.0f), C1(M * N, 0.0f);
  sgemm(false, false, M, N, K, A.data(), K, B.data(), N, C0.data(), N, false);
  sgemmNaive(false, false, M, N, K, A.data(), K, B.data(), N, C1.data(), N,
             false);
  for (int64_t I = 0; I < M * N; I += 997)
    ASSERT_NEAR(C0[I], C1[I], 1e-2f);
}

TEST(GemmTest, TransposedBMatchesExplicitTransposeBitwise) {
  // op(B) = B^T packs through a tiled transpose once B's rows are a page
  // apart and through the plain loop below that; either way the panel must
  // hold exactly the values an untransposed copy of B^T would. Ragged
  // shapes: N and K cross the NC/KC panel edges off the tile grid, and LdB
  // exceeds K.
  struct Case {
    int64_t M, N, K, LdB;
  };
  for (const Case &C : {Case{5, 530, 1030, 1030}, Case{3, 37, 1500, 1507},
                        Case{4, 50, 100, 100}, Case{2, 513, 300, 301}}) {
    Rng R(7 + C.N + C.K);
    std::vector<float> A = randomMatrix(R, C.M * C.K);
    std::vector<float> B = randomMatrix(R, C.N * C.LdB); // N x K, stride LdB
    std::vector<float> BT(C.K * C.N);                    // K x N
    for (int64_t J = 0; J < C.N; ++J)
      for (int64_t K = 0; K < C.K; ++K)
        BT[K * C.N + J] = B[J * C.LdB + K];
    std::vector<float> C0 = randomMatrix(R, C.M * C.N);
    std::vector<float> C1 = C0;
    sgemm(false, true, C.M, C.N, C.K, A.data(), C.K, B.data(), C.LdB,
          C0.data(), C.N, true);
    sgemm(false, false, C.M, C.N, C.K, A.data(), C.K, BT.data(), C.N,
          C1.data(), C.N, true);
    EXPECT_EQ(std::memcmp(C0.data(), C1.data(), C0.size() * sizeof(float)),
              0)
        << "M=" << C.M << " N=" << C.N << " K=" << C.K << " LdB=" << C.LdB;
  }
}

TEST(GemmTest, RowBlocksAreBitwiseIndependent) {
  // The gradient partition (compiler/gradpart.h) runs a GEMM as separate
  // calls over blocks of output rows; each row must come out bitwise as in
  // the whole call, for both A layouts and a ragged last block.
  const int64_t M = 70, N = 600, K = 300, Block = 32;
  for (bool TransA : {false, true}) {
    Rng R(31 + TransA);
    int64_t LdA = TransA ? M : K;
    std::vector<float> A = randomMatrix(R, M * K);
    std::vector<float> B = randomMatrix(R, K * N);
    std::vector<float> Whole = randomMatrix(R, M * N);
    std::vector<float> Blocked = Whole;
    sgemm(TransA, false, M, N, K, A.data(), LdA, B.data(), N, Whole.data(), N,
          true);
    for (int64_t Row0 = 0; Row0 < M; Row0 += Block) {
      int64_t Rows = std::min(Block, M - Row0);
      sgemm(TransA, false, Rows, N, K, A.data() + (TransA ? Row0 : Row0 * LdA),
            LdA, B.data(), N, Blocked.data() + Row0 * N, N, true);
    }
    EXPECT_EQ(std::memcmp(Whole.data(), Blocked.data(),
                          Whole.size() * sizeof(float)),
              0)
        << "TransA=" << TransA;
  }
}
