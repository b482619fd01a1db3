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

/// Room for a Rows x Cols matrix at leading dimension Ld, one float past
/// the start of the allocation, which ends with its last element: a read
/// past the last row, as an in-place sliver or panel that ran over the
/// matrix would make, leaves the allocation (and ASan reports it).
int64_t matrixFloats(int64_t Rows, int64_t Cols, int64_t Ld) {
  return 1 + (Rows - 1) * Ld + Cols;
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

// Property sweep: sgemm is byte-identical to sgemmNaive. Both run the same
// ascending-k chain of c += a * b per C element (kernels/gemm.h), so any
// reassociation of that chain, such as splitting k into partial sums, fails
// here. Every case runs both Accumulate values on operands stored inside
// wider rows (leading dimension = width + 3) whose base pointers sit one
// float past an aligned allocation; the padding must come back untouched.
class GemmSweepTest
    : public testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {};

TEST_P(GemmSweepTest, MatchesNaive) {
  auto [M, N, K, TransA, TransB] = GetParam();
  const int64_t Pad = 3;
  int64_t LdA = (TransA ? M : K) + Pad;
  int64_t LdB = (TransB ? K : N) + Pad;
  int64_t LdC = N + Pad;
  Rng R(1000 + M * 7 + N * 13 + K * 31 + TransA * 2 + TransB);
  std::vector<float> A = randomMatrix(
      R, matrixFloats(TransA ? K : M, TransA ? M : K, LdA));
  std::vector<float> B = randomMatrix(
      R, matrixFloats(TransB ? N : K, TransB ? K : N, LdB));
  std::vector<float> C = randomMatrix(R, matrixFloats(M, N, LdC));
  for (bool Accumulate : {false, true}) {
    std::vector<float> C0 = C, C1 = C;
    sgemm(TransA, TransB, M, N, K, A.data() + 1, LdA, B.data() + 1, LdB,
          C0.data() + 1, LdC, Accumulate);
    sgemmNaive(TransA, TransB, M, N, K, A.data() + 1, LdA, B.data() + 1, LdB,
               C1.data() + 1, LdC, Accumulate);
    ASSERT_EQ(std::memcmp(C0.data(), C1.data(), C0.size() * sizeof(float)), 0)
        << "Accumulate=" << Accumulate;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSweepTest,
    testing::Combine(testing::Values(1, 7, 64, 65), testing::Values(1, 33, 130),
                     testing::Values(1, 16, 300), testing::Bool(),
                     testing::Bool()));

// Sizes one either side of every tile edge of kernels/gemm.cpp: M around
// its 6-row tile; N around its 16-float vector, the 64-wide tile and the
// 512-column panel, plus conv5's N = 25; K around its 256-deep panel, plus
// the FC weight gradient's K = 8.
INSTANTIATE_TEST_SUITE_P(
    TileEdges, GemmSweepTest,
    testing::Combine(testing::Values(1, 5, 7, 65),
                     testing::Values(1, 15, 17, 25, 63, 65, 513),
                     testing::Values(1, 8, 255, 257, 300), testing::Bool(),
                     testing::Bool()));

// The GEMM shapes of an AlexNet(0.5) batch-8 training step, as
// kernels::dispatch receives them: conv1-5 forward, input gradient and
// 32-row weight-gradient blocks (B transposed), the FC forward (B
// transposed, up to 64 MB of weights), input gradient and weight gradient
// (A transposed, K = 8).
INSTANTIATE_TEST_SUITE_P(
    AlexNetShapes, GemmSweepTest,
    testing::Values(std::make_tuple(384, 25, 3456, false, false),
                    std::make_tuple(8, 4096, 4096, false, true),
                    std::make_tuple(32, 4096, 8, true, false),
                    std::make_tuple(8, 1000, 4096, false, true),
                    std::make_tuple(8, 1024, 4096, false, false),
                    std::make_tuple(8, 4096, 8, true, false),
                    std::make_tuple(8, 4096, 1000, false, false),
                    std::make_tuple(8, 4096, 1024, false, true),
                    std::make_tuple(8, 4096, 4096, false, false),
                    std::make_tuple(32, 363, 676, false, true),
                    std::make_tuple(32, 1024, 8, true, false),
                    std::make_tuple(32, 2304, 25, false, true),
                    std::make_tuple(32, 2400, 144, false, true),
                    std::make_tuple(32, 3456, 25, false, true),
                    std::make_tuple(96, 676, 363, false, false),
                    std::make_tuple(256, 25, 3456, false, false),
                    std::make_tuple(256, 144, 2400, false, false),
                    std::make_tuple(363, 676, 96, true, false),
                    std::make_tuple(384, 25, 2304, false, false),
                    std::make_tuple(2304, 25, 384, true, false),
                    std::make_tuple(2400, 144, 256, true, false),
                    std::make_tuple(3456, 25, 256, true, false),
                    std::make_tuple(3456, 25, 384, true, false)));

// The served vgg3 classifier at batch 1, 4 and 16: 10 outputs over 50176
// inputs, B transposed.
INSTANTIATE_TEST_SUITE_P(
    ServedClassifier, GemmSweepTest,
    testing::Values(std::make_tuple(1, 10, 50176, false, true),
                    std::make_tuple(4, 10, 50176, false, true),
                    std::make_tuple(16, 10, 50176, false, true)));

// One either side of each rule of kernels/gemm.cpp that picks a path. The
// swap of A * B^T: M around SwapMaxM (64), K around SwapMinKPerM * M, M
// around N. The swap of A^T * B: K around SwapMinKTransA (128), N around M.
// The K block: K around the depth at which K x padded N passes KC x NC
// floats, for N = 25 and 16 (panels 32 and 16 wide), N = 144, and the
// swapped M = 8 (a panel 16 wide).
INSTANTIATE_TEST_SUITE_P(
    PathEdges, GemmSweepTest,
    testing::Values(std::make_tuple(64, 200, 128, false, true),
                    std::make_tuple(65, 200, 130, false, true),
                    std::make_tuple(64, 200, 128, true, true),
                    std::make_tuple(65, 200, 130, true, true),
                    std::make_tuple(32, 200, 63, false, true),
                    std::make_tuple(32, 200, 64, false, true),
                    std::make_tuple(7, 100, 13, true, true),
                    std::make_tuple(7, 100, 14, true, true),
                    std::make_tuple(9, 10, 64, false, true),
                    std::make_tuple(10, 10, 64, false, true),
                    std::make_tuple(300, 25, 127, true, false),
                    std::make_tuple(300, 25, 128, true, false),
                    std::make_tuple(40, 40, 128, true, false),
                    std::make_tuple(41, 40, 128, true, false),
                    std::make_tuple(13, 25, 4096, false, false),
                    std::make_tuple(13, 25, 4097, false, false),
                    std::make_tuple(7, 16, 8192, true, false),
                    std::make_tuple(7, 16, 8193, true, false),
                    std::make_tuple(13, 144, 910, false, false),
                    std::make_tuple(13, 144, 911, false, false),
                    std::make_tuple(8, 100, 8192, false, true),
                    std::make_tuple(8, 100, 8193, false, true)));

TEST(GemmTest, ProgramLeadingDimensionsMatchNaive) {
  // The FC weight-gradient GEMMs read A^T as a row block of a wider
  // gradient, LdA = 1000 or 4096 against M = 8 or 32 (the step's only
  // leading dimensions that exceed the operand's width). Buffers end with
  // each operand's last element, as in the sweep.
  struct Case {
    int64_t M, N, K, LdA;
  };
  for (const Case &G : {Case{8, 4096, 8, 1000}, Case{32, 4096, 8, 1000},
                        Case{32, 4096, 8, 4096}, Case{32, 1024, 8, 4096}}) {
    Rng R(5 + G.M + G.LdA);
    std::vector<float> A = randomMatrix(R, matrixFloats(G.K, G.M, G.LdA));
    std::vector<float> B = randomMatrix(R, matrixFloats(G.K, G.N, G.N));
    std::vector<float> C0 = randomMatrix(R, matrixFloats(G.M, G.N, G.N));
    std::vector<float> C1 = C0;
    sgemm(true, false, G.M, G.N, G.K, A.data() + 1, G.LdA, B.data() + 1, G.N,
          C0.data() + 1, G.N, true);
    sgemmNaive(true, false, G.M, G.N, G.K, A.data() + 1, G.LdA, B.data() + 1,
               G.N, C1.data() + 1, G.N, true);
    EXPECT_EQ(std::memcmp(C0.data(), C1.data(), C0.size() * sizeof(float)),
              0)
        << "M=" << G.M << " N=" << G.N << " LdA=" << G.LdA;
  }
}

TEST(GemmTest, LargeBlockedCaseCrossesAllPanels) {
  // Exercise multiple NC and KC panels and row slivers in one call.
  const int64_t M = 130, N = 600, K = 300;
  Rng R(99);
  std::vector<float> A = randomMatrix(R, M * K);
  std::vector<float> B = randomMatrix(R, K * N);
  std::vector<float> C0(M * N, 0.0f), C1(M * N, 0.0f);
  sgemm(false, false, M, N, K, A.data(), K, B.data(), N, C0.data(), N, false);
  sgemmNaive(false, false, M, N, K, A.data(), K, B.data(), N, C1.data(), N,
             false);
  EXPECT_EQ(std::memcmp(C0.data(), C1.data(), C0.size() * sizeof(float)), 0);
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
  // the whole call, for every A and B layout (conv weight gradients run
  // with B transposed) and a ragged last block.
  const int64_t M = 70, N = 600, K = 300, Block = 32;
  for (bool TransA : {false, true})
    for (bool TransB : {false, true}) {
      Rng R(31 + TransA + 2 * TransB);
      int64_t LdA = TransA ? M : K;
      int64_t LdB = TransB ? K : N;
      std::vector<float> A = randomMatrix(R, M * K);
      std::vector<float> B = randomMatrix(R, K * N);
      std::vector<float> Whole = randomMatrix(R, M * N);
      std::vector<float> Blocked = Whole;
      sgemm(TransA, TransB, M, N, K, A.data(), LdA, B.data(), LdB,
            Whole.data(), N, true);
      for (int64_t Row0 = 0; Row0 < M; Row0 += Block) {
        int64_t Rows = std::min(Block, M - Row0);
        sgemm(TransA, TransB, Rows, N, K,
              A.data() + (TransA ? Row0 : Row0 * LdA), LdA, B.data(), LdB,
              Blocked.data() + Row0 * N, N, true);
      }
      EXPECT_EQ(std::memcmp(Whole.data(), Blocked.data(),
                            Whole.size() * sizeof(float)),
                0)
          << "TransA=" << TransA << " TransB=" << TransB;
    }
}

TEST(GemmTest, ColumnWindowsAreBitwiseIndependent) {
  // Convolution tiling (compiler/synthesis.cpp) runs the forward and
  // input-gradient GEMMs as separate calls over windows of Rc output rows,
  // i.e. columns [Rb * X, (Rb + Rc) * X) of a C whose rows are Y * X wide:
  // C + Rb * X and B + Rb * X with N = Rc * X and the full-width leading
  // dimensions. Each column must come out bitwise as in the whole call, for
  // both A layouts (dX runs with A transposed) and a ragged last window.
  const int64_t M = 70, K = 300, Y = 13, X = 13, Rc = 4, YX = Y * X;
  for (bool TransA : {false, true}) {
    Rng R(57 + TransA);
    int64_t LdA = TransA ? M : K;
    std::vector<float> A = randomMatrix(R, M * K);
    std::vector<float> B = randomMatrix(R, K * YX);
    std::vector<float> Whole = randomMatrix(R, M * YX);
    std::vector<float> Windowed = randomMatrix(R, M * YX);
    sgemm(TransA, false, M, YX, K, A.data(), LdA, B.data(), YX, Whole.data(),
          YX, false);
    for (int64_t Rb = 0; Rb < Y; Rb += Rc) {
      int64_t Cols = std::min(Rc, Y - Rb) * X;
      sgemm(TransA, false, M, Cols, K, A.data(), LdA, B.data() + Rb * X, YX,
            Windowed.data() + Rb * X, YX, false);
    }
    EXPECT_EQ(std::memcmp(Whole.data(), Windowed.data(),
                          Whole.size() * sizeof(float)),
              0)
        << "TransA=" << TransA;
  }
}
