//===- bench/kernels_gemm.cpp - GEMM kernel microbenchmarks ---*- C++ -*-===//
///
/// google-benchmark microbenchmarks of the library kernel the pattern
/// matcher targets: blocked sgemm vs the scalar reference, over the matrix
/// shapes Latte's convolutions, FC layers and LSTM cells actually produce.
/// Args are {M, N, K, TransA, TransB, LdA, LdB, LdC}; a transposed operand
/// is stored with its op() shape swapped, as the compiled programs store
/// it, and a leading dimension of 0 means the stored width. The workload
/// rows use the leading dimensions the programs pass.
///
//===----------------------------------------------------------------------===//

#include "kernels/gemm.h"
#include "support/rng.h"
#include "support/tensor.h"

#include <benchmark/benchmark.h>

using namespace latte;

namespace {

void fill(Tensor &T, uint64_t Seed) {
  Rng R(Seed);
  R.fillGaussian(T, 0.0f, 1.0f);
}

void runGemm(benchmark::State &State, bool Vectorized) {
  const int64_t M = State.range(0);
  const int64_t N = State.range(1);
  const int64_t K = State.range(2);
  const bool TransA = State.range(3) != 0;
  const bool TransB = State.range(4) != 0;
  const int64_t LdA = State.range(5) ? State.range(5) : (TransA ? M : K);
  const int64_t LdB = State.range(6) ? State.range(6) : (TransB ? K : N);
  const int64_t LdC = State.range(7) ? State.range(7) : N;
  Tensor A(Shape{TransA ? K : M, LdA}), B(Shape{TransB ? N : K, LdB}),
      C(Shape{M, LdC});
  fill(A, 1);
  fill(B, 2);
  auto Gemm = Vectorized ? kernels::sgemm : kernels::sgemmNaive;
  for (auto _ : State) {
    Gemm(TransA, TransB, M, N, K, A.data(), LdA, B.data(), LdB, C.data(), LdC,
         false);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * 2 * M * N * K);
}

void BM_SgemmBlocked(benchmark::State &State) { runGemm(State, true); }
void BM_SgemmNaive(benchmark::State &State) { runGemm(State, false); }

/// Conv-shaped (C = filters x spatial) and FC-shaped (batch x outputs).
void vggShapes(benchmark::internal::Benchmark *B) {
  B->Args({64, 56 * 56, 27, 0, 0, 0, 0, 0})    // VGG conv1_1 at half scale
      ->Args({128, 28 * 28, 576, 0, 0, 0, 0, 0}) // VGG conv2_1
      ->Args({64, 512, 512, 0, 0, 0, 0, 0});     // FC-shaped
}

/// The GEMMs of the repository benchmark as kernels::dispatch receives
/// them: AlexNet(0.5) at batch 8 (calls per training step in the
/// comments), the served vgg3(0.25) classifier and conv, and the LSTM cell
/// of the sequence workload (batch 32, H = F = 64).
void workloadShapes(benchmark::internal::Benchmark *B) {
  B->Args({256, 144, 2400, 0, 0, 0, 0, 0})       // conv2 forward (8)
      ->Args({384, 25, 3456, 0, 0, 0, 0, 0})     // conv4 forward (8)
      ->Args({3456, 25, 384, 1, 0, 0, 0, 0})     // conv3 input gradient (8)
      ->Args({2400, 144, 256, 1, 0, 0, 0, 0})    // conv2 input gradient (8)
      ->Args({32, 2400, 144, 0, 1, 0, 0, 0})     // conv2 dW, 32-row block (64)
      ->Args({32, 3456, 25, 0, 1, 0, 0, 0})      // conv3-4 dW block (160)
      ->Args({32, 363, 676, 0, 1, 0, 0, 0})      // conv1 dW block (24)
      ->Args({8, 4096, 4096, 0, 1, 0, 0, 0})     // fc7 forward, 64 MB (1)
      ->Args({8, 4096, 4096, 0, 0, 0, 0, 0})     // fc7 input gradient (1)
      ->Args({32, 4096, 8, 1, 0, 4096, 0, 0})    // fc7 dW block (128)
      ->Args({32, 4096, 8, 1, 0, 1000, 0, 0})    // classifier dW block (31)
      ->Args({1, 10, 50176, 0, 1, 0, 0, 0})      // served classifier, batch 1
      ->Args({64, 448, 27, 0, 0, 0, 3136, 3136}) // served conv, 7 rows
      ->Args({32, 64, 64, 0, 1, 0, 0, 0})        // LSTM gate forward
      ->Args({64, 64, 32, 1, 0, 0, 0, 0});       // LSTM gate weight gradient
}

} // namespace

BENCHMARK(BM_SgemmBlocked)
    ->Apply(vggShapes)
    ->Apply(workloadShapes)
    ->ArgNames({"M", "N", "K", "TA", "TB", "LdA", "LdB", "LdC"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SgemmNaive)
    ->Apply(vggShapes)
    ->ArgNames({"M", "N", "K", "TA", "TB", "LdA", "LdB", "LdC"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
