//===- bench/kernels_gemm.cpp - GEMM kernel microbenchmarks ---*- C++ -*-===//
///
/// google-benchmark microbenchmarks of the library kernel the pattern
/// matcher targets: blocked sgemm vs the scalar reference, over the matrix
/// shapes Latte's convolutions, FC layers and LSTM cells actually produce.
/// Args are {M, N, K, TransA, TransB}; a transposed operand is stored with
/// its op() shape swapped, as the compiled programs store it.
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
  const int64_t LdA = TransA ? M : K;
  const int64_t LdB = TransB ? K : N;
  Tensor A(Shape{M, K}), B(Shape{K, N}), C(Shape{M, N});
  fill(A, 1);
  fill(B, 2);
  auto Gemm = Vectorized ? kernels::sgemm : kernels::sgemmNaive;
  for (auto _ : State) {
    Gemm(TransA, TransB, M, N, K, A.data(), LdA, B.data(), LdB, C.data(), N,
         false);
    benchmark::DoNotOptimize(C.data());
  }
  State.SetItemsProcessed(State.iterations() * 2 * M * N * K);
}

void BM_SgemmBlocked(benchmark::State &State) { runGemm(State, true); }
void BM_SgemmNaive(benchmark::State &State) { runGemm(State, false); }

/// Conv-shaped (C = filters x spatial) and FC-shaped (batch x outputs).
void vggShapes(benchmark::internal::Benchmark *B) {
  B->Args({64, 56 * 56, 27, 0, 0})    // VGG conv1_1 at half scale
      ->Args({128, 28 * 28, 576, 0, 0}) // VGG conv2_1
      ->Args({64, 512, 512, 0, 0});     // FC-shaped
}

/// The GEMMs of the repository benchmark: AlexNet(0.5) at batch 8 and the
/// LSTM cell of the sequence workload (batch 32, H = F = 64).
void workloadShapes(benchmark::internal::Benchmark *B) {
  B->Args({256, 144, 2400, 0, 0})    // conv2 forward
      ->Args({384, 25, 3456, 0, 0})  // conv3-5 forward
      ->Args({3456, 25, 384, 1, 0})  // conv3-5 input gradient
      ->Args({32, 2400, 144, 0, 1})  // conv2 weight gradient, 32-row block
      ->Args({8, 4096, 4096, 0, 1})  // FC forward, 64 MB of weights
      ->Args({8, 4096, 4096, 0, 0})  // FC input gradient
      ->Args({32, 4096, 8, 1, 0})    // FC weight gradient, 32-row block
      ->Args({32, 64, 64, 0, 1})     // LSTM gate forward
      ->Args({64, 64, 32, 1, 0});    // LSTM gate weight gradient
}

} // namespace

BENCHMARK(BM_SgemmBlocked)
    ->Apply(vggShapes)
    ->Apply(workloadShapes)
    ->ArgNames({"M", "N", "K", "TA", "TB"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SgemmNaive)
    ->Apply(vggShapes)
    ->ArgNames({"M", "N", "K", "TA", "TB"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
