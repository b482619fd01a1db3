//===- bench/layer_ops.cpp - Layer-level microbenchmarks ------*- C++ -*-===//
///
/// google-benchmark comparison of one convolution layer across the three
/// systems (Latte compiled program, Caffe baseline, Mocha baseline), and
/// the im2col / col2im / max-pooling row kernels at the shapes the
/// repository benchmark's programs call them with — the per-layer view
/// underneath the whole-model figures.
///
//===----------------------------------------------------------------------===//

#include "baselines/mocha/mocha.h"
#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "engine/executor.h"
#include "kernels/pooling.h"
#include "support/rng.h"

#include <benchmark/benchmark.h>

using namespace latte;

namespace {

constexpr int64_t Cin = 16, H = 32, F = 32, Kk = 3;

void BM_ConvForwardLatte(benchmark::State &State) {
  core::Net Net(1);
  auto *Data = layers::DataLayer(Net, "data", Shape{Cin, H, H});
  layers::ConvolutionLayer(Net, "conv", Data, F, Kk, 1, 1);
  engine::Executor Ex(compiler::compile(Net));
  Ex.initParams(1);
  Tensor In(Shape{1, Cin, H, H});
  Rng R(3);
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  for (auto _ : State)
    Ex.forward();
}

void BM_ConvForwardCaffe(benchmark::State &State) {
  caffe::CaffeNet Net(1);
  Net.setInputShape(Shape{Cin, H, H});
  Net.addLayer(
      std::make_unique<caffe::ConvolutionLayer>("conv", F, Kk, 1, 1));
  Net.setup(1);
  Rng R(3);
  R.fillGaussian(Net.inputBlob().Data, 0.0f, 1.0f);
  for (auto _ : State)
    Net.forward();
}

void BM_ConvForwardMocha(benchmark::State &State) {
  caffe::CaffeNet Net(1);
  Net.setInputShape(Shape{Cin, H, H});
  Net.addLayer(std::make_unique<mocha::NaiveConvolutionLayer>("conv", F, Kk,
                                                              1, 1));
  Net.setup(1);
  Rng R(3);
  R.fillGaussian(Net.inputBlob().Data, 0.0f, 1.0f);
  for (auto _ : State)
    Net.forward();
}

/// Args {C, H (= W), K, S, Pad, RowCount}: the kernel's geometry and the
/// output rows one call covers, as kernels::dispatch receives them. An
/// iteration is one item: OutH / RowCount calls.
kernels::ConvGeometry windowGeometry(const benchmark::State &State) {
  const int64_t C = State.range(0), H = State.range(1), K = State.range(2),
                S = State.range(3), P = State.range(4);
  return kernels::ConvGeometry{C, H, H, K, K, S, S, P, P};
}

Tensor gaussian(Shape S, uint64_t Seed) {
  Tensor T(std::move(S));
  Rng R(Seed);
  R.fillGaussian(T, 0.0f, 1.0f);
  return T;
}

void BM_Im2colRows(benchmark::State &State) {
  const kernels::ConvGeometry G = windowGeometry(State);
  const int64_t Rows = State.range(5);
  Tensor In = gaussian(Shape{G.Channels, G.Height, G.Width}, 5);
  Tensor Col(Shape{G.colRows(), G.colCols()});
  for (auto _ : State) {
    for (int64_t Y = 0; Y < G.outH(); Y += Rows)
      kernels::im2colRows(In.data(), G, Col.data(), Y, Rows);
    benchmark::DoNotOptimize(Col.data());
    benchmark::ClobberMemory();
  }
}

void BM_Col2imRows(benchmark::State &State) {
  const kernels::ConvGeometry G = windowGeometry(State);
  const int64_t Rows = State.range(5);
  Tensor Col = gaussian(Shape{G.colRows(), G.colCols()}, 5);
  Tensor Grad(Shape{G.Channels, G.Height, G.Width});
  for (auto _ : State) {
    for (int64_t Y = 0; Y < G.outH(); Y += Rows)
      kernels::col2imRows(Col.data(), G, Grad.data(), Y, Rows);
    benchmark::DoNotOptimize(Grad.data());
    benchmark::ClobberMemory();
  }
}

void BM_MaxPoolFwdRows(benchmark::State &State) {
  const kernels::ConvGeometry G = windowGeometry(State);
  const int64_t Rows = State.range(5);
  Tensor In = gaussian(Shape{G.Channels, G.Height, G.Width}, 5);
  Tensor Out(Shape{G.Channels, G.outH(), G.outW()});
  std::vector<int32_t> Mask(static_cast<size_t>(Out.numElements()));
  for (auto _ : State) {
    for (int64_t Y = 0; Y < G.outH(); Y += Rows)
      kernels::maxPoolFwdRows(In.data(), G, Out.data(), Mask.data(), Y, Rows);
    benchmark::DoNotOptimize(Out.data());
    benchmark::DoNotOptimize(Mask.data());
    benchmark::ClobberMemory();
  }
}

void BM_MaxPoolBwdRows(benchmark::State &State) {
  const kernels::ConvGeometry G = windowGeometry(State);
  const int64_t Rows = State.range(5);
  Tensor In = gaussian(Shape{G.Channels, G.Height, G.Width}, 5);
  Tensor OutGrad = gaussian(Shape{G.Channels, G.outH(), G.outW()}, 6);
  std::vector<int32_t> Mask(static_cast<size_t>(OutGrad.numElements()));
  {
    Tensor Out(OutGrad.shape());
    kernels::maxPoolFwd(In.data(), G, Out.data(), Mask.data());
  }
  Tensor InGrad(In.shape());
  for (auto _ : State) {
    for (int64_t Y = 0; Y < G.outH(); Y += Rows)
      kernels::maxPoolBwdRows(OutGrad.data(), G, Mask.data(), InGrad.data(),
                              Y, Rows);
    benchmark::DoNotOptimize(InGrad.data());
    benchmark::ClobberMemory();
  }
}

/// alexNet(0.5) at batch 8 (train_alexnet; forward, recompute and
/// backward calls per item) and the served vggFirstThreeLayers(0.25)
/// (serve_vgg3, 8-row tiles).
void convShapes(benchmark::internal::Benchmark *B) {
  B->Args({3, 114, 11, 4, 0, 26}) // alexNet conv1
      ->Args({96, 12, 5, 1, 2, 12}) // alexNet conv2
      ->Args({256, 5, 3, 1, 1, 5})  // alexNet conv3
      ->Args({384, 5, 3, 1, 1, 5})  // alexNet conv4, conv5
      ->Args({3, 56, 3, 1, 1, 8});  // vgg3 conv1_1
}

void poolShapes(benchmark::internal::Benchmark *B) {
  B->Args({96, 26, 3, 2, 0, 12})  // alexNet pool1
      ->Args({256, 12, 3, 2, 0, 5}) // alexNet pool2
      ->Args({256, 5, 3, 2, 0, 2})  // alexNet pool5
      ->Args({64, 56, 2, 2, 0, 28}); // vgg3 pool1
}

} // namespace

BENCHMARK(BM_ConvForwardLatte)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConvForwardCaffe)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConvForwardMocha)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Im2colRows)->Apply(convShapes)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Col2imRows)->Apply(convShapes)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MaxPoolFwdRows)->Apply(poolShapes)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MaxPoolBwdRows)->Apply(poolShapes)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
