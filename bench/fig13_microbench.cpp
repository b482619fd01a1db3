//===- bench/fig13_microbench.cpp - Figure 13 ------------------*- C++ -*-===//
///
/// Figure 13: the cross-layer-optimization microbenchmark — the first
/// three layers of VGG (conv3-64 + ReLU + 2x2 max pool). The paper reports
/// Latte with parallelization alone beating Caffe by >7x on 36 cores, and
/// the fully optimized compiler (tiling + fusion + vectorization) reaching
/// 17.0x / 15.0x / 15.7x for forward / backward / forward+backward.
///
/// This harness reproduces the ablation structure: the Caffe baseline
/// (static per-layer kernels, im2col + GEMM), Latte without cross-layer
/// optimizations, and Latte with tiling+fusion — the paper's two Latte
/// configurations. The vectorized-vs-naive GEMM pair is measured per
/// shape by bench/kernels_gemm. The parallelization factor scales with the
/// machine's cores (the paper had 36; see EXPERIMENTS.md).
///
/// `--json BENCH_fig13.json` additionally emits the machine-readable
/// summary (timing rows, per-pass compile times, per-task execution spans,
/// counters) that bench/compare diffs in CI; `--trace trace.json` emits a
/// Chrome trace. `--scale/--batch/--reps` shrink the run for smoke tests.
///
//===----------------------------------------------------------------------===//

#include "harness.h"

using namespace latte;
using namespace latte::bench;
using namespace latte::compiler;

int main(int argc, char **argv) {
  // Defaults match the paper: full 224x224, batch 2.
  BenchOptions BO = parseBenchArgs(argc, argv, /*DefScale=*/1.0,
                                   /*DefBatch=*/2, /*DefReps=*/3);
  models::ModelSpec Spec = models::vggFirstThreeLayers(BO.Scale);

  printHeader("Figure 13: cross-layer fusion microbenchmark "
              "(first 3 layers of VGG)",
              "conv3-64 + ReLU + maxpool2 at " + Spec.InputDims.str() +
                  ", batch " + std::to_string(BO.Batch));

  PassTimes Caffe = timeBaseline(Spec, BO.Batch, /*Naive=*/false, BO.Reps);

  CompileOptions Base; // pattern matching + parallel loops; no cross-layer
  Base.Tiling = false;
  Base.Fusion = false;
  PassTimes LatteBase = timeLatte(Spec, BO.Batch, Base, BO.Reps);

  CompileOptions Full; // + tiling + fusion (the paper's full stack)
  Full.TileSize = 8;
  PassTimes LatteFull = timeLatte(Spec, BO.Batch, Full, BO.Reps);

  CompileOptions FullJit = Full; // + in-process JIT dispatch (src/jit)
  FullJit.Jit = true;
  bool JitActive = false;
  PassTimes LatteJit =
      timeLatte(Spec, BO.Batch, FullJit, BO.Reps, &JitActive);

  std::printf("\n-- Latte (no cross-layer optimizations) vs Caffe --\n");
  printSpeedupRow("forward", Caffe.FwdSec, LatteBase.FwdSec, ">7x (36c)");
  printSpeedupRow("backward", Caffe.BwdSec, LatteBase.BwdSec, ">7x (36c)");
  printSpeedupRow("forward+backward", Caffe.total(), LatteBase.total(),
                  ">7x (36c)");

  std::printf("\n-- Latte (tiling + fusion + vectorization) vs Caffe --\n");
  printSpeedupRow("forward", Caffe.FwdSec, LatteFull.FwdSec, "17.0x (36c)");
  printSpeedupRow("backward", Caffe.BwdSec, LatteFull.BwdSec,
                  "15.0x (36c)");
  printSpeedupRow("forward+backward", Caffe.total(), LatteFull.total(),
                  "15.7x (36c)");

  std::printf("\n-- ablation: contribution of each optimization "
              "(fwd+bwd time) --\n");
  std::printf("%-44s %10.1f ms\n", "Caffe baseline", Caffe.total() * 1e3);
  std::printf("%-44s %10.1f ms\n", "Latte, no tiling/fusion",
              LatteBase.total() * 1e3);
  std::printf("%-44s %10.1f ms\n", "Latte, tiling+fusion",
              LatteFull.total() * 1e3);
  std::printf("\ncross-layer gain: %.2fx\n",
              LatteBase.total() / LatteFull.total());

  std::printf("\n-- interpreter vs in-process JIT (full stack, fwd+bwd) --\n");
  if (JitActive) {
    std::printf("%-44s %10.1f ms\n", "Latte full, interpreted dispatch",
                LatteFull.total() * 1e3);
    std::printf("%-44s %10.1f ms\n", "Latte full, JIT dispatch",
                LatteJit.total() * 1e3);
    std::printf("JIT dispatch gain: %.2fx (shared-object compile excluded; "
                "cached across runs)\n",
                LatteFull.total() / LatteJit.total());
  } else {
    std::printf("JIT unavailable (fell back to the interpreter); timings "
                "omitted\n");
  }

  std::printf("\n-- memory: liveness-planned arena vs eager allocation --\n");
  printMemoryRow("Latte, no tiling/fusion", LatteBase);
  printMemoryRow("Latte, tiling+fusion", LatteFull);
  std::printf("(fusion keeps a chain's buffers in one batch loop, so its "
              "pass-local\n grads stay live together — less folding than "
              "the unfused point.)\n");

  if (BO.profiling()) {
    BenchReport R("fig13", BO);
    R.addRow("caffe", Caffe);
    R.addRow("latte_no_crosslayer", LatteBase);
    R.addRow("latte_full", LatteFull);
    // Informational row (bench/compare treats rows present on only one
    // side as non-gating): absent when the JIT could not engage, so a CI
    // runner without a working system compiler never fails the gate.
    if (JitActive)
      R.addRow("latte_full_jit", LatteJit);
    // Per-pass compile timing over the full optimization pipeline.
    core::Net Net(BO.Batch);
    models::buildLatte(Net, Spec, /*WithLoss=*/true);
    R.addCompileStages(compiler::compileStaged(Net, Full));
    if (!R.finish())
      return 1;
  }
  return 0;
}
