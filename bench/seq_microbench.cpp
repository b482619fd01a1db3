//===- bench/seq_microbench.cpp - Sequence workloads -----------*- C++ -*-===//
///
/// Sequence-model microbenchmark in the style of the Figure 14/16 tables:
/// the graph-structured specs (time-unrolled shared-weight LSTM and GRU
/// classifiers, the single-head attention classifier) through the full
/// compile stack. The paper's evaluation is CNN-only; these rows track the
/// cost of the connection patterns its model admits but never measured —
/// tied-weight time-distributed GEMMs, dot-product scores, softmax over
/// keys — so regressions in the sequence path gate like the CNN figures.
///
/// Per model the harness reports forward/backward time and the planned
/// arena (deterministic, gated at 1.05x by bench/compare) for the full
/// stack and the no-cross-layer ablation, plus compile-report counters
/// (GEMM-matched / interpreted ensembles, fusion groups, tiled loops) and
/// the size of the JIT translation unit (units, distinct class functions,
/// source bytes — from generateJitSource, no compiler run) in the
/// `compile_reports` section of `--json BENCH_seq.json`.
///
/// `--scale` shrinks T/F/H/D together; `--batch/--reps` as elsewhere.
///
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "compiler/codegen_cpp.h"

#include <algorithm>

using namespace latte;
using namespace latte::bench;
using namespace latte::compiler;

namespace {

json::Value compileReportJson(const models::ModelSpec &Spec, int64_t Batch,
                              const CompileOptions &Opts) {
  core::Net Net(Batch);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  Program P = compile(Net, Opts);
  json::Value R = json::Value::object();
  R.set("gemm_matched",
        static_cast<int64_t>(P.Report.MatchedGemmEnsembles.size()));
  R.set("activation_matched",
        static_cast<int64_t>(P.Report.MatchedActivationEnsembles.size()));
  R.set("interpreted",
        static_cast<int64_t>(P.Report.InterpretedEnsembles.size()));
  int64_t Fused = 0;
  for (const auto &G : P.Report.FusionGroups)
    Fused += static_cast<int64_t>(G.size());
  R.set("fusion_groups", static_cast<int64_t>(P.Report.FusionGroups.size()));
  R.set("fused_ensembles", Fused);
  R.set("tiled_loops", static_cast<int64_t>(P.Report.NumTiledLoops));
  JitSource JS = generateJitSource(P);
  R.set("jit_units",
        static_cast<int64_t>(JS.Forward.size() + JS.Backward.size()));
  R.set("jit_classes", static_cast<int64_t>(JS.Classes));
  R.set("jit_source_bytes", static_cast<int64_t>(JS.Source.size()));
  return R;
}

} // namespace

int main(int argc, char **argv) {
  BenchOptions BO = parseBenchArgs(argc, argv, /*DefScale=*/1.0,
                                   /*DefBatch=*/4, /*DefReps=*/3);
  auto Dim = [&](int64_t Full, int64_t Min) {
    return std::max<int64_t>(Min, static_cast<int64_t>(Full * BO.Scale));
  };
  const int64_t T = Dim(8, 2), F = Dim(32, 4), H = Dim(32, 4), D = Dim(32, 4);
  const int64_t Classes = 10;

  struct Workload {
    const char *Tag;
    models::ModelSpec Spec;
  };
  const Workload Workloads[] = {
      {"lstm", models::lstmClassifier(T, F, H, Classes)},
      {"gru", models::gruClassifier(T, F, H, Classes)},
      {"attention", models::attentionClassifier(T, F, D, Classes)},
  };

  printHeader("Sequence microbenchmark: unrolled LSTM/GRU + attention",
              "T=" + std::to_string(T) + " F=" + std::to_string(F) +
                  " H=" + std::to_string(H) + " D=" + std::to_string(D) +
                  ", batch " + std::to_string(BO.Batch));

  CompileOptions Full; // the default full stack
  CompileOptions NoCross = Full;
  NoCross.Tiling = false;
  NoCross.Fusion = false;

  BenchReport R("seq", BO);
  json::Value Reports = json::Value::object();
  for (const Workload &W : Workloads) {
    PassTimes Base = timeLatte(W.Spec, BO.Batch, NoCross, BO.Reps);
    PassTimes Opt = timeLatte(W.Spec, BO.Batch, Full, BO.Reps);
    std::printf("\n-- %s (%s params) --\n", W.Tag,
                std::to_string(models::countParams(W.Spec)).c_str());
    std::printf("%-44s %10.2f ms fwd %10.2f ms bwd\n",
                "no cross-layer optimizations", Base.FwdSec * 1e3,
                Base.BwdSec * 1e3);
    std::printf("%-44s %10.2f ms fwd %10.2f ms bwd  (%.2fx fwd+bwd)\n",
                "full stack", Opt.FwdSec * 1e3, Opt.BwdSec * 1e3,
                Base.total() / Opt.total());
    printMemoryRow(std::string(W.Tag) + ", no cross-layer", Base);
    printMemoryRow(std::string(W.Tag) + ", full stack", Opt);

    R.addRow(std::string(W.Tag) + "_no_crosslayer", Base);
    R.addRow(std::string(W.Tag) + "_full", Opt);
    Reports.set(W.Tag, compileReportJson(W.Spec, BO.Batch, Full));
  }

  if (BO.profiling()) {
    R.setExtra("compile_reports", std::move(Reports));
    // Per-pass compile timing for the heaviest sequence graph (the LSTM:
    // most ensembles per parameter thanks to the unrolled gate chains).
    core::Net Net(BO.Batch);
    models::buildLatte(Net, Workloads[0].Spec, /*WithLoss=*/true);
    R.addCompileStages(compileStaged(Net, Full));
    if (!R.finish())
      return 1;
  }
  return 0;
}
