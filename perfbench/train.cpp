//===- perfbench/train.cpp - train_alexnet and train_seq ----------------===//
///
/// \file
/// The two training workloads. Both run a fixed number of SGD steps over a
/// seeded pool of synthetic batches, so every run of a workload does
/// identical work: the step count follows from --seconds alone, never from
/// measured speed, and the pool keeps the weights on the same trajectory
/// run after run.
///
///   train_alexnet  models::alexNet(0.5), batch 8, default CompileOptions
///                  (JIT off), synchronized SGD. The paper's fig14
///                  headline: GEMM/im2col kernels and the serial
///                  synchronized backward.
///   train_seq      lstmClassifier and attentionClassifier (T=16, F=64,
///                  H=D=64, batch 32) with the JIT on, stepped in
///                  alternation, 200 rounds per --seconds. Setup is
///                  compiler + cold JIT build; steps are dispatch-bound.
///
/// latency_ms is the mean step time over the fixed steps (one step of each
/// model per round for train_seq), not a median: the host's speed switches
/// between two levels about 40% apart every few seconds, and a median of
/// the steps jumps to whichever level held for more than half the run.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "baselines/caffe/caffe.h"
#include "compiler/compiler.h"
#include "compiler/program_cache.h"
#include "engine/executor.h"
#include "jit/jit_backend.h"
#include "models/models.h"
#include "solvers/solvers.h"
#include "support/profile.h"

#include <cmath>
#include <cstring>
#include <memory>

using namespace latte;

namespace perfbench {
namespace {

constexpr int PoolBatches = 8;

/// One trained network and everything its steps need.
struct Model {
  const char *Tag = "";
  models::ModelSpec Spec;
  int64_t Batch = 1;
  compiler::CompileOptions CO;
  double Lr = 0.01;
  uint64_t ParamSeed = 1;
  std::vector<Tensor> Inputs, Labels;

  std::unique_ptr<engine::Executor> Ex;
  std::unique_ptr<solvers::SgdSolver> Solver;
  double CompileSec = 0; ///< compiler::compile wall
  double ExecSec = 0;    ///< Executor construction wall (the JIT build)
  SpanLog Log{false};
};

std::unique_ptr<solvers::SgdSolver> makeSolver(double Lr) {
  solvers::SolverParameters SP;
  SP.Lr = solvers::LRPolicy::fixed(Lr);
  SP.Momentum = solvers::MomPolicy::fixed(0.9);
  return std::make_unique<solvers::SgdSolver>(SP);
}

/// The cold setup setup_s times: net build, compile, Executor
/// construction (JIT build included), initParams and solver creation.
void setupModel(Model &M, bool Profile) {
  Clock::time_point T0 = Clock::now();
  core::Net Net(M.Batch);
  models::buildLatte(Net, M.Spec, /*WithLoss=*/true);
  Clock::time_point T1 = Clock::now();
  compiler::Program P = compiler::compile(Net, M.CO);
  Clock::time_point T2 = Clock::now();
  engine::ExecOptions EO;
  EO.Profile = Profile;
  M.Ex = std::make_unique<engine::Executor>(std::move(P), EO);
  Clock::time_point T3 = Clock::now();
  M.Ex->initParams(M.ParamSeed);
  M.Solver = makeSolver(M.Lr);
  Clock::time_point T4 = Clock::now();
  M.CompileSec = secondsBetween(T1, T2);
  M.ExecSec = secondsBetween(T2, T3);
  M.Log.add("models.build", 0, T0, T1);
  M.Log.add("compiler.compile", 0, T1, T2);
  M.Log.add(M.CO.Jit ? "jit.build" : "engine.executor", 0, T2, T3);
  M.Log.add("engine.init_params", 0, T3, T4);
}

/// One SGD step on pool batch Iter % PoolBatches; returns the loss.
double step(Model &M, int64_t Iter) {
  size_t B = static_cast<size_t>(Iter % PoolBatches);
  M.Ex->setInput(M.Inputs[B]);
  M.Ex->setLabels(M.Labels[B]);
  int64_t S = M.Log.open("train.step", Iter);
  timed(M.Log, "engine.forward", Iter, S, [&] { M.Ex->forward(); });
  double Loss = M.Ex->lossValue();
  timed(M.Log, "engine.backward", Iter, S, [&] { M.Ex->backward(); });
  timed(M.Log, "solvers.step", Iter, S, [&] { M.Solver->step(*M.Ex, Iter); });
  M.Log.close(S);
  return Loss;
}

struct TimedPhase {
  std::vector<std::vector<double>> Losses; ///< per model, rounds 1..Rounds
  int64_t NonFinite = 0;
  double WallSec = 0;
};

/// Rounds 1..Rounds (round 0 is the untimed check step): one step of each
/// model per round.
TimedPhase runRounds(std::vector<Model> &Models, int64_t Rounds) {
  TimedPhase T;
  T.Losses.resize(Models.size());
  Clock::time_point Start = Clock::now();
  for (int64_t R = 1; R <= Rounds; ++R) {
    for (size_t I = 0; I < Models.size(); ++I) {
      double L = step(Models[I], R);
      T.Losses[I].push_back(L);
      if (!std::isfinite(L))
        ++T.NonFinite;
    }
  }
  T.WallSec = secondsBetween(Start, Clock::now());
  return T;
}

/// Mean of Loss[From, From + PoolBatches): one pass over the batch pool.
double passMean(const std::vector<double> &Loss, size_t From) {
  double S = 0;
  for (size_t I = From; I < From + PoolBatches; ++I)
    S += Loss[I];
  return S / PoolBatches;
}

int64_t itemsPerRound(const std::vector<Model> &Models) {
  int64_t N = 0;
  for (const Model &M : Models)
    N += M.Batch;
  return N;
}

/// Parameter bytes after a step: equal bytes mean equal gradients and
/// forward values all the way down.
std::vector<Tensor> paramSnapshot(const engine::Executor &Ex) {
  std::vector<Tensor> Out;
  for (const compiler::BufferInfo &B : Ex.program().Buffers)
    if (B.Role == compiler::BufferRole::Param && B.AliasOf.empty())
      Out.push_back(Ex.readBuffer(B.Name));
  return Out;
}

bool bitwiseEqual(const Tensor &A, const Tensor &B) {
  return A.numElements() == B.numElements() &&
         std::memcmp(A.data(), B.data(),
                     sizeof(float) * static_cast<size_t>(A.numElements())) == 0;
}

/// What the check step (round 0) recorded, compared at the end of the run
/// so the reference systems never count in peak_rss_mb.
struct FirstStep {
  double Loss = 0;
  Tensor Conv1Grad;                ///< train_alexnet
  std::vector<Tensor> ParamsAfter; ///< train_seq
};

/// train_alexnet: Latte's step-0 loss and conv1 weight gradient against
/// the Caffe baseline given the same (copied) weights and batch.
void checkAgainstCaffe(Model &M, const FirstStep &F, RunResult &R) {
  M.Ex->initParams(M.ParamSeed); // the step-0 weights again
  caffe::CaffeNet C(M.Batch);
  models::buildCaffe(C, M.Spec, /*WithLoss=*/true);
  C.setup(1);
  for (const auto &L : C.layers()) {
    if (L->params().empty())
      continue;
    for (int P = 0; P < 2; ++P) {
      Tensor T = M.Ex->readBuffer(L->name() + (P ? "_bias" : "_weights"));
      T.reshape(L->params()[P].shape());
      L->params()[P].Data = T;
    }
  }
  C.inputBlob().Data = M.Inputs[0];
  Tensor Labels = M.Labels[0];
  Labels.reshape(C.labelBlob().shape());
  C.labelBlob().Data = Labels;
  C.forward();
  C.backward();
  double Diff = std::fabs(C.lossValue() - F.Loss);
  R.check(Diff <= 1e-3 * std::max(1.0, std::fabs(F.Loss)),
          "step-1 loss differs from the Caffe baseline");
  Tensor Gc = C.layers()[0]->params()[0].Grad;
  Gc.reshape(F.Conv1Grad.shape());
  R.check(F.Conv1Grad.firstMismatch(Gc, 1e-3f, 1e-2f) == -1,
          "step-1 conv1 weight gradient differs from the Caffe baseline");
}

/// train_seq: the JIT'd first step against an interpreted executor of the
/// same program, bitwise.
void checkAgainstInterpreter(Model &M, const FirstStep &F, RunResult &R) {
  engine::ExecOptions EO;
  EO.NoJit = true;
  Model Ref;
  Ref.Ex = std::make_unique<engine::Executor>(M.Ex->program().clone(), EO);
  Ref.Ex->initParams(M.ParamSeed);
  Ref.Solver = makeSolver(M.Lr);
  Ref.Inputs = M.Inputs;
  Ref.Labels = M.Labels;
  double Loss = step(Ref, 0);
  std::string Tag = M.Tag;
  R.check(std::memcmp(&Loss, &F.Loss, sizeof Loss) == 0,
          Tag + ": JIT step-1 loss is not bitwise equal to the interpreter's");
  std::vector<Tensor> P = paramSnapshot(*Ref.Ex);
  bool Same = P.size() == F.ParamsAfter.size();
  for (size_t I = 0; Same && I < P.size(); ++I)
    Same = bitwiseEqual(P[I], F.ParamsAfter[I]);
  R.check(Same, Tag + ": JIT step-1 parameters are not bitwise equal to the "
                      "interpreter's");
}

/// Per-layer metrics of the traced rounds: per-call medians summed over
/// the models (one round calls each model once).
void perLayerFromSpans(const std::vector<Model> &Models, const TimedPhase &T,
                       int64_t Rounds, RunResult &R) {
  // Round 0 (the check step) is the first span of each name; skip it.
  auto Timed = [](const Model &M, const char *Name) {
    std::vector<double> D = M.Log.durations(Name);
    if (!D.empty())
      D.erase(D.begin());
    return D;
  };
  double Fwd = 0, Bwd = 0, Sol = 0, BwdTotal = 0;
  for (const Model &M : Models) {
    Fwd += median(Timed(M, "engine.forward"));
    Bwd += median(Timed(M, "engine.backward"));
    Sol += median(Timed(M, "solvers.step"));
    BwdTotal += sum(Timed(M, "engine.backward"));
  }
  R.set("engine.forward_ms_p50", Fwd * 1e3);
  R.set("engine.backward_ms_p50", Bwd * 1e3);
  R.set("engine.backward_share", T.WallSec > 0 ? BwdTotal / T.WallSec : 0);
  R.set("solvers.step_ms_p50", Sol * 1e3);

  prof::Summary S = prof::Profiler::get().summary();
  double Flop = static_cast<double>(S.Totals.get(prof::Counter::Flops));
  double Gemms = static_cast<double>(S.Totals.get(prof::Counter::GemmCalls));
  double Rn = static_cast<double>(Rounds);
  R.set("kernels.gflop_per_step", Flop / Rn / 1e9);
  R.set("kernels.gemm_calls_per_step", Gemms / Rn);
  R.set("kernels.gflops_per_s", T.WallSec > 0 ? Flop / T.WallSec / 1e9 : 0);
}

void compileMetrics(const std::vector<Model> &Models, RunResult &R) {
  double CompileSec = 0, JitSec = 0, Interp = 0, Gemm = 0, Fusion = 0;
  double Arena = 0, Eager = 0, Tasks = 0, Fallbacks = 0;
  for (const Model &M : Models) {
    const compiler::Program &P = M.Ex->program();
    CompileSec += M.CompileSec;
    if (M.CO.Jit)
      JitSec += M.ExecSec;
    Interp += static_cast<double>(P.Report.InterpretedEnsembles.size());
    Gemm += static_cast<double>(P.Report.MatchedGemmEnsembles.size());
    Fusion += static_cast<double>(P.Report.FusionGroups.size());
    Arena += static_cast<double>(P.Plan.ArenaBytes);
    Eager += static_cast<double>(P.Plan.EagerBytes);
    Tasks += M.Ex->jitTaskCount();
    Fallbacks += M.Ex->jitFallbackCount();
  }
  R.set("compiler.compile_s", CompileSec);
  R.set("compiler.interpreted_ensembles", Interp);
  R.set("compiler.gemm_matched", Gemm);
  R.set("compiler.fusion_groups", Fusion);
  R.set("compiler.arena_mb", Arena / 1e6);
  R.set("compiler.plan_saved_frac", Eager > 0 ? 1.0 - Arena / Eager : 0);
  R.set("jit.build_s", JitSec);
  R.set("jit.coverage", Tasks + Fallbacks > 0 ? Tasks / (Tasks + Fallbacks) : 0);
}

enum class Check { Caffe, Interpreter };

RunResult runTrain(const RunConfig &C, std::vector<Model> Models,
                   double RoundsPerSecond, Check Kind) {
  RunResult R;
  // Rounds 0..Rounds make at least two whole passes over the pool.
  const int64_t Rounds = std::max<int64_t>(
      2 * PoolBatches - 1, std::llround(C.Seconds * RoundsPerSecond));
  for (size_t I = 0; I < Models.size(); ++I) {
    Model &M = Models[I];
    M.ParamSeed = subSeed(C.Seed, 100 + I);
    M.Inputs = inputPool(M.Spec.InputDims.withPrefix(M.Batch), PoolBatches,
                         subSeed(C.Seed, 200 + I));
    M.Labels = labelPool(M.Batch, M.Spec.NumClasses, PoolBatches,
                         subSeed(C.Seed, 300 + I));
    M.Log = SpanLog(C.Trace);
  }
  int64_t ExpectedJit = 0;
  for (const Model &M : Models)
    ExpectedJit += M.CO.Jit ? 1 : 0;

  // --- cold setup ------------------------------------------------------
  prof::Profiler::get().setEnabled(C.Trace);
  jit::resetStats();
  Clock::time_point S0 = Clock::now();
  for (Model &M : Models)
    setupModel(M, C.Trace);
  R.SetupSec = secondsBetween(S0, Clock::now());

  // A warm hit would mean setup_s measured different work.
  jit::Stats JS = jit::stats();
  R.check(JS.Compiles == ExpectedJit && JS.DiskCacheHits == 0 &&
              JS.MemCacheHits == 0,
          "JIT compile counts differ from the expected cold build");
  for (const Model &M : Models)
    R.check(!M.CO.Jit || (M.Ex->jitActive() && M.Ex->jitFallbackCount() == 0),
            std::string(M.Tag) + ": JIT inactive or partial: " +
                M.Ex->jitDiagnostic());
  R.Record.set("jit_compiles", JS.Compiles);
  R.Record.set("jit_disk_hits", JS.DiskCacheHits);
  R.Record.set("rounds", Rounds);
  if (C.SetupOnly)
    return R;

  // --- round 0: the check step -------------------------------------------
  std::vector<FirstStep> First(Models.size());
  for (size_t I = 0; I < Models.size(); ++I) {
    Model &M = Models[I];
    First[I].Loss = step(M, 0);
    if (Kind == Check::Caffe)
      First[I].Conv1Grad = M.Ex->readBuffer("conv1_grad_weights");
    else
      First[I].ParamsAfter = paramSnapshot(*M.Ex);
  }

  // --- timed rounds --------------------------------------------------------
  prof::Profiler::get().reset(); // counters cover the timed rounds only
  TimedPhase T = runRounds(Models, Rounds);
  const double Items = static_cast<double>(Rounds * itemsPerRound(Models));
  const double ItemsPerSec = Items / T.WallSec;
  R.Attempted = Rounds * static_cast<int64_t>(Models.size()) +
                static_cast<int64_t>(Models.size());
  R.Failed = T.NonFinite;
  // Whole passes over the pool, not single steps: one batch's loss can
  // rise from its first step to the last (alexnet seed 13, 15 steps).
  for (size_t I = 0; I < Models.size(); ++I) {
    std::vector<double> L = T.Losses[I];
    L.insert(L.begin(), First[I].Loss);
    double FirstPass = passMean(L, 0);
    double LastPass = passMean(L, L.size() - PoolBatches);
    R.check(std::isfinite(LastPass) && LastPass < FirstPass,
            std::string(Models[I].Tag) + ": mean loss of the last pass over "
                                         "the pool is not finite and below "
                                         "the first pass's");
    if (I == 0) {
      R.Record.set("first_pass_loss", FirstPass);
      R.Record.set("last_pass_loss", LastPass);
    }
  }

  if (!C.Trace) {
    R.set("items_per_s", ItemsPerSec);
    R.set("latency_ms", T.WallSec / static_cast<double>(Rounds) * 1e3);
    R.set("peak_rss_mb", peakRssMb());
  } else {
    perLayerFromSpans(Models, T, Rounds, R);
    compileMetrics(Models, R);
    R.set("jit.compiles", static_cast<double>(JS.Compiles));
    R.set("jit.disk_hits", static_cast<double>(JS.DiskCacheHits));
    compiler::ProgramCache::Stats CS = compiler::ProgramCache::instance().stats();
    R.set("compiler.cache_compiles", static_cast<double>(CS.Compiles));
    R.set("compiler.cache_coalesced", static_cast<double>(CS.Coalesced));
    if (!C.TraceOut.empty()) {
      std::vector<const SpanLog *> Logs;
      for (const Model &M : Models)
        Logs.push_back(&M.Log);
      std::string Err;
      R.check(writeSpans(C.TraceOut, Logs, S0, &Err), Err);
    }
    // Tracing overhead: the same rounds again on untraced executors with
    // the same weights and batches.
    prof::Profiler::get().setEnabled(false);
    prof::Profiler::get().reset();
    for (Model &M : Models) {
      M.Log = SpanLog(false);
      setupModel(M, false);
      step(M, 0);
    }
    TimedPhase U = runRounds(Models, Rounds);
    double Untraced = Items / U.WallSec;
    R.set("trace.overhead_frac", (Untraced - ItemsPerSec) / Untraced);
    R.Record.set("items_per_s_traced", ItemsPerSec);
    R.Record.set("items_per_s_untraced", Untraced);
  }

  // --- output checks (after peak_rss_mb was read) -----------------------------
  for (size_t I = 0; I < Models.size(); ++I) {
    if (Kind == Check::Caffe)
      checkAgainstCaffe(Models[I], First[I], R);
    else
      checkAgainstInterpreter(Models[I], First[I], R);
  }
  return R;
}

} // namespace

RunResult runTrainAlexnet(const RunConfig &C) {
  std::vector<Model> Models(1);
  Models[0].Tag = "alexnet";
  Models[0].Spec = models::alexNet(0.5);
  Models[0].Batch = 8;
  Models[0].Lr = 0.001;
  // About one step per second on a 4-core host.
  return runTrain(C, std::move(Models), 1.0, Check::Caffe);
}

RunResult runTrainSeq(const RunConfig &C) {
  std::vector<Model> Models(2);
  Models[0].Tag = "lstm";
  Models[0].Spec = models::lstmClassifier(16, 64, 64, 10);
  Models[1].Tag = "attention";
  Models[1].Spec = models::attentionClassifier(16, 64, 64, 10);
  for (Model &M : Models) {
    M.Batch = 32;
    M.CO.Jit = true;
    M.Lr = 0.01;
  }
  // One round (an LSTM step and an attention step) takes 10-15 ms, so the
  // run spans 2.5-3x --seconds to average over more of the host's speed
  // switches.
  return runTrain(C, std::move(Models), 200.0, Check::Interpreter);
}

} // namespace perfbench
