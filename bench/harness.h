//===- bench/harness.h - Shared figure-harness helpers --------*- C++ -*-===//
///
/// \file
/// Helpers shared by the per-figure benchmark binaries: building and
/// timing the same ModelSpec on Latte, the Caffe baseline, and the Mocha
/// baseline, plus row printing with the paper's published values alongside
/// the measured ones.
///
/// NOTE ON SCALE: the paper's numbers come from a 36-core Xeon E5-2699 v3;
/// this harness runs wherever it is built (possibly one core) and at a
/// reduced spatial scale (printed in each header). Speedup *ratios*
/// attributable to algorithmic structure (fusion, tiling, kernel choice,
/// naive vs optimized baselines) survive; the parallelization factor of
/// the paper scales with the available cores. EXPERIMENTS.md discusses
/// each figure.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_BENCH_HARNESS_H
#define LATTE_BENCH_HARNESS_H

#include "baselines/mocha/mocha.h"
#include "compiler/compiler.h"
#include "engine/executor.h"
#include "models/models.h"
#include "support/json.h"
#include "support/profile.h"
#include "support/timer.h"
#include "support/trace_json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

namespace latte {
namespace bench {

struct PassTimes {
  double FwdSec = 0.0;
  double BwdSec = 0.0;
  /// Memory footprint of the run (0 = not measured, e.g. the baselines):
  /// ArenaBytes is the planned arena size actually allocated, EagerBytes
  /// what one-buffer-per-root eager allocation would have used.
  int64_t ArenaBytes = 0;
  int64_t EagerBytes = 0;
  /// The recompute trade (0 when the pass found no candidates): extra ops
  /// replayed in backward vs bytes no longer retained across the
  /// forward/backward boundary.
  int64_t RecomputeFlops = 0;
  int64_t RetainedBytesSaved = 0;
  double total() const { return FwdSec + BwdSec; }
  double memSavedPct() const {
    return EagerBytes > 0
               ? 100.0 * (1.0 - double(ArenaBytes) / double(EagerBytes))
               : 0.0;
  }
};

/// Common CLI surface of the figure binaries:
///
///   fig13_microbench [--scale S] [--batch N] [--reps N]
///                    [--json BENCH_fig13.json] [--trace trace.json]
///
/// `--json` emits the machine-readable BENCH summary (rows, per-pass
/// compile times, per-task execution spans, counters, git sha, host info)
/// consumed by bench/compare and CI; `--trace` emits a Chrome trace_event
/// file loadable in chrome://tracing or https://ui.perfetto.dev. Either
/// flag turns the global profiler on.
struct BenchOptions {
  double Scale = 1.0;
  int64_t Batch = 1;
  int Reps = 3;
  std::string JsonPath;
  std::string TracePath;

  bool profiling() const { return !JsonPath.empty() || !TracePath.empty(); }
};

inline BenchOptions parseBenchArgs(int Argc, char **Argv, double DefScale,
                                   int64_t DefBatch, int DefReps = 3) {
  BenchOptions O;
  O.Scale = DefScale;
  O.Batch = DefBatch;
  O.Reps = DefReps;
  auto NeedValue = [&](int I) {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "missing value for %s\n", Argv[I]);
      std::exit(2);
    }
    return Argv[I + 1];
  };
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--scale") == 0)
      O.Scale = std::atof(NeedValue(I++));
    else if (std::strcmp(Argv[I], "--batch") == 0)
      O.Batch = std::atoll(NeedValue(I++));
    else if (std::strcmp(Argv[I], "--reps") == 0)
      O.Reps = std::atoi(NeedValue(I++));
    else if (std::strcmp(Argv[I], "--json") == 0)
      O.JsonPath = NeedValue(I++);
    else if (std::strcmp(Argv[I], "--trace") == 0)
      O.TracePath = NeedValue(I++);
    else if (std::strcmp(Argv[I], "--help") == 0) {
      std::printf("usage: %s [--scale S] [--batch N] [--reps N] "
                  "[--json out.json] [--trace out.json]\n",
                  Argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument '%s' (see --help)\n", Argv[I]);
      std::exit(2);
    }
  }
  if (O.Scale <= 0 || O.Batch <= 0 || O.Reps <= 0) {
    std::fprintf(stderr, "--scale/--batch/--reps must be positive\n");
    std::exit(2);
  }
  if (O.profiling())
    prof::Profiler::get().setEnabled(true);
  return O;
}

/// Git revision baked in at configure time (CMake passes LATTE_GIT_SHA).
inline std::string gitSha() {
#ifdef LATTE_GIT_SHA
  return LATTE_GIT_SHA;
#else
  if (const char *Env = std::getenv("LATTE_GIT_SHA"))
    return Env;
  return "unknown";
#endif
}

inline json::Value hostInfoJson() {
  json::Value Host = json::Value::object();
  Host.set("cpu_count",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
#if defined(__unix__) || defined(__APPLE__)
  struct utsname U;
  if (uname(&U) == 0) {
    Host.set("sysname", U.sysname);
    Host.set("release", U.release);
    Host.set("machine", U.machine);
  }
#endif
#ifdef LATTE_HAVE_OPENMP
  Host.set("openmp", true);
#else
  Host.set("openmp", false);
#endif
  return Host;
}

/// Accumulates a figure run into the BENCH_<fig>.json schema:
///
///   { "schema": "latte-bench-v1", "figure", "git_sha", "host",
///     "config": {scale, batch, reps}, "rows": [{label, fwd_sec, bwd_sec,
///     total_sec}], "compile_stages": [{name, sec}], "tasks": [{phase,
///     name, count, total_sec}], "counters": {phase: {...}} }
///
/// finish() attaches the profiler's aggregate (per-task execution spans +
/// counters) and writes the JSON and/or Chrome trace files requested in
/// BenchOptions.
class BenchReport {
public:
  BenchReport(std::string Figure, const BenchOptions &Opts)
      : Opts(Opts), Doc(json::Value::object()) {
    Doc.set("schema", "latte-bench-v1");
    Doc.set("figure", std::move(Figure));
    Doc.set("git_sha", gitSha());
    Doc.set("host", hostInfoJson());
    json::Value Config = json::Value::object();
    Config.set("scale", Opts.Scale);
    Config.set("batch", Opts.Batch);
    Config.set("reps", Opts.Reps);
    Doc.set("config", std::move(Config));
    Doc.set("rows", json::Value::array());
  }

  void addRow(const std::string &Label, const PassTimes &T) {
    json::Value Row = json::Value::object();
    Row.set("label", Label);
    Row.set("fwd_sec", T.FwdSec);
    Row.set("bwd_sec", T.BwdSec);
    Row.set("total_sec", T.total());
    // Memory columns (rows measured through the Latte executor only; the
    // baselines allocate per-layer blobs and report nothing here).
    if (T.EagerBytes > 0) {
      Row.set("arena_bytes", T.ArenaBytes);
      Row.set("eager_bytes", T.EagerBytes);
    }
    if (T.RecomputeFlops > 0) {
      Row.set("recompute_flops", T.RecomputeFlops);
      Row.set("retained_bytes_saved", T.RetainedBytesSaved);
    }
    Doc.find("rows")->push(std::move(Row));
  }

  /// Attaches an arbitrary top-level section (e.g. per-model compile
  /// reports: GEMM-match / fusion / interpreter counters). compare treats
  /// unknown sections as informational.
  void setExtra(const std::string &Key, json::Value V) {
    Doc.set(Key, std::move(V));
  }

  /// Per-pass compile times from compiler::compileStaged.
  void addCompileStages(const std::vector<compiler::PassStage> &Stages) {
    json::Value Arr = json::Value::array();
    for (const compiler::PassStage &S : Stages) {
      json::Value E = json::Value::object();
      E.set("name", S.Name);
      E.set("sec", S.CompileSec);
      Arr.push(std::move(E));
    }
    Doc.set("compile_stages", std::move(Arr));
  }

  /// Writes the requested output files. Returns false on I/O error (after
  /// printing a diagnostic); call once at the end of main.
  bool finish() {
    bool Ok = true;
    std::string Err;
    if (!Opts.JsonPath.empty()) {
      // The profiler summary: per-task spans (as "tasks"), per-phase
      // counters and totals.
      const json::Value Summary = prof::summaryJson();
      for (const auto &[Key, V] : Summary.members())
        Doc.set(Key == "spans" ? "tasks" : Key, V);
      if (prof::writeJsonFile(Opts.JsonPath, Doc, &Err)) {
        std::printf("\nwrote %s\n", Opts.JsonPath.c_str());
      } else {
        std::fprintf(stderr, "%s\n", Err.c_str());
        Ok = false;
      }
    }
    if (!Opts.TracePath.empty()) {
      if (prof::writeChromeTrace(Opts.TracePath, &Err)) {
        std::printf("wrote %s (load in chrome://tracing or "
                    "https://ui.perfetto.dev)\n",
                    Opts.TracePath.c_str());
      } else {
        std::fprintf(stderr, "%s\n", Err.c_str());
        Ok = false;
      }
    }
    return Ok;
  }

private:
  BenchOptions Opts;
  json::Value Doc;
};

inline void fillRandom(Tensor &T, uint64_t Seed) {
  Rng R(Seed);
  R.fillGaussian(T, 0.0f, 1.0f);
}

/// Times Latte forward/backward for one batch (min over \p Reps). With
/// Opts.Jit set, the executor's constructor compiles and loads the shared
/// object before the timed region starts, so the reported times are
/// steady-state dispatch cost only; \p JitActiveOut (when non-null)
/// receives whether the module actually engaged (false = interpreter
/// fallback, e.g. no system compiler at runtime).
inline PassTimes timeLatte(const models::ModelSpec &Spec, int64_t Batch,
                           const compiler::CompileOptions &Opts, int Reps = 3,
                           bool *JitActiveOut = nullptr) {
  core::Net Net(Batch);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  engine::ExecOptions EO;
  EO.VectorKernels = Opts.VectorKernels;
  EO.Parallel = Opts.Parallelize;
  // When the harness was asked for --json/--trace output, record per-task
  // spans and counters during the timed reps (top-of-task granularity —
  // well under the noise floor of bestWallTime).
  EO.Profile = prof::enabled();
  engine::Executor Ex(compiler::compile(Net, Opts), EO);
  if (JitActiveOut)
    *JitActiveOut = Ex.jitActive();
  Ex.initParams(1);
  PassTimes T;
  if (const compiler::MemoryPlan &Plan = Ex.program().Plan; Plan.Valid) {
    T.ArenaBytes = static_cast<int64_t>(Plan.ArenaBytes);
    T.EagerBytes = static_cast<int64_t>(Plan.EagerBytes);
  }
  for (const compiler::RecomputeInfo &RI : Ex.program().Recomputes) {
    T.RecomputeFlops += RI.Flops;
    T.RetainedBytesSaved += RI.Bytes;
  }
  Tensor In(Spec.InputDims.withPrefix(Batch));
  fillRandom(In, 7);
  Ex.setInput(In);
  Tensor Labels(Shape{Batch, 1});
  for (int64_t I = 0; I < Batch; ++I)
    Labels.at(I) = static_cast<float>(I % Spec.NumClasses);
  Ex.setLabels(Labels);

  T.FwdSec = bestWallTime([&] { Ex.forward(); }, Reps);
  T.BwdSec = bestWallTime([&] { Ex.backward(); }, Reps);
  return T;
}

/// Times one of the baselines (Caffe when \p Naive is false, Mocha
/// otherwise).
inline PassTimes timeBaseline(const models::ModelSpec &Spec, int64_t Batch,
                              bool Naive, int Reps = 3) {
  caffe::CaffeNet Net(Batch);
  if (Naive)
    models::buildMocha(Net, Spec, /*WithLoss=*/true);
  else
    models::buildCaffe(Net, Spec, /*WithLoss=*/true);
  Net.setup(1);
  fillRandom(Net.inputBlob().Data, 7);
  for (int64_t I = 0; I < Batch; ++I)
    Net.labelBlob().Data.at(I) = static_cast<float>(I % Spec.NumClasses);

  PassTimes T;
  T.FwdSec = bestWallTime([&] { Net.forward(); }, Reps);
  T.BwdSec = bestWallTime([&] { Net.backward(); }, Reps);
  return T;
}

inline void printHeader(const std::string &Title,
                        const std::string &Workload) {
  std::printf("==========================================================\n");
  std::printf("%s\n", Title.c_str());
  std::printf("workload: %s\n", Workload.c_str());
  std::printf("==========================================================\n");
}

inline void printSpeedupRow(const std::string &Label, double BaselineSec,
                            double LatteSec, const std::string &PaperNote) {
  std::printf("%-28s %10.1f ms %10.1f ms  speedup %5.2fx   paper: %s\n",
              Label.c_str(), BaselineSec * 1e3, LatteSec * 1e3,
              BaselineSec / LatteSec, PaperNote.c_str());
}

/// One line of the memory-footprint table: planned arena vs what eager
/// one-buffer-per-root allocation would have used.
inline void printMemoryRow(const std::string &Label, const PassTimes &T) {
  if (T.EagerBytes <= 0) {
    std::printf("%-44s %12s\n", Label.c_str(), "n/a");
    return;
  }
  std::printf("%-44s %9.1f MB arena %9.1f MB eager  (saved %.1f%%)",
              Label.c_str(), double(T.ArenaBytes) / 1e6,
              double(T.EagerBytes) / 1e6, T.memSavedPct());
  if (T.RecomputeFlops > 0)
    std::printf("  [recompute: +%.2f Mflop, -%.1f MB retained]",
                double(T.RecomputeFlops) / 1e6,
                double(T.RetainedBytesSaved) / 1e6);
  std::printf("\n");
}

} // namespace bench
} // namespace latte

#endif // LATTE_BENCH_HARNESS_H
