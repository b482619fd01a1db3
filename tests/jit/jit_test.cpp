//===- tests/jit/jit_test.cpp ---------------------------------*- C++ -*-===//
///
/// Unit tests for the in-process JIT backend (src/jit): the content-hash
/// shared-object cache (hit / recompile / corrupt-object recovery, stale
/// ABI versions, single-flight builds that run distinct sources in
/// parallel), clean interpreter fallback when the system compiler is
/// broken, module sharing across executors, byte identity with the
/// interpreter for training and forward-only programs (the unrolled LSTM's
/// 1,305 units through its shared class functions included), the
/// interpreter's kernel counters, source determinism, and
/// finite-difference gradient checking through the JIT dispatch path.
///
/// Cache tests point LATTE_JIT_DIR at a fresh temp directory so a
/// previous run's disk cache cannot skew the stats counters, and each
/// test uses a distinct source/model so the in-process module registry
/// (keyed by content hash) cannot alias across tests.
///
//===----------------------------------------------------------------------===//

#include "jit/jit_backend.h"

#include "../codegen_harness.h"

#include "compiler/codegen_cpp.h"
#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "engine/executor.h"
#include "models/models.h"
#include "solvers/solvers.h"
#include "support/profile.h"
#include "verify/gradcheck.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace latte;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::engine;
using namespace latte::layers;

namespace {

/// Creates a fresh cache directory and points LATTE_JIT_DIR at it for the
/// duration of the test (restores the previous value on destruction).
class ScopedCacheDir {
public:
  ScopedCacheDir() {
    char Template[] = "/tmp/latte-jit-test-XXXXXX";
    char *D = ::mkdtemp(Template);
    EXPECT_NE(D, nullptr);
    Dir = D ? D : "/tmp";
    if (const char *Old = std::getenv("LATTE_JIT_DIR"))
      Saved = Old;
    ::setenv("LATTE_JIT_DIR", Dir.c_str(), 1);
  }
  ~ScopedCacheDir() {
    if (Saved.empty())
      ::unsetenv("LATTE_JIT_DIR");
    else
      ::setenv("LATTE_JIT_DIR", Saved.c_str(), 1);
  }
  const std::string &path() const { return Dir; }

private:
  std::string Dir;
  std::string Saved;
};

/// Minimal valid JIT translation unit with the mandatory ABI-version
/// symbol (returning \p Version) and a one-task forward table; \p Marker
/// uniquifies the content hash per call site.
std::string minimalSource(const std::string &Marker,
                          int64_t Version = jit::kLatteJitAbiVersion) {
  return "// marker: " + Marker + "\n#include <cstdint>\n" +
         jit::abiStructSource() +
         "extern \"C\" int64_t latte_jit_abi_version() { return " +
         std::to_string(Version) +
         "; }\n"
         "static void latte_class_0(LatteJitCtx *, const int32_t *) {}\n"
         "extern \"C\" const LatteJitTask " +
         jit::kForwardTasksSymbol +
         "[] = {{latte_class_0, nullptr}, {nullptr, nullptr}};\n";
}

/// True when \p M exports a forward table of exactly one task.
bool hasOneForwardTask(const jit::JitModule &M) {
  const LatteJitTask *T = M.tasks(jit::kForwardTasksSymbol);
  return T && T[0].fn && !T[1].fn;
}

/// Points LATTE_JIT_CC at a command for the object's lifetime.
class ScopedCompiler {
public:
  explicit ScopedCompiler(const std::string &Command) {
    ::setenv("LATTE_JIT_CC", Command.c_str(), 1);
  }
  ~ScopedCompiler() { ::unsetenv("LATTE_JIT_CC"); }
};

/// Writes an executable shell script \p Body to \p Path.
void writeScript(const std::string &Path, const std::string &Body) {
  {
    std::ofstream Out(Path);
    Out << "#!/bin/sh\n" << Body;
  }
  ::chmod(Path.c_str(), 0755);
}

/// Compiles \p Spec at batch 2 with \p Opts.
Program compileSpec(const models::ModelSpec &Spec, const CompileOptions &Opts) {
  core::Net Net(2);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  return compile(Net, Opts);
}

/// Seeds params/inputs/labels of \p Ex deterministically.
void seedExecutor(Executor &Ex, int64_t Classes) {
  Ex.initParams(42);
  const Program &P = Ex.program();
  Rng R(7);
  Tensor In(P.findBuffer(P.DataBuffer)->Dims);
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Tensor L(P.findBuffer(P.LabelBuffer)->Dims);
  for (int64_t I = 0; I < L.numElements(); ++I)
    L.at(I) = static_cast<float>(I % Classes);
  Ex.setLabels(L);
}

} // namespace

TEST(JitCacheTest, HitRecompileAndHashing) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";
  ScopedCacheDir Cache;
  jit::resetStats();

  const std::string SrcA = minimalSource("cache-hit-a");
  const std::string SrcB = minimalSource("cache-hit-b");
  ASSERT_NE(jit::hashSource(SrcA), jit::hashSource(SrcB));

  std::string Diag;
  std::shared_ptr<jit::JitModule> M = jit::JitModule::getOrCreate(SrcA, &Diag);
  ASSERT_NE(M, nullptr) << Diag;
  EXPECT_EQ(jit::stats().Compiles, 1);
  EXPECT_EQ(M->hash(), jit::hashSource(SrcA));
  EXPECT_TRUE(hasOneForwardTask(*M));
  EXPECT_EQ(M->tasks("latte_tasks_that_do_not_exist"), nullptr);

  // Same source while the module is alive: in-process registry hit, no
  // compiler invocation.
  std::shared_ptr<jit::JitModule> M2 =
      jit::JitModule::getOrCreate(SrcA, &Diag);
  ASSERT_NE(M2, nullptr);
  EXPECT_EQ(M2.get(), M.get());
  EXPECT_EQ(jit::stats().MemCacheHits, 1);
  EXPECT_EQ(jit::stats().Compiles, 1);

  // Same source after releasing the module: the shared object is still on
  // disk, so it reloads without recompiling.
  M.reset();
  M2.reset();
  std::shared_ptr<jit::JitModule> M3 =
      jit::JitModule::getOrCreate(SrcA, &Diag);
  ASSERT_NE(M3, nullptr) << Diag;
  EXPECT_EQ(jit::stats().DiskCacheHits, 1);
  EXPECT_EQ(jit::stats().Compiles, 1);

  // Changed source: new hash, fresh compile.
  std::shared_ptr<jit::JitModule> MB =
      jit::JitModule::getOrCreate(SrcB, &Diag);
  ASSERT_NE(MB, nullptr) << Diag;
  EXPECT_NE(MB->hash(), M3->hash());
  EXPECT_EQ(jit::stats().Compiles, 2);
}

TEST(JitCacheTest, StaleAbiVersionIsRejected) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";
  ScopedCacheDir Cache;
  jit::resetStats();

  // An object that reports another ABI version compiles and loads, but
  // the engine must not run it: its tasks would call the trampoline with
  // another argument list.
  const int64_t Stale = jit::kLatteJitAbiVersion - 1;
  std::string Diag;
  std::shared_ptr<jit::JitModule> M =
      jit::JitModule::getOrCreate(minimalSource("stale-abi", Stale), &Diag);
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diag.find("object " + std::to_string(Stale)), std::string::npos)
      << Diag;
  EXPECT_NE(Diag.find("engine " + std::to_string(jit::kLatteJitAbiVersion)),
            std::string::npos)
      << Diag;
  EXPECT_EQ(jit::stats().LoadFailures, 1);
  EXPECT_EQ(jit::stats().Compiles, 0);
}

TEST(JitCacheTest, CorruptCachedObjectRecovers) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";
  ScopedCacheDir Cache;
  jit::resetStats();

  const std::string Src = minimalSource("corrupt-object");
  const std::string ObjPath = jit::cachedObjectPath(jit::hashSource(Src));
  {
    std::ofstream Out(ObjPath, std::ios::binary);
    Out << "this is not a shared object";
  }

  // The corrupt pre-existing object must be discarded and recompiled, not
  // crash the process or poison the cache.
  std::string Diag;
  std::shared_ptr<jit::JitModule> M = jit::JitModule::getOrCreate(Src, &Diag);
  ASSERT_NE(M, nullptr) << Diag;
  EXPECT_TRUE(hasOneForwardTask(*M));
  EXPECT_EQ(jit::stats().Compiles, 1);
  EXPECT_EQ(jit::stats().DiskCacheHits, 0);
}

TEST(JitCacheTest, DistinctSourcesCompileConcurrently) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";
  ScopedCacheDir Cache;
  jit::resetStats();

  // The compiler wrapper leaves a marker and, before compiling, waits (at
  // most 10 s) until two markers exist, then records how many it saw.
  // Two builds of distinct sources must overlap, so each sees two; built
  // one after the other, the first sees only its own. Markers stay until
  // the test ends: a wrapper that removed its own after compiling could
  // hide it from a second wrapper that was slow to look.
  const std::string Markers = Cache.path() + "/markers";
  ASSERT_EQ(::mkdir(Markers.c_str(), 0755), 0);
  const std::string Seen = Cache.path() + "/seen";
  const std::string Wrapper = Cache.path() + "/overlap-cc.sh";
  writeScript(Wrapper,
              ": > \"" + Markers + "/m.$$\"\n"
              "i=0\n"
              "while [ \"$(ls \"" + Markers + "\" | wc -l)\" -lt 2 ] && "
              "[ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done\n"
              "ls \"" + Markers + "\" | wc -l >> \"" + Seen + "\"\n"
              "exec " LATTE_TEST_CXX " \"$@\"\n");
  std::shared_ptr<jit::JitModule> Built[2];
  std::string Diags[2];
  {
    ScopedCompiler CC(Wrapper);
    std::vector<std::thread> Threads;
    for (int I = 0; I < 2; ++I)
      Threads.emplace_back([&, I] {
        Built[I] = jit::JitModule::getOrCreate(
            minimalSource("concurrent-" + std::to_string(I)), &Diags[I]);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (int I = 0; I < 2; ++I)
    ASSERT_NE(Built[I], nullptr) << Diags[I];
  EXPECT_EQ(jit::stats().Compiles, 2);
  std::ifstream In(Seen);
  std::vector<int> Counts;
  for (int N; In >> N;)
    Counts.push_back(N);
  EXPECT_EQ(Counts, (std::vector<int>{2, 2}))
      << "the two compiles did not run at the same time";

  // Threads building one source wait for a single compile (the wrapper
  // holds it for a second so that they all arrive while it runs) and
  // share its module.
  const std::string Slow = Cache.path() + "/slow-cc.sh";
  writeScript(Slow, "sleep 1\nexec " LATTE_TEST_CXX " \"$@\"\n");
  jit::resetStats();
  constexpr int kThreads = 4;
  std::shared_ptr<jit::JitModule> Same[kThreads];
  {
    ScopedCompiler CC(Slow);
    std::vector<std::thread> Threads;
    for (int I = 0; I < kThreads; ++I)
      Threads.emplace_back([&, I] {
        Same[I] = jit::JitModule::getOrCreate(minimalSource("one-source"));
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (int I = 0; I < kThreads; ++I) {
    ASSERT_NE(Same[I], nullptr);
    EXPECT_EQ(Same[I].get(), Same[0].get());
  }
  EXPECT_EQ(jit::stats().Compiles, 1);
  EXPECT_EQ(jit::stats().MemCacheHits, kThreads - 1);

  // A failed compile gives every waiter null and the diagnostic.
  const std::string Failing = Cache.path() + "/failing-cc.sh";
  writeScript(Failing, "sleep 1\necho no compiler here >&2\nexit 1\n");
  std::string FailDiags[kThreads];
  {
    ScopedCompiler CC(Failing);
    std::vector<std::thread> Threads;
    for (int I = 0; I < kThreads; ++I)
      Threads.emplace_back([&, I] {
        Same[I] = jit::JitModule::getOrCreate(minimalSource("fails"),
                                              &FailDiags[I]);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (int I = 0; I < kThreads; ++I) {
    EXPECT_EQ(Same[I], nullptr);
    EXPECT_NE(FailDiags[I].find("no compiler here"), std::string::npos)
        << FailDiags[I];
  }
}

TEST(JitCacheTest, BrokenCompilerFallsBackCleanly) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";
  ScopedCacheDir Cache;
  ::setenv("LATTE_JIT_CC", "/bin/false", 1);

  // Module layer: null result plus a diagnostic, never a crash.
  std::string Diag;
  std::shared_ptr<jit::JitModule> M =
      jit::JitModule::getOrCreate(minimalSource("broken-cc"), &Diag);
  EXPECT_EQ(M, nullptr);
  EXPECT_FALSE(Diag.empty());

  // Executor layer: a Jit program still constructs and runs — every task
  // falls back to the interpreter and results match the NoJit baseline.
  CompileOptions Jit;
  Jit.Jit = true;
  const models::ModelSpec Spec = models::mlp(9, {7}, 3);
  Executor A(compileSpec(Spec, Jit));
  EXPECT_FALSE(A.jitActive());
  EXPECT_FALSE(A.jitDiagnostic().empty());

  ExecOptions NoJit;
  NoJit.NoJit = true;
  Executor B(compileSpec(Spec, Jit), NoJit);
  seedExecutor(A, 3);
  seedExecutor(B, 3);
  A.forward();
  A.backward();
  B.forward();
  B.backward();
  EXPECT_EQ(A.lossValue(), B.lossValue());

  ::unsetenv("LATTE_JIT_CC");
}

TEST(JitExecutorTest, KernelCountersMatchInterpreter) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";

  // A jitted unit runs without the interpreter, and kernels::dispatch
  // counts nothing, so the counters are each unit's static cost: a
  // profiled fwd+bwd reports the interpreter's kernel calls, bytes, FLOPs
  // and GEMM calls with the JIT on or off.
  struct Expected {
    models::ModelSpec Spec;
    uint64_t KernelCalls, BytesMoved, Flops, GemmCalls;
  };
  const Expected Nets[] = {
      {models::vggFirstThreeLayers(0.25), 231, 28901376, 142098432, 67},
      {models::lstmClassifier(16, 64, 64, 10), 1399, 2048000, 12598272,
       387},
  };
  CompileOptions CO;
  CO.Jit = true;
  for (const Expected &X : Nets) {
    for (bool Jit : {true, false}) {
      core::Net Net(4);
      models::buildLatte(Net, X.Spec, /*WithLoss=*/true);
      ExecOptions EO;
      EO.Profile = true;
      EO.NoJit = !Jit;
      Executor Ex(compile(Net, CO), EO);
      ASSERT_EQ(Ex.jitActive(), Jit) << Ex.jitDiagnostic();
      seedExecutor(Ex, X.Spec.NumClasses);
      prof::Profiler::get().reset();
      prof::Profiler::get().setEnabled(true);
      Ex.forward();
      Ex.backward();
      prof::Profiler::get().setEnabled(false);
      const prof::CounterSet &C = prof::Profiler::get().summary().Totals;
      prof::Profiler::get().reset();
      const std::string What = X.Spec.Name + (Jit ? " jit" : " interpreter");
      EXPECT_EQ(C.get(prof::Counter::KernelCalls), X.KernelCalls) << What;
      EXPECT_EQ(C.get(prof::Counter::BytesMoved), X.BytesMoved) << What;
      EXPECT_EQ(C.get(prof::Counter::Flops), X.Flops) << What;
      EXPECT_EQ(C.get(prof::Counter::GemmCalls), X.GemmCalls) << What;
    }
  }
}

TEST(JitExecutorTest, ConvNetTrainAndForwardOnlyMatchInterpreter) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";

  // Every unit of the small fused conv net runs jitted. One SGD step must
  // leave params and grads byte-identical to the interpreter's; its
  // forward-only compile, whose fused chain is a parallel batch loop,
  // must match too.
  std::unique_ptr<core::Net> Net = codegen_harness::makeConvNet(3);
  CompileOptions CO;
  CO.Jit = true;
  ExecOptions NoJit;
  NoJit.NoJit = true;
  auto ExpectSameBytes = [](const Executor &A, const Executor &B,
                            const std::string &Name) {
    Tensor TA = A.readBuffer(Name);
    Tensor TB = B.readBuffer(Name);
    ASSERT_EQ(TA.numElements(), TB.numElements()) << Name;
    EXPECT_EQ(std::memcmp(TA.data(), TB.data(),
                          sizeof(float) * TA.numElements()),
              0)
        << "buffer '" << Name << "' diverged between JIT and interpreter";
  };

  Executor A(compile(*Net, CO));
  Executor B(compile(*Net, CO), NoJit);
  ASSERT_TRUE(A.jitActive()) << A.jitDiagnostic();
  EXPECT_EQ(A.jitFallbackCount(), 0);
  seedExecutor(A, 5);
  seedExecutor(B, 5);
  solvers::SolverParameters SP;
  SP.Lr = solvers::LRPolicy::fixed(0.1);
  solvers::SgdSolver SolverA(SP), SolverB(SP);
  A.forward();
  A.backward();
  SolverA.step(A, 0);
  B.forward();
  B.backward();
  SolverB.step(B, 0);
  for (const ParamBinding &P : A.program().Params) {
    ExpectSameBytes(A, B, P.Param);
    ExpectSameBytes(A, B, P.Grad);
  }

  Executor C(compileForward(*Net, CO));
  Executor D(compileForward(*Net, CO), NoJit);
  ASSERT_TRUE(C.jitActive()) << C.jitDiagnostic();
  EXPECT_EQ(C.jitFallbackCount(), 0);
  seedExecutor(C, 5);
  seedExecutor(D, 5);
  C.forward();
  D.forward();
  const Program &Fwd = C.program();
  for (const BufferInfo &Buf : Fwd.Buffers)
    if (Buf.Role == BufferRole::Value &&
        Fwd.Plan.retainedAtExit(Fwd.resolveAlias(Buf.Name)->Name))
      ExpectSameBytes(C, D, Buf.Name);
}

TEST(JitExecutorTest, UnrolledLstmSharesClassesBitwise) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";

  // The 16 unrolled steps repeat the same loop nests over other buffers:
  // 1,305 units render to at most 23 class functions. Run through their
  // slot arrays, one SGD step leaves the loss and every parameter
  // byte-identical to the interpreter's.
  core::Net Net(4);
  models::buildLatte(Net, models::lstmClassifier(16, 64, 64, 10),
                     /*WithLoss=*/true);
  CompileOptions CO;
  CO.Jit = true;
  Program P = compile(Net, CO);
  JitSource JS = generateJitSource(P);
  EXPECT_EQ(JS.Forward.size() + JS.Backward.size(), 1305u);
  EXPECT_LE(JS.Classes, 23);
  EXPECT_EQ(JS.Source.find("latte_task_"), std::string::npos);

  ExecOptions EO;
  EO.NoMemPlan = true; // keep every buffer readable for the comparison
  ExecOptions NoJit = EO;
  NoJit.NoJit = true;
  Executor A(P.clone(), EO);
  ASSERT_TRUE(A.jitActive()) << A.jitDiagnostic();
  EXPECT_EQ(A.jitFallbackCount(), 0);
  Executor B(std::move(P), NoJit);
  seedExecutor(A, 10);
  seedExecutor(B, 10);
  solvers::SolverParameters SP;
  SP.Lr = solvers::LRPolicy::fixed(0.1);
  solvers::SgdSolver SolverA(SP), SolverB(SP);
  A.forward();
  A.backward();
  SolverA.step(A, 0);
  B.forward();
  B.backward();
  SolverB.step(B, 0);
  const double LossA = A.lossValue(), LossB = B.lossValue();
  EXPECT_EQ(std::memcmp(&LossA, &LossB, sizeof LossA), 0);
  for (const ParamBinding &Param : A.program().Params) {
    Tensor TA = A.readBuffer(Param.Param);
    Tensor TB = B.readBuffer(Param.Param);
    EXPECT_EQ(std::memcmp(TA.data(), TB.data(),
                          sizeof(float) * TA.numElements()),
              0)
        << "parameter '" << Param.Param << "' diverged";
  }
}

TEST(JitExecutorTest, ExecutorsShareOneModule) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";
  jit::resetStats();

  // Two executors over the same program content-hash to the same module:
  // one compile + one dlopen serve both (this is what makes the
  // data-parallel runtime's per-worker replicas cheap).
  CompileOptions CO;
  CO.Jit = true;
  const models::ModelSpec Spec = models::mlp(10, {6, 5}, 4);
  Executor A(compileSpec(Spec, CO));
  ASSERT_TRUE(A.jitActive()) << A.jitDiagnostic();
  Executor B(compileSpec(Spec, CO));
  ASSERT_TRUE(B.jitActive()) << B.jitDiagnostic();
  EXPECT_EQ(A.jitModuleHash(), B.jitModuleHash());
  EXPECT_GE(jit::stats().MemCacheHits, 1);
}

TEST(JitExecutorTest, GeneratedSourceIsDeterministic) {
  // Two compilations of the same net must emit byte-identical JIT sources
  // — the content-hash cache rests on this (a nondeterministic emission
  // order would defeat caching and recompile on every run).
  CompileOptions CO;
  CO.Jit = true;
  const models::ModelSpec Spec = models::vggFirstThreeLayers(0.06);
  JitSource S1 = generateJitSource(compileSpec(Spec, CO));
  JitSource S2 = generateJitSource(compileSpec(Spec, CO));
  EXPECT_EQ(S1.Source, S2.Source);
  ASSERT_EQ(S1.Forward.size(), S2.Forward.size());
  ASSERT_EQ(S1.Backward.size(), S2.Backward.size());
}

TEST(JitExecutorTest, GradCheckThroughJitDispatch) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";

  // Finite-difference gradient checking with every forward/backward pass
  // dispatched through the loaded module: analytic gradients produced by
  // JIT-compiled backward tasks must match central differences of the
  // JIT-computed loss.
  core::Net Net(3);
  Ensemble *Data = DataLayer(Net, "data", Shape{5});
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Data, 7);
  Ensemble *Out = FullyConnectedLayer(Net, "out", Fc, 4);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Out, Labels);

  CompileOptions CO;
  CO.Jit = true;
  Executor Ex(compile(Net, CO));
  ASSERT_TRUE(Ex.jitActive()) << Ex.jitDiagnostic();
  seedExecutor(Ex, 4);
  verify::GradCheckReport R = verify::gradCheck(Ex);
  EXPECT_TRUE(R.Passed) << R.summary();
}
