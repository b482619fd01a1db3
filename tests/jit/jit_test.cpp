//===- tests/jit/jit_test.cpp ---------------------------------*- C++ -*-===//
///
/// Unit tests for the in-process JIT backend (src/jit): the content-hash
/// shared-object cache (hit / recompile / corrupt-object recovery), clean
/// interpreter fallback when the system compiler is broken, per-task
/// fallback for non-codegen-able units (dropout), module sharing across
/// executors, byte identity with the interpreter for training and
/// forward-only programs, source determinism, and finite-difference
/// gradient checking through the JIT dispatch path.
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
#include "verify/gradcheck.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

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
/// symbol; \p Marker uniquifies the content hash per call site.
std::string minimalSource(const std::string &Marker) {
  return "// marker: " + Marker + "\n#include <cstdint>\n"
         "extern \"C\" int64_t latte_jit_abi_version() { return " +
         std::to_string(jit::kLatteJitAbiVersion) +
         "; }\n"
         "extern \"C\" void latte_task_f0(void *) {}\n";
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
  EXPECT_NE(M->symbol("latte_task_f0"), nullptr);
  EXPECT_EQ(M->symbol("latte_task_does_not_exist"), nullptr);

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
  EXPECT_NE(M->symbol("latte_task_f0"), nullptr);
  EXPECT_EQ(jit::stats().Compiles, 1);
  EXPECT_EQ(jit::stats().DiskCacheHits, 0);
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
  ExecOptions EO;
  EO.Deterministic = true;
  const models::ModelSpec Spec = models::mlp(9, {7}, 3);
  Executor A(compileSpec(Spec, Jit), EO);
  EXPECT_FALSE(A.jitActive());
  EXPECT_FALSE(A.jitDiagnostic().empty());

  ExecOptions NoJit = EO;
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

TEST(JitExecutorTest, PerTaskFallbackForDropout) {
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";

  // Dropout masks come from the engine's RNG stream, which generated code
  // cannot reproduce — that one task must fall back to the interpreter
  // while every other task still dispatches through the module, and the
  // mixed schedule must stay bitwise identical to the pure interpreter.
  core::Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{8});
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Data, 6);
  Ensemble *Drop = DropoutLayer(Net, "drop", Fc, 0.5);
  Ensemble *Out = FullyConnectedLayer(Net, "out", Drop, 3);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Out, Labels);

  CompileOptions CO;
  CO.Jit = true;
  ExecOptions EO;
  EO.Deterministic = true;
  EO.NoMemPlan = true; // keep every buffer readable for the comparison
  Executor A(compile(Net, CO), EO);
  ASSERT_TRUE(A.jitActive()) << A.jitDiagnostic();
  EXPECT_GT(A.jitTaskCount(), 0);
  EXPECT_GT(A.jitFallbackCount(), 0);

  ExecOptions NoJit = EO;
  NoJit.NoJit = true;
  Executor B(compile(Net, CO), NoJit);
  EXPECT_FALSE(B.jitActive());

  seedExecutor(A, 3);
  seedExecutor(B, 3);
  for (int Epoch = 0; Epoch < 2; ++Epoch) {
    A.forward();
    A.backward();
    B.forward();
    B.backward();
  }
  EXPECT_EQ(A.lossValue(), B.lossValue());
  for (const ParamBinding &P : A.program().Params) {
    for (const std::string &Name : {P.Param, P.Grad}) {
      Tensor TA = A.readBuffer(Name);
      Tensor TB = B.readBuffer(Name);
      ASSERT_EQ(std::memcmp(TA.data(), TB.data(),
                            sizeof(float) * TA.numElements()),
                0)
          << "buffer '" << Name << "' diverged with dropout fallback";
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
  ExecOptions EO;
  EO.Deterministic = true;
  ExecOptions NoJit = EO;
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

  Executor A(compile(*Net, CO), EO);
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

  Executor C(compileForward(*Net, CO), EO);
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
  ExecOptions EO;
  EO.Deterministic = true;
  Executor A(compileSpec(Spec, CO), EO);
  ASSERT_TRUE(A.jitActive()) << A.jitDiagnostic();
  Executor B(compileSpec(Spec, CO), EO);
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
  ExecOptions EO;
  EO.Deterministic = true;
  Executor Ex(compile(Net, CO), EO);
  ASSERT_TRUE(Ex.jitActive()) << Ex.jitDiagnostic();
  seedExecutor(Ex, 4);
  verify::GradCheckReport R = verify::gradCheck(Ex);
  EXPECT_TRUE(R.Passed) << R.summary();
}
