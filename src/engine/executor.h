//===- engine/executor.h - Runs compiled programs --------------*- C++ -*-===//
///
/// \file
/// The execution engine: allocates a compiled Program's buffers (honoring
/// the aliasing the shared-variable analysis set up), initializes
/// parameters, and runs the forward/backward IR. Kernel-call statements
/// dispatch into src/kernels at native speed; anything the pattern matchers
/// left as loop nests is interpreted (the general fallback for custom
/// neuron types).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_ENGINE_EXECUTOR_H
#define LATTE_ENGINE_EXECUTOR_H

#include "compiler/program.h"
#include "jit/jit_backend.h"
#include "support/rng.h"
#include "support/tensor.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace latte {
namespace engine {

/// Runtime options (the engine-side halves of the compile-time switches).
struct ExecOptions {
  /// Use the vectorized kernel variants (GEMM blocking, vector gathers).
  /// Off = the scalar reference kernels, for the Figure 13 ablation.
  bool VectorKernels = true;
  /// Honor parallel loop annotations with OpenMP (when it can run more
  /// than one thread; results are the same either way).
  bool Parallel = true;
  /// Re-seed the dropout RNG at the top of every forward pass, so repeated
  /// forwards over identical inputs produce bitwise-identical outputs (a
  /// precondition for finite differencing); used by the verification
  /// tooling (verify::runLattice / verify::gradCheck). Everything else is
  /// deterministic regardless: parallel loops, backward included, are
  /// race-free and independent of the thread count.
  bool Deterministic = false;
  /// Record per-task execution spans and kernel counters into the global
  /// profiler (support/profile.h). Off by default; when off (or when the
  /// profiler is globally disabled) the engine takes the uninstrumented
  /// path and produces bitwise-identical results at unmeasurable extra
  /// cost. Enable together with prof::Profiler::setEnabled(true).
  bool Profile = false;
  /// Ignore the compiler's MemoryPlan and allocate every buffer eagerly
  /// (one private storage region per alias root), exactly as before the
  /// planner existed. The differential baseline for the memory planner:
  /// every buffer stays readable after a run. Verification tooling
  /// (verify::runLattice) sets this — it inspects interval-allocated
  /// gradients whose bytes the plan legitimately reuses.
  bool NoMemPlan = false;
  /// Ignore Program::Jit and interpret everything — the differential
  /// baseline for the JIT backend, and an escape hatch for environments
  /// where compiling/dlopening at runtime is unwanted. (jit::available()
  /// also gates globally: LATTE_JIT=0 and sanitizer builds disable it.)
  bool NoJit = false;
  uint64_t Seed = 0x5eed;
};

class Executor {
public:
  /// Takes ownership of the compiled program (so `Executor(compile(Net))`
  /// is safe).
  explicit Executor(compiler::Program Prog, ExecOptions Opts = {});

  const compiler::Program &program() const { return Prog; }
  const ExecOptions &options() const { return Opts; }

  // --- buffer access ------------------------------------------------------

  /// Raw storage of \p Name (aliases resolved). Fatal if unknown.
  float *data(const std::string &Name);
  const float *data(const std::string &Name) const;
  /// Logical shape of \p Name.
  const Shape &shape(const std::string &Name) const;
  /// Element count of \p Name.
  int64_t size(const std::string &Name) const;

  /// Copies \p T into the program's primary data buffer (shapes' element
  /// counts must match).
  void setInput(const Tensor &T);
  /// Copies \p T into the label buffer.
  void setLabels(const Tensor &T);
  /// Copies a buffer out into a Tensor (for inspection/tests).
  Tensor readBuffer(const std::string &Name) const;
  /// Overwrites buffer \p Name from \p T.
  void writeBuffer(const std::string &Name, const Tensor &T);

  // --- execution ----------------------------------------------------------

  /// Re-initializes all parameters from \p Seed (Xavier / Gaussian /
  /// constant per the compiler's declarations).
  void initParams(uint64_t Seed);

  /// Repoints every Param-role buffer at \p Src's storage so this executor
  /// reads the exact same weight bytes (pointer-level sharing, not a copy).
  /// The programs must declare identically-shaped parameters under the same
  /// names — the serving runtime guarantees this by cloning all replica
  /// programs of one batch-size family from the same compile cache and
  /// compiling every batch size from the same net builder. \p Src must
  /// outlive this executor, and neither side may call initParams afterwards
  /// (the weights are frozen, which inference compilation enforces by
  /// having no solver bindings to update them).
  void shareParamsFrom(const Executor &Src);

  void forward();
  /// Fatal on inference-compiled programs (Program::Inference — no
  /// backward tasks exist); recompile without CompileOptions::Inference to
  /// train.
  void backward();

  /// Mean of the loss buffer after a forward pass (0 when the program has
  /// no loss ensemble).
  double lossValue() const;

  /// Top-1 accuracy of the probability buffer against the label buffer.
  double accuracy() const;

  // --- JIT backend --------------------------------------------------------

  /// True when a JIT module is loaded and at least one task dispatches
  /// through it (Program::Jit set, jit::available(), compile succeeded).
  bool jitActive() const { return JitActive; }
  /// Why the JIT is not (fully) active: unavailability reason or the
  /// compile/dlopen diagnostic. Empty when nothing went wrong.
  const std::string &jitDiagnostic() const { return JitDiag; }
  /// Tasks dispatched through the loaded module (both passes).
  int jitTaskCount() const;
  /// Tasks that fall back to the interpreter although the JIT is active.
  int jitFallbackCount() const;
  /// Content hash of the loaded module ("" when none).
  std::string jitModuleHash() const { return JitMod ? JitMod->hash() : ""; }

  /// Kernel dispatch over pre-resolved arguments — the target the JIT's
  /// kernel trampoline re-enters (public for the bridge only). \p FB /
  /// \p IB are the float / int32 buffer pointers by argument position
  /// (ir::kernelIntBufMask decides which side each position uses), \p IA
  /// the static int args, \p FA the static float args, \p EA the evaluated
  /// index-expression args. Runs the exact same kernels as the
  /// interpreter.
  void execKernelResolved(ir::KernelKind Kind, float *const *FB,
                          int32_t *const *IB, const int64_t *IA,
                          const double *FA, const int64_t *EA);

private:
  struct BufferRT {
    float *Data = nullptr;
    Shape Dims;
    std::vector<int64_t> Strides;
    int64_t Count = 0;
    bool ZeroOnForward = false;
    bool ZeroOnBackward = false;
  };

  struct Env; // loop variables + scalar locals

  void execStmt(const ir::Stmt *S, Env &E);
  void execKernel(const ir::KernelCallStmt *K, Env &E);
  /// Unit-at-a-time driver for the top-level block: interleaves the memory
  /// plan's lazy zero schedule between units (arena mode) and, when
  /// \p Profiled, wraps each unit in a ScopedTimer named by the compiler's
  /// TaskLabels. \p GlobalBase maps local unit indices onto the plan's
  /// global timeline (0 for forward, NumForwardUnits for backward).
  /// \p Fns, when non-null, is the JIT dispatch table parallel to the
  /// units: a non-null entry runs instead of interpreting that unit.
  void execProgram(const ir::Stmt *Root,
                   const std::vector<compiler::TaskLabel> &Labels, Env &E,
                   bool Profiled, int GlobalBase,
                   const std::vector<jit::TaskFn> *Fns);
  /// Attributes one kernel call to the profiler's counters.
  void profileKernel(ir::KernelKind Kind, const int64_t *IA) const;
  /// Compiles/loads the JIT module and builds the dispatch tables; any
  /// failure leaves JitActive false with the reason in JitDiag.
  void setupJit();
  /// Repoints JitCtx at this object (self / buffer tables / trampoline);
  /// called at the top of each pass so moved Executors stay valid.
  void refreshJitCtx();
  float evalFloat(const ir::Expr *Ex, Env &E) const;
  int64_t evalInt(const ir::Expr *Ex, Env &E) const;

  const BufferRT &buffer(const std::string &Name) const;
  BufferRT &buffer(const std::string &Name);
  int32_t *intBuffer(const std::string &Name);

  compiler::Program Prog;
  ExecOptions Opts;
  /// True only while a profiled forward/backward is in flight (gates the
  /// per-kernel counter hooks so the default path pays nothing).
  bool ProfActive = false;
  /// True when buffers are views into Arena (a valid plan and the option
  /// allows it); false = eager per-root Storage.
  bool PlanActive = false;
  std::vector<float> Arena;    ///< owning storage (arena mode)
  float *ArenaBase = nullptr;  ///< 64-byte-aligned base inside Arena
  std::vector<Tensor> Storage; ///< owning storage (eager mode)
  std::unordered_map<std::string, BufferRT> Buffers;
  std::unordered_map<std::string, std::vector<int32_t>> IntBuffers;
  Rng DropoutRng;

  // --- JIT state (all empty/false when the backend is off) ---------------
  bool JitActive = false;
  std::string JitDiag;
  std::shared_ptr<jit::JitModule> JitMod; ///< shared across executors
  std::vector<jit::TaskFn> JitFwd;  ///< per forward unit; null = interpret
  std::vector<jit::TaskFn> JitBwd;  ///< per backward unit
  std::vector<float *> CtxBufs;     ///< Program::Buffers order
  std::vector<int32_t *> CtxIbufs;  ///< Program::IntBuffers order
  LatteJitCtx JitCtx = {};
};

} // namespace engine
} // namespace latte

#endif // LATTE_ENGINE_EXECUTOR_H
