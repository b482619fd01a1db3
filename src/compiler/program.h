//===- compiler/program.h - Compiled network programs ----------*- C++ -*-===//
///
/// \file
/// The output of the Latte compiler: buffer declarations, precomputed
/// gather/scatter index tables, and forward/backward IR programs. The
/// execution engine allocates the buffers and runs the IR; the C++ code
/// generator prints it as a standalone translation unit.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_PROGRAM_H
#define LATTE_COMPILER_PROGRAM_H

#include "compiler/memplan.h"
#include "core/graph.h"
#include "ir/stmt.h"
#include "support/shape.h"

#include <cstdint>
#include <string>
#include <vector>

namespace latte {
namespace compiler {

enum class BufferRole {
  Value,     ///< ensemble activations (batch-major)
  Grad,      ///< ensemble gradients (∇)
  Input,     ///< gathered input windows
  GradInput, ///< gradients of gathered inputs (∇inputs)
  Param,     ///< learnable parameter
  ParamGrad, ///< gradient of a learnable parameter
  Data,      ///< externally supplied (images, labels)
  Scratch,   ///< loss vector, non-parameter neuron fields, etc.
};

/// One float buffer of the compiled program. A buffer with a non-empty
/// AliasOf shares storage with the named buffer (shared-variable analysis
/// mapping several logical buffers onto one memory region, §5.2; in-place
/// ActivationEnsembles, §3.2).
struct BufferInfo {
  std::string Name;
  Shape Dims;
  BufferRole Role = BufferRole::Scratch;
  std::string AliasOf;

  // Initialization for Param buffers.
  core::FieldInitKind Init = core::FieldInitKind::Zero;
  float InitValue = 0.0f;
  int64_t FanIn = 0;

  /// Grad/GradInput/ParamGrad buffers are zeroed at the top of backward.
  bool ZeroOnBackward = false;
  /// Accumulating forward bodies need their value zeroed at the top of
  /// forward (only when the compute was not matched to an overwriting
  /// kernel).
  bool ZeroOnForward = false;
};

/// A static int32 table (gather/scatter indices) or a dynamic int32 buffer
/// (pooling argmax masks: Entries empty, Count gives the size).
struct IntBufferInfo {
  std::string Name;
  std::vector<int32_t> Entries; ///< static contents; empty for dynamic
  int64_t Count = 0;            ///< allocation size for dynamic buffers
  bool isStatic() const { return !Entries.empty(); }
};

/// Learnable-parameter binding consumed by solvers.
struct ParamBinding {
  std::string Param;
  std::string Grad;
  float LrMult = 1.0f;
};

/// What the compiler did — asserted on by tests and printed by the
/// benchmark harnesses (which optimizations actually fired).
struct CompileReport {
  std::vector<std::string> MatchedGemmEnsembles;
  std::vector<std::string> MatchedPoolEnsembles;
  std::vector<std::string> MatchedActivationEnsembles;
  std::vector<std::string> InterpretedEnsembles;
  /// Names of ensembles fused into each forward fusion group (size >= 2).
  std::vector<std::vector<std::string>> FusionGroups;
  int NumTiledLoops = 0;
  std::vector<std::string> Notes;

  bool gemmMatched(const std::string &Ensemble) const {
    for (const std::string &E : MatchedGemmEnsembles)
      if (E == Ensemble)
        return true;
    return false;
  }
};

/// Display metadata for one top-level unit (task) of an assembled program:
/// a batch loop covering one fusion group, a whole-batch pre/post
/// statement, or a fusion barrier. Parallel to the children of the
/// program's top-level forward/backward block; consumed by the engine's
/// per-task profiling (ExecOptions::Profile) to label trace spans.
struct TaskLabel {
  std::string Name;                   ///< e.g. "batch[conv1_1+relu1_1]"
  std::vector<std::string> Ensembles; ///< ensembles the unit covers
};

/// One rematerialization decision of the recompute pass
/// (compiler/recompute.h): instead of retaining \c Buffer across the
/// forward/backward boundary, its producing pure-gather statements were
/// cloned into the backward program immediately before the single backward
/// unit that reads it. The memory planner then gives the root two disjoint
/// live intervals instead of whole-timeline retention, and the profiler
/// reports the traded work (recompute_flops / retained_bytes_saved).
struct RecomputeInfo {
  std::string Buffer;       ///< recomputed alias-root (gathered windows)
  std::string ProducerTask; ///< forward task label the clone came from
  int ForwardUnit = -1;     ///< producing unit index in Forward
  int BackwardUnit = -1;    ///< index of the inserted clone in Backward
  int ConsumerUnit = -1;    ///< backward unit reading Buffer (> BackwardUnit)
  /// Work re-done per backward pass, counted as one op per re-gathered
  /// element (gathers move data; index arithmetic is the only arithmetic).
  int64_t Flops = 0;
  /// Buffer extent the plan no longer retains across the boundary.
  int64_t Bytes = 0;
};

/// A compiled network.
struct Program {
  int64_t BatchSize = 0;
  std::vector<BufferInfo> Buffers;
  std::vector<IntBufferInfo> IntBuffers;
  ir::StmtPtr Forward;
  ir::StmtPtr Backward;
  /// One label per top-level statement of Forward/Backward, same order.
  std::vector<TaskLabel> ForwardTasks;
  std::vector<TaskLabel> BackwardTasks;
  std::vector<ParamBinding> Params;

  // Well-known buffers (empty when the net has no such ensemble).
  std::string DataBuffer;   ///< primary data ensemble's value
  std::string LabelBuffer;  ///< label ensemble's value
  std::string LossBuffer;   ///< per-item loss, shape {batch}
  std::string ProbBuffer;   ///< softmax probabilities, {batch, classes}

  CompileReport Report;

  /// Buffers the recompute pass rematerializes in backward instead of
  /// retaining (empty when CompileOptions::Recompute is off or nothing
  /// qualified). Consumed by the memory planner, the verifier's
  /// plan.recompute.* checks, the profiler, and the bench harness.
  std::vector<RecomputeInfo> Recomputes;

  /// Arena layout computed by planMemory() at the end of compile().
  /// Plan.Valid is false on hand-built programs; the engine then
  /// allocates eagerly per buffer, and generateCpp rejects them.
  MemoryPlan Plan;

  /// Carried from CompileOptions::Jit: the engine should compile this
  /// program's tasks to native code (src/jit) and dispatch through the
  /// loaded module, falling back per task to the interpreter.
  bool Jit = false;

  /// True for inference-compiled programs (CompileOptions::Inference /
  /// compileForward): Backward is null, gradient/solver buffers are gone
  /// from the buffer table, and Params is empty (nothing to train). The
  /// engine rejects backward() and the verification tooling (gradCheck)
  /// rejects such programs with a diagnostic instead of crashing.
  bool Inference = false;

  const BufferInfo *findBuffer(const std::string &Name) const {
    for (const BufferInfo &B : Buffers)
      if (B.Name == Name)
        return &B;
    return nullptr;
  }
  const IntBufferInfo *findIntBuffer(const std::string &Name) const {
    for (const IntBufferInfo &B : IntBuffers)
      if (B.Name == Name)
        return &B;
    return nullptr;
  }
  /// Deep copy (the IR statement trees are unique_ptrs, so Program is
  /// move-only; the serving layer's compile cache hands out clones so N
  /// executor replicas can each own a program compiled exactly once).
  Program clone() const {
    Program P;
    P.BatchSize = BatchSize;
    P.Buffers = Buffers;
    P.IntBuffers = IntBuffers;
    P.Forward = Forward ? Forward->clone() : nullptr;
    P.Backward = Backward ? Backward->clone() : nullptr;
    P.ForwardTasks = ForwardTasks;
    P.BackwardTasks = BackwardTasks;
    P.Params = Params;
    P.DataBuffer = DataBuffer;
    P.LabelBuffer = LabelBuffer;
    P.LossBuffer = LossBuffer;
    P.ProbBuffer = ProbBuffer;
    P.Report = Report;
    P.Recomputes = Recomputes;
    P.Plan = Plan;
    P.Jit = Jit;
    P.Inference = Inference;
    return P;
  }

  /// Follows \p Name's AliasOf chain to the storage-owning root buffer.
  /// Returns nullptr when \p Name is unknown; a dangling or cyclic chain
  /// (the verifier's buffer.alias diagnostics) stops at the last
  /// resolvable link. The single home of alias semantics — the engine,
  /// the code generator, and the analyses all resolve through here.
  const BufferInfo *resolveAlias(const std::string &Name) const {
    const BufferInfo *Cur = findBuffer(Name);
    size_t Hops = 0;
    while (Cur && !Cur->AliasOf.empty() && Hops++ <= Buffers.size()) {
      const BufferInfo *Next = findBuffer(Cur->AliasOf);
      if (!Next)
        break;
      Cur = Next;
    }
    return Cur;
  }
};

/// Optimization switches (each level of the Figure 13 ablation flips a
/// subset).
struct CompileOptions {
  bool PatternMatchGemm = true; ///< MAC loop nests -> sgemm (§5.4.1)
  bool PatternMatchKernels = true; ///< pooling / activation kernels
  bool Tiling = true;              ///< loop tiling (§5.4.1)
  bool Fusion = true;              ///< cross-layer fusion (§5.4.2)
  bool Parallelize = true;         ///< batch x tile parallel loops (§5.4.3)
  /// Rematerialize pure-gather buffers in backward instead of retaining
  /// them across the forward/backward boundary (compiler/recompute.h) —
  /// the sublinear-memory trade: less arena, a re-gather per backward.
  bool Recompute = true;
  /// Execute tasks through the in-process JIT backend (src/jit): generated
  /// loop nests compiled to a shared object, kernels still dispatched into
  /// the engine, per-task interpreter fallback. The top bit of the
  /// verification lattice (verify::kJitMask). Off by default — purely a
  /// steady-state speed lever, bitwise-identical results either way.
  bool Jit = false;
  /// Inference mode (compileForward): assemble the forward program only,
  /// then strip everything backward-owned — backward tasks, gradient and
  /// solver buffers, backward-only index tables, parameter bindings. The
  /// forward IR is assembled by the identical pipeline BEFORE stripping,
  /// so inference forward outputs are bitwise identical to training-mode
  /// forward under the same switches; the memory plan covers forward-only
  /// live ranges, shrinking the per-replica serving arena. Recompute is
  /// vacuous without a backward program and is skipped.
  bool Inference = false;
  int64_t TileSize = 8;      ///< target tile extent along y
  /// Cost-model threshold: layers whose spatial row extent is below this
  /// are left untiled (the paper's §7.1.2 observation — tiling loses its
  /// benefit once the data fits in cache, and splitting library-kernel
  /// calls then only adds overhead).
  int64_t MinRowsToTile = 32;
  /// Run analyze::verifyProgram on the assembled program after every
  /// compile() — and therefore after every compileStaged() stage — and
  /// abort on Error diagnostics (LLVM's -verify-each discipline). Defaults
  /// on in debug builds and CI, off in release; the environment variable
  /// LATTE_VERIFY_EACH=1/0 overrides in either direction.
#ifdef NDEBUG
  bool VerifyEach = false;
#else
  bool VerifyEach = true;
#endif
};

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_PROGRAM_H
