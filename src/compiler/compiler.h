//===- compiler/compiler.h - The Latte compiler driver ---------*- C++ -*-===//
///
/// \file
/// Entry point of the Latte compiler (§5): analysis -> synthesis ->
/// optimization -> program assembly. The result is executed by
/// engine::Executor or printed as standalone C++ by codegen_cpp.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_COMPILER_H
#define LATTE_COMPILER_COMPILER_H

#include "compiler/program.h"
#include "core/graph.h"

#include <string>
#include <vector>

namespace latte {
namespace compiler {

/// Compiles \p Net into an executable Program under \p Opts. Fatal error on
/// unsupported constructs (non-recurrent cycles, unknown field references).
Program compile(const core::Net &Net, const CompileOptions &Opts = {});

/// Inference-mode compilation: compile() with CompileOptions::Inference
/// forced on. The result has no backward program, no gradient or solver
/// buffers, and a forward-only memory plan (a strictly smaller arena than
/// the training compile of the same net); its forward outputs are bitwise
/// identical to the training program's forward pass under the same
/// optimization switches. This is what the serving runtime (src/serve)
/// executes per replica.
Program compileForward(const core::Net &Net, CompileOptions Opts = {});

/// One snapshot of the optimization pipeline: the program as it stands with
/// only the switches up to (and including) this stage enabled. Compilation
/// is deterministic, so executing successive stages localizes which pass
/// first introduces a divergence (verify::localizeDivergence drives this).
struct PassStage {
  std::string Name;    ///< "baseline", "+gemm", "+kernels", "+tiling", ...
  CompileOptions Opts; ///< the cumulative switch set of this stage
  Program Prog;        ///< full compilation result under Opts
  std::string ForwardIR;  ///< printed forward program (debugging aid)
  std::string BackwardIR; ///< printed backward program
  double CompileSec = 0;  ///< wall time of this stage's compile() call
};

/// Compiles \p Net once per pipeline stage, cumulatively enabling the
/// optimization switches that are on in \p Opts (canonical order: GEMM
/// pattern matching, kernel pattern matching, tiling, fusion,
/// parallelization, recompute). The first stage is always the
/// fully-unoptimized baseline; the last equals compile(Net, Opts).
/// Switches disabled in \p Opts contribute no stage; Jit is not a pass
/// and rides along unchanged on every stage.
std::vector<PassStage> compileStaged(const core::Net &Net,
                                     const CompileOptions &Opts = {});

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_COMPILER_H
