//===- compiler/passes.h - Tiling, fusion, parallelization -----*- C++ -*-===//
///
/// \file
/// The optimization pipeline (§5.4): loop tiling over the spatial row
/// dimension (re-instantiating row operations per tile and recording
/// dependence distances), cross-layer fusion of adjacent tiled loops (with
/// producer tile-size scaling, Figures 10-12), parallelization annotations
/// (batch x tile collapse), and final assembly of the forward/backward
/// programs.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_PASSES_H
#define LATTE_COMPILER_PASSES_H

#include "compiler/synthesis.h"

namespace latte {
namespace compiler {

/// Marks a batch loop data-parallel across items (§5.4.3), collapsed with
/// its tile loop when the body is a single tiled loop.
void annotateBatchLoop(ir::ForStmt &Loop);

/// Runs the optimization pipeline over the synthesized tasks and fills
/// Prog.Forward / Prog.Backward (and the fusion/tiling report fields).
void assemblePrograms(SynthesisResult Tasks, const CompileOptions &Opts,
                      Program &Prog);

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_PASSES_H
