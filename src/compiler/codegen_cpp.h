//===- compiler/codegen_cpp.h - C++ code generation ------------*- C++ -*-===//
///
/// \file
/// The code-generation phase (§5.5): one emitter prints a compiled
/// Program's optimized IR (post pattern-matching / tiling / fusion /
/// parallelization) as C++ — one `extern "C"` task
/// function per top-level unit, with OpenMP `parallel for
/// schedule(static, 1)` pragmas on annotated loops (batch × tile flattened
/// into one loop, the paper's `collapse(2)`). The original system lowered
/// its Julia AST through ParallelAccelerator.jl to C++ compiled by ICC.
/// The translation unit has two uses:
///
///   * generateJitSource: the in-process JIT module (jit::JitModule),
///     whose tasks re-enter the engine's kernels through the LatteJitCtx
///     trampoline (jit/jit_abi.h);
///   * generateCpp: the same translation unit, every unit emitted, plus a
///     driver — the memory plan's static arena, buffer tables, kernel
///     bodies behind the trampoline, and a `.ltd` file main — so tests
///     compile it with the host compiler and check it against the engine.
///
/// Emission is a deterministic function of the Program: no timestamps, no
/// pointer-keyed iteration, symbol names derived from unit position only.
/// generateJitSource additionally serves as a content-hash cache key
/// (jit::hashSource), so byte-stability across emissions of the same
/// program is load-bearing, not cosmetic — codegen_test pins it.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_CODEGEN_CPP_H
#define LATTE_COMPILER_CODEGEN_CPP_H

#include "compiler/program.h"

#include <string>
#include <vector>

namespace latte {
namespace compiler {

/// Renders \p Prog as a complete C++17 translation unit with a main()
/// driver: `./prog <input.ltd> <output.ltd> [fwd|fwdbwd]`. The source
/// begins with generateJitSource's translation unit whenever the JIT
/// declines no unit. \p Prog must carry a memory plan (compile() always
/// plans); malformed .ltd input makes the program exit 1.
std::string generateCpp(const Program &Prog);

/// Writes generateCpp(Prog) to \p Path. Returns false on I/O failure.
bool writeGeneratedProgram(const Program &Prog, const std::string &Path);

/// One top-level unit of a pass in the JIT translation unit.
struct JitTaskInfo {
  /// Generated entry point ("latte_task_f3") — empty when not jittable.
  std::string Symbol;
  /// False when the unit needs the interpreter (dropout draws from the
  /// engine's RNG).
  bool Jittable = false;
};

/// A translation unit for the in-process JIT (jit::JitModule) plus the
/// per-unit dispatch tables the engine indexes by unit position.
struct JitSource {
  std::string Source;
  std::vector<JitTaskInfo> Forward;
  std::vector<JitTaskInfo> Backward;
};

/// Renders \p Prog as a JIT translation unit: one `extern "C"` function
/// per jittable top-level unit, reading buffer storage through the
/// LatteJitCtx and calling kernels through its trampoline (jit/jit_abi.h),
/// except for the shape-specialized clones of data-movement kernels. The
/// engine owns the storage and the trampoline lands in its kernels, which
/// is what makes JIT-on vs interpreted execution bitwise identical: the
/// same kernel functions run in the same order either way.
JitSource generateJitSource(const Program &Prog);

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_CODEGEN_CPP_H
