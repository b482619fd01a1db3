//===- compiler/codegen_cpp.h - C++ code generation ------------*- C++ -*-===//
///
/// \file
/// The code-generation phase (§5.5): one emitter prints a compiled
/// Program's optimized IR (post pattern-matching / tiling / fusion /
/// parallelization) as C++, with an OpenMP `parallel for
/// schedule(static, 1) if (LJ->par != 0)` pragma on each annotated loop
/// (batch × tile flattened into one loop, the paper's `collapse(2)`). Each
/// top-level unit renders with its buffers as slots; units that render to
/// the same text share one `static` class function, and each pass exports
/// an `extern "C"` table of {class function, slot array} entries, one per
/// unit (jit/jit_abi.h). The original system lowered its Julia AST through
/// ParallelAccelerator.jl to C++ compiled by ICC. The translation unit has
/// two uses:
///
///   * generateJitSource: the in-process JIT module (jit::JitModule),
///     whose tasks run the library kernels through the LatteJitCtx
///     trampoline, kernels::dispatch;
///   * generateCpp: the same translation unit plus a driver — the memory
///     plan's static arena, buffer tables, the same kernels::dispatch, and
///     a `.ltd` file main that runs the task tables. Built with the JIT's
///     flags and linked against liblatte.a, it equals the engine bitwise,
///     which the codegen tests check.
///
/// Emission is a deterministic function of the Program: no timestamps, no
/// pointer-keyed iteration, classes numbered in first-use order, symbol
/// names derived from unit position only. generateJitSource additionally
/// serves as a content-hash cache key (jit::hashSource), so byte-stability
/// across emissions of the same program is load-bearing, not cosmetic —
/// codegen_test pins it.
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
/// begins with generateJitSource's translation unit. It includes
/// kernels/dispatch.h: build it with `-I src`, jit::compileFlags(false)
/// and the library's sanitizer and OpenMP flags, and link liblatte.a.
/// \p Prog must carry a memory plan (compile() always plans); malformed
/// .ltd input makes the program exit 1, and a softmax-loss label outside
/// [0, Classes) makes it abort.
std::string generateCpp(const Program &Prog);

/// Writes generateCpp(Prog) to \p Path. Returns false on I/O failure,
/// a failed final flush included.
bool writeGeneratedProgram(const Program &Prog, const std::string &Path);

/// One top-level unit of a pass in the JIT translation unit.
struct JitTaskInfo {
  /// The unit's class function (`latte_class_<Class>`), in [0, Classes).
  int Class = -1;
};

/// A translation unit for the in-process JIT (jit::JitModule), with one
/// entry per unit of each pass — parallel to the module's task tables,
/// which the engine indexes by unit position.
struct JitSource {
  std::string Source;
  std::vector<JitTaskInfo> Forward;
  std::vector<JitTaskInfo> Backward;
  /// Distinct class functions the source defines.
  int Classes = 0;
};

/// Renders \p Prog as a JIT translation unit: a class function per
/// distinct unit body and a task table per pass, reading buffer storage
/// through the LatteJitCtx and calling every kernel through its trampoline
/// (jit/jit_abi.h). The engine owns the
/// storage and plants the interpreter's kernels::dispatch as the
/// trampoline, which is what makes JIT-on vs interpreted execution bitwise
/// identical: the same kernel functions run in the same order either way.
/// A kernel call with more arguments than the ABI carries is a fatal error
/// (the verifier's kernel.arity check keeps every verified program inside
/// it).
JitSource generateJitSource(const Program &Prog);

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_CODEGEN_CPP_H
