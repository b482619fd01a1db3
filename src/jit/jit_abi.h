//===- jit/jit_abi.h - C ABI between engine and JITted tasks ---*- C++ -*-===//
///
/// \file
/// The stable C ABI shared by the engine and the shared objects the JIT
/// backend compiles at runtime. A module exports one task table per pass
/// (kForwardTasksSymbol, kBackwardTasksSymbol): a `LatteJitTask` per
/// top-level unit in program order, then a null entry. An entry pairs a
/// class function — the unit's loop nest with its buffers as slots, shared
/// by every unit that renders to the same code — with the unit's slot
/// array of Program buffer indices; the engine runs a unit as
/// `T.fn(&Ctx, T.slots)`. The context carries the executor's
/// alias-resolved buffer pointers (the same arena or eager storage the
/// interpreter reads), the per-pass parallelism switch, and one callback —
/// the kernel trampoline, kernels::dispatch — through which generated code
/// runs the library kernels.
///
/// Routing every kernel call through the interpreter's own dispatch is
/// what makes JIT-on vs interpreter comparisons BITWISE identical: the
/// exact same kernel functions run in the exact same order, and only the
/// loop-nest / dispatch scaffolding around them is compiled instead of
/// interpreted. The standalone program (compiler::generateCpp) is the same
/// generated code with its own context: static storage and the same
/// kernels::dispatch, linked from liblatte.a.
///
/// Each struct definition exists once: the macros below expand into the
/// host-side types AND are stringified into the generated translation
/// unit, so the two sides cannot drift. Bump kLatteJitAbiVersion whenever
/// a member list, the trampoline or class-function signature, the table
/// layout, or the ir::KernelKind numbering changes — the version is baked
/// into the content hash and checked after dlopen, so stale cached objects
/// are recompiled instead of misdispatched.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_JIT_JIT_ABI_H
#define LATTE_JIT_JIT_ABI_H

#include <cstdint>
#include <string>

/// One definition of the context members, usable both as C++ and as text.
/// No top-level commas outside parentheses (stringification would split).
#define LATTE_JIT_CTX_MEMBERS                                                 \
  /* per Program::Buffers index: alias-resolved storage pointers */           \
  float **bufs;                                                               \
  /* per Program::IntBuffers index: index tables and pooling masks */         \
  int32_t **ibufs;                                                            \
  /* nonzero = honor parallel loop annotations (per-pass, engine-set) */      \
  int64_t par;                                                                 \
  /* kernel trampoline: latte::kernels::dispatch (kernels/dispatch.h) */      \
  void (*kernel)(int64_t kind, float **fb, int32_t **ib, const int64_t *ia,   \
                 const double *fa, const int64_t *ea);

struct LatteJitCtx {
  LATTE_JIT_CTX_MEMBERS
};

/// One definition of a task-table entry, usable both as C++ and as text.
#define LATTE_JIT_TASK_MEMBERS                                                \
  /* the unit's class function; null ends the table */                        \
  void (*fn)(LatteJitCtx *ctx, const int32_t *slots);                         \
  /* per slot: a Program::Buffers or Program::IntBuffers index, as the */     \
  /* class function reads it (null when the unit touches no buffer) */        \
  const int32_t *slots;

struct LatteJitTask {
  LATTE_JIT_TASK_MEMBERS
};

namespace latte {
namespace jit {

/// Bump on any change to LatteJitCtx, LatteJitTask, the trampoline or
/// class-function signature, the table symbols, or the ir::KernelKind
/// numbering (generated code embeds kind values as ints).
constexpr int64_t kLatteJitAbiVersion = 3;

/// The exported per-pass task tables.
constexpr const char *kForwardTasksSymbol = "latte_forward_tasks";
constexpr const char *kBackwardTasksSymbol = "latte_backward_tasks";

/// Upper bounds of the resolved-argument arrays the trampoline carries
/// (SoftmaxLossFwd takes four buffers; no kernel takes more than two
/// evaluated index expressions).
constexpr int kMaxKernelBufs = 4;
constexpr int kMaxKernelExprArgs = 2;

#define LATTE_JIT_STRINGIFY_IMPL(...) #__VA_ARGS__
#define LATTE_JIT_STRINGIFY(...) LATTE_JIT_STRINGIFY_IMPL(__VA_ARGS__)

/// The struct definitions as source text for the generated translation
/// unit — same macro expansions as the host-side types above.
inline std::string abiStructSource() {
  return std::string("struct LatteJitCtx { ") +
         LATTE_JIT_STRINGIFY(LATTE_JIT_CTX_MEMBERS) + " };\n" +
         "struct LatteJitTask { " +
         LATTE_JIT_STRINGIFY(LATTE_JIT_TASK_MEMBERS) + " };\n";
}

#undef LATTE_JIT_STRINGIFY
#undef LATTE_JIT_STRINGIFY_IMPL

} // namespace jit
} // namespace latte

#endif // LATTE_JIT_JIT_ABI_H
