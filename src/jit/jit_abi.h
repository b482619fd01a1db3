//===- jit/jit_abi.h - C ABI between engine and JITted tasks ---*- C++ -*-===//
///
/// \file
/// The stable C ABI shared by the engine and the shared objects the JIT
/// backend compiles at runtime. A generated task entry point has the
/// signature `extern "C" void latte_task_<pass><index>(LatteJitCtx *)`;
/// the context carries the executor's alias-resolved buffer pointers (the
/// same arena or eager storage the interpreter reads), the per-pass
/// parallelism switch, and one callback — the kernel trampoline — through
/// which generated code re-enters engine::Executor::execKernelResolved.
///
/// Routing kernel calls back through the engine is what makes JIT-on vs
/// interpreter comparisons BITWISE identical: the exact same kernel
/// functions run in the exact same order, and only the loop-nest /
/// dispatch scaffolding around them is compiled instead of interpreted
/// (plus the shape-specialized clones of data-movement kernels, which
/// reproduce the library loops). The standalone program
/// (compiler::generateCpp) is the same generated code with its own
/// context: static storage, and a trampoline into kernel bodies of its
/// own.
///
/// The struct definition exists once: the macro below expands into the
/// host-side type AND is stringified into the generated translation unit,
/// so the two sides cannot drift. Bump kLatteJitAbiVersion whenever the
/// member list, the trampoline signature, or the ir::KernelKind numbering
/// changes — the version is baked into the content hash and checked after
/// dlopen, so stale cached objects are recompiled instead of misdispatched.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_JIT_JIT_ABI_H
#define LATTE_JIT_JIT_ABI_H

#include "ir/stmt.h"

#include <cstdint>
#include <string>

/// One definition of the context members, usable both as C++ and as text.
/// No top-level commas outside parentheses (stringification would split).
#define LATTE_JIT_CTX_MEMBERS                                                 \
  /* opaque engine::Executor, passed back through the trampoline */           \
  void *self;                                                                 \
  /* per Program::Buffers index: alias-resolved storage pointers */           \
  float **bufs;                                                               \
  /* per Program::IntBuffers index: index tables and pooling masks */         \
  int32_t **ibufs;                                                            \
  /* nonzero = honor parallel loop annotations (per-pass, engine-set) */      \
  int64_t par;                                                                 \
  /* kernel trampoline: re-enters the engine's resolved kernel dispatch */    \
  void (*kernel)(void *self, int64_t kind, float **fb, int32_t **ib,          \
                 const int64_t *ia, const double *fa, const int64_t *ea);

struct LatteJitCtx {
  LATTE_JIT_CTX_MEMBERS
};

namespace latte {
namespace jit {

/// Bump on any change to LatteJitCtx, the trampoline signature, or the
/// ir::KernelKind numbering (generated code embeds kind values as ints).
constexpr int64_t kLatteJitAbiVersion = 1;

/// Upper bounds of the resolved-argument arrays the trampoline carries
/// (SoftmaxLossFwd takes four buffers; no kernel takes more than two
/// evaluated index expressions).
constexpr int kMaxKernelBufs = 4;
constexpr int kMaxKernelExprArgs = 2;

#define LATTE_JIT_STRINGIFY_IMPL(...) #__VA_ARGS__
#define LATTE_JIT_STRINGIFY(...) LATTE_JIT_STRINGIFY_IMPL(__VA_ARGS__)

/// The struct definition as source text for the generated translation
/// unit — same macro expansion as the host-side type above.
inline std::string ctxStructSource() {
  return std::string("struct LatteJitCtx { ") +
         LATTE_JIT_STRINGIFY(LATTE_JIT_CTX_MEMBERS) + " };\n";
}

#undef LATTE_JIT_STRINGIFY
#undef LATTE_JIT_STRINGIFY_IMPL

/// Bitmask of kernel buffer-argument positions that are int32 buffers
/// (index tables / pooling masks) rather than float buffers. The code
/// generator and the engine's resolved dispatch must agree on this split.
inline uint32_t kernelIntBufMask(ir::KernelKind K) {
  switch (K) {
  case ir::KernelKind::Gather2D:
  case ir::KernelKind::ScatterAdd2D:
  case ir::KernelKind::MaxPoolFwdRows:
  case ir::KernelKind::MaxPoolBwdRows:
    return 1u << 2; // bufs[2] is the index table / argmax mask
  default:
    return 0;
  }
}

} // namespace jit
} // namespace latte

#endif // LATTE_JIT_JIT_ABI_H
