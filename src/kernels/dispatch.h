//===- kernels/dispatch.h - The one kernel dispatch ------------*- C++ -*-===//
///
/// \file
/// Runs one compiled kernel call (an ir::KernelKind over resolved
/// arguments) on the library kernels of this directory. Every backend runs
/// its kernels through this one function: the interpreter
/// (engine::Executor::execKernel) calls it, the engine plants it as the
/// JIT's kernel trampoline (LatteJitCtx::kernel, jit/jit_abi.h), and the
/// standalone program (compiler::generateCpp) plants it too and links
/// liblatte.a. The three backends therefore run the same kernel code in
/// the same order, which is what keeps them bitwise equal. No kernel keeps
/// state between calls: each is a function of its arguments and buffers.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_KERNELS_DISPATCH_H
#define LATTE_KERNELS_DISPATCH_H

#include <cstdint>

namespace latte {
namespace kernels {

/// Runs kernel \p Kind (an ir::KernelKind; argument layouts in
/// ir/stmt.h). \p FB / \p IB are the float / int32 buffer pointers by
/// argument position (ir::kernelIntBufMask decides which side each
/// position uses), \p IA the static int args, \p FA the static float args
/// and \p EA the evaluated index-expression args. The signature is
/// LatteJitCtx::kernel's, so this function is the trampoline itself. A
/// softmax-loss label outside [0, Classes), or NaN, is a fatal error.
void dispatch(int64_t Kind, float **FB, int32_t **IB, const int64_t *IA,
              const double *FA, const int64_t *EA);

} // namespace kernels
} // namespace latte

#endif // LATTE_KERNELS_DISPATCH_H
