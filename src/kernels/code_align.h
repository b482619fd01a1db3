//===- kernels/code_align.h - Kernel code alignment ------------*- C++ -*-===//
///
/// \file
/// LATTE_KERNEL_ALIGN starts a function at 0 mod 64. Every function in
/// gemm.cpp, im2col.cpp and pooling.cpp carries it, so an edit elsewhere in
/// the library cannot shift the hot kernels within a cache line: at the
/// default 16-byte alignment such shifts moved `train_alexnet` and
/// `serve_vgg3` throughput by about 5% (EXPERIMENTS.md, "Operands read in
/// place"). The ctest `kernel_code_alignment` checks the entry points.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_KERNELS_CODE_ALIGN_H
#define LATTE_KERNELS_CODE_ALIGN_H

#define LATTE_KERNEL_ALIGN __attribute__((aligned(64)))

#endif // LATTE_KERNELS_CODE_ALIGN_H
