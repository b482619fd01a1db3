//===- compiler/rotate.h - Per-item slice rotation -------------*- C++ -*-===//
///
/// \file
/// The slice-rotation pass: sub-unit memory folding for fused chains. A
/// fused chain runs as one batch loop, so all chain-internal buffers share
/// one timeline unit and the liveness planner cannot fold any of them —
/// fig13's fully-fused point saves ~0%. Whether folding *inside* the unit
/// is sound is a static-analysis question: batch iteration n must provably
/// touch only its own item slice. This pass asks the sub-unit effect
/// analysis (analyze::classifySubUnit) exactly that, and shrinks every
/// qualifying buffer from a full-batch allocation {B, ...} to a modular
/// pool of D item slices {D, ...}, rewriting each batch-indexed access
/// from `n` to `n % D` (emitted as the composite `n - D*(n/D)`, which the
/// effect analysis re-recognizes as a bounded pseudo-variable).
///
/// Legality (all proven against analyze::effects, not assumed):
///   * the candidate is an alias root of role Input / GradInput / Scratch —
///     never a Value/Grad/Param/Data buffer, which solvers, the lattice
///     oracle's whole-batch comparisons, or the user observe directly;
///   * it is referenced by exactly one timeline unit (chain-internal: it
///     lives and dies inside the chain), and that unit is a constant-
///     extent batch loop whose variable no inner loop shadows;
///   * classifySubUnit proves it ItemPrivate (iteration n touches only
///     slice [n*S, (n+1)*S)) and ItemFresh (the first access is a covering
///     overwrite), so a reused slice never leaks bytes across items;
///   * every alias member leads with the batch dimension.
///
/// The pool depth D is the chain's intra-item dependence depth (max tiled
/// dependence distance + 1, minimum 2); CompileOptions::RotateSlices
/// raises it. The rewritten loop carries LoopAnnotations::SliceModulus so
/// the executor and the C++ emitter (JIT and standalone) parallelize over
/// slices (items sharing a slice serialize — a memory-for-parallelism
/// trade, which is why CompileOptions::SliceRotation defaults off).
/// Decisions are recorded in Program::Rotations for the
/// verifier's plan.subunit.* cross-checks, the race detector's
/// rotated-root whitelist, and the bench harness. Rotation never changes
/// values: lattice bit 8 proves rotation-on vs rotation-off bitwise
/// identical.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_ROTATE_H
#define LATTE_COMPILER_ROTATE_H

namespace latte {
namespace compiler {

struct Program;
struct CompileOptions;

/// Runs the slice-rotation pass on an assembled program (after
/// stripToInference / recomputeGathers, before planMemory). Mutates the IR
/// of qualifying units, shrinks the rotated buffers' leading dimension,
/// and fills Prog.Rotations; returns the number of buffers rotated.
int rotateSlices(Program &Prog, const CompileOptions &Opts);

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_ROTATE_H
