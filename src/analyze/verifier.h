//===- analyze/verifier.h - Static program verifier -------------*- C++ -*-===//
///
/// \file
/// The static counterpart of the dynamic optimization-lattice oracle
/// (verify/lattice.h): proves structural invariants of an assembled
/// compiler::Program without running it, in the spirit of LLVM's
/// -verify-each pass verification.
///
/// Checked invariants (diagnostic codes in parentheses):
///   - buffer table sanity: duplicate names, positive shapes, alias chains
///     resolve acyclically to a same-sized root (buffer.duplicate,
///     buffer.shape, buffer.alias)
///   - parameter bindings reference existing Param/ParamGrad buffers of
///     equal element count (program.param-bindings)
///   - task labels stay parallel to the assembled units, and barrier units
///     pair with "barrier:" labels — the release-mode promotion of the
///     assert in compiler/passes.cpp (program.task-labels)
///   - fusion groups in the report correspond to an assembled task
///     (program.fusion-groups)
///   - loop-nest well-formedness: non-negative extents, collapse(2) only on
///     a parallel batch loop whose body is a single tiled loop (ir.loop)
///   - defined-before-use of loop variables and float locals (ir.var-use),
///     integer-evaluable index/bound expressions (ir.index-type)
///   - loads/stores/kernels reference known buffers of the right kind with
///     matching index rank (ir.unknown-buffer, ir.index-rank)
///   - kernel calls match the runtime argument layout (kernel.arity)
///   - barriers only appear between top-level units (ir.barrier-placement)
///   - every exact effect footprint stays inside its buffer (ir.bounds)
///   - parallel loops are race-free modulo the declared §6 lossy
///     accumulation (race.* — see analyze/races.h), and a parallel loop
///     assigns no float local declared outside it (race.local)
///   - the compiler's arena memory plan, when present: every alias root is
///     placed (plan.offset-missing) with an aligned (plan.align),
///     in-bounds, extent-covering byte range (plan.bounds); no two
///     simultaneously-live roots share bytes (plan.overlap); and — cross-
///     checked against analyze::effects — no unit references a root
///     outside its recorded live range (plan.lifetime, plan.units)
///   - the recompute ledger: every cloned gather sits before its backward
///     consumer and is the first backward reference to the buffer it
///     redefines (plan.recompute.placement), writes nothing else
///     (plan.recompute.purity), and contains only whitelisted pure gather
///     kernels (plan.recompute.stateful)
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_ANALYZE_VERIFIER_H
#define LATTE_ANALYZE_VERIFIER_H

#include "analyze/diagnostics.h"
#include "compiler/program.h"

namespace latte {
namespace analyze {

struct VerifyOptions {
  bool CheckBounds = true; ///< footprint-vs-buffer-extent checking
  bool CheckRaces = true;  ///< cross-iteration conflict detection
};

/// Verifies a compiled program. Never mutates it and never aborts; the
/// caller decides what to do with Errors (compiler::compile aborts under
/// CompileOptions::VerifyEach, latte-lint exits non-zero).
DiagnosticReport verifyProgram(const compiler::Program &Prog,
                               const VerifyOptions &Opts = {});

} // namespace analyze
} // namespace latte

#endif // LATTE_ANALYZE_VERIFIER_H
