//===- compiler/recompute.h - Sublinear-memory rematerialization -*- C++ -*-===//
///
/// \file
/// The recompute (rematerialization) pass: the classic memory-for-compute
/// trade applied to the gather buffers the Latte compiler materializes for
/// its GEMM lowering. An im2col `inputs0` buffer is written once in forward
/// by a pure gather (Im2ColRows / Gather2D over a static index table) and
/// read again only by the backward weight-gradient GEMM; without this pass
/// the memory planner must retain it across the whole forward/backward
/// boundary — PR-over-PR measurement showed these buffers are the single
/// largest retained class. Re-gathering immediately before the backward
/// consumer turns them into two short-lived interval buffers the arena can
/// fold, at the cost of one extra data movement per element per backward
/// pass.
///
/// Legality (all proven against analyze::effects, not assumed):
///   * the candidate is an Input-role alias root with no alias members,
///     referenced by exactly one forward unit (the producer) and exactly
///     one backward unit (the consumer), read-only in backward;
///   * every write to the candidate inside the producer comes from a
///     whitelisted pure-gather kernel (isRecomputableKernel) — value+mask
///     writers (MaxPoolFwdRows) never qualify;
///   * every float buffer the pruned clone reads is a Value/Data root
///     (retained/pinned by the planner, so the re-gather sees bitwise the
///     bytes forward saw) and is not written by any unit between the
///     producer and the insertion point; int tables must be static.
///
/// The pass clones the producer unit, prunes it to the gather statements,
/// and inserts the clone (plus a parallel "recompute[...]" task label)
/// into Program::Backward immediately before the consumer. Decisions are
/// recorded in Program::Recomputes for the planner (two-interval
/// lifetimes), the verifier (plan.recompute.* checks), and the profiler.
/// Recompute never changes values: the differential suite proves
/// recompute-on vs recompute-off bitwise identical.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_RECOMPUTE_H
#define LATTE_COMPILER_RECOMPUTE_H

#include "ir/stmt.h"

namespace latte {
namespace compiler {

struct Program;

/// True for kernels a recompute clone may contain: pure gathers whose only
/// write is the destination buffer and whose output depends only on the
/// source bytes and a static index table. The verifier's
/// plan.recompute.stateful check enforces the same whitelist.
bool isRecomputableKernel(ir::KernelKind K);

/// Runs the rematerialization pass on an assembled program (after
/// assemblePrograms, before planMemory). Mutates Prog.Backward /
/// Prog.BackwardTasks and fills Prog.Recomputes; returns the number of
/// buffers rematerialized.
int recomputeGathers(Program &Prog);

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_RECOMPUTE_H
