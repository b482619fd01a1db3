//===- compiler/memplan.h - Liveness-driven memory planning ----*- C++ -*-===//
///
/// \file
/// Static memory planning for compiled programs. The planner computes a
/// live range for every alias-root float buffer over the global task
/// timeline (the forward program's top-level units numbered 0..F-1,
/// followed by the backward units F..F+B-1), then packs the buffers into
/// one arena by best-fit interval allocation: two buffers may share bytes
/// only when their live ranges are disjoint. AliasOf chains are subsumed
/// naturally — every access to an alias member extends the root's range,
/// so a root and its aliases are one interval with zero distance.
///
/// Liveness granularity is the top-level unit (a batch loop covering one
/// fusion group, a pre/post statement, or a barrier). Within a unit the
/// batch/tile loops interleave iterations, so sub-unit staggering is not
/// sound; across units the assembled programs execute strictly in order.
///
/// Classification (decided per alias root, aggregated over members):
///   * Pinned    — live for the whole program: Param and Data roles, the
///                 well-known IO buffers (data/label/loss/prob), roots that
///                 are read before ever being written without a ZeroOn*
///                 covering flag (state carriers), and roots never
///                 referenced by any task (only reachable through
///                 readBuffer/writeBuffer, so nothing may reuse them).
///   * Retained  — must survive to end-of-run: Value and ParamGrad roots
///                 (inspected by solvers, verification and tests after a
///                 run) and any root referenced in both the forward and
///                 the backward program. Allocation-wise retained spans
///                 the whole timeline like pinned (passes replay: a
///                 finite-difference loop re-runs forward() after backward
///                 wrote the parameter gradients, so bytes "free before
///                 first def" are not actually free); the class only
///                 differs in provenance and diagnostics.
///   * Interval  — live [first ref, last ref] only; bytes are reusable
///                 outside that window. Pass-local Grad, GradInput, Input
///                 and Scratch buffers — where the folding savings are.
///
/// Recomputed roots (compiler/recompute.h) are the exception to the
/// both-passes retention rule: their backward reader is fed by a cloned
/// gather that rewrites the whole buffer, so they get TWO disjoint live
/// intervals — [first fwd ref, last fwd ref] and [re-gather, last ref] —
/// and their bytes are reusable in the gap across the forward/backward
/// boundary. That gap is exactly where the sublinear-memory savings come
/// from: N conv layers' im2col buffers stop being retained simultaneously
/// and instead peak one at a time around their backward consumers.
///
/// Zeroing: ZeroOnForward/ZeroOnBackward roots with interval lifetimes are
/// scheduled lazily (cleared immediately before their first referencing
/// unit) so the clear itself does not extend the live range to the top of
/// the pass; pinned/retained roots keep the classic top-of-pass clear.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_MEMPLAN_H
#define LATTE_COMPILER_MEMPLAN_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace latte {
namespace compiler {

struct Program;

/// Live range and placement of one alias-root buffer.
struct BufferLifetime {
  std::string Name;    ///< alias-root buffer name
  int64_t Bytes = 0;   ///< extent in bytes (max over root + alias members)
  int64_t Offset = 0;  ///< assigned arena byte offset
  int FirstRef = -1;   ///< first referencing global unit (-1: never)
  int LastRef = -1;    ///< last referencing global unit (-1: never)
  int LiveBegin = 0;   ///< allocation interval start (inclusive)
  int LiveEnd = 0;     ///< allocation interval end (inclusive)
  /// Second allocation interval of a recomputed root (-1: none): the
  /// backward re-gather through the last reference. Bytes are reusable in
  /// the gap between the two intervals.
  int Live2Begin = -1;
  int Live2End = -1;
  bool Pinned = false;   ///< program-lifetime
  bool Retained = false; ///< live through end-of-run from first reference
  bool Recomputed = false; ///< re-gathered in backward instead of retained

  /// True when either of this root's live intervals covers unit \p G.
  bool liveAt(int G) const {
    return (G >= LiveBegin && G <= LiveEnd) ||
           (Live2Begin >= 0 && G >= Live2Begin && G <= Live2End);
  }

  /// True when any live interval of this root intersects any of \p Other's.
  bool overlapsLifetime(const BufferLifetime &Other) const {
    auto Hits = [](int B1, int E1, int B2, int E2) {
      return B1 <= E2 && B2 <= E1;
    };
    if (Hits(LiveBegin, LiveEnd, Other.LiveBegin, Other.LiveEnd))
      return true;
    if (Live2Begin >= 0 &&
        Hits(Live2Begin, Live2End, Other.LiveBegin, Other.LiveEnd))
      return true;
    if (Other.Live2Begin >= 0 &&
        Hits(LiveBegin, LiveEnd, Other.Live2Begin, Other.Live2End))
      return true;
    return Live2Begin >= 0 && Other.Live2Begin >= 0 &&
           Hits(Live2Begin, Live2End, Other.Live2Begin, Other.Live2End);
  }
  /// True when the assigned byte ranges intersect (zero-size never does).
  bool overlapsBytes(const BufferLifetime &Other) const {
    return Bytes > 0 && Other.Bytes > 0 && Offset < Other.Offset + Other.Bytes &&
           Other.Offset < Offset + Bytes;
  }
};

/// The result of planning: arena size, per-root offsets, live ranges, and
/// the lazy zeroing schedule. Carried on Program; consumed by the engine,
/// the C++ code generator, the verifier, and latte-lint --dump-plan.
struct MemoryPlan {
  /// False for hand-built programs that never went through planMemory (the
  /// engine then falls back to eager per-buffer allocation; generateCpp
  /// rejects them).
  bool Valid = false;
  int64_t Alignment = 64; ///< offset alignment in bytes
  int64_t ArenaBytes = 0; ///< planned arena extent
  int64_t EagerBytes = 0; ///< sum of root extents (the eager footprint)
  /// Arena byte offset per alias-root buffer name. Alias members resolve
  /// through Program::resolveAlias() and share the root's entry.
  std::map<std::string, int64_t> Offsets;
  /// One entry per alias root, in Program::Buffers declaration order.
  std::vector<BufferLifetime> Lifetimes;
  /// Roots to clear immediately before executing global unit G (lazy
  /// zeroing of interval-allocated ZeroOn* buffers).
  std::map<int, std::vector<std::string>> ZeroBefore;
  /// Pinned/retained ZeroOnForward roots: cleared at the top of every
  /// forward pass (classic behavior). Likewise for backward.
  std::vector<std::string> ZeroOnForwardPinned;
  std::vector<std::string> ZeroOnBackwardPinned;
  /// Unit counts behind the global timeline (backward unit i has global
  /// index NumForwardUnits + i).
  int NumForwardUnits = 0;
  int NumBackwardUnits = 0;

  /// Lifetime entry for an alias-root name; nullptr when unknown.
  const BufferLifetime *lifetime(const std::string &Root) const {
    for (const BufferLifetime &L : Lifetimes)
      if (L.Name == Root)
        return &L;
    return nullptr;
  }

  /// True when \p Root's bytes are guaranteed intact after a full run: no
  /// root sharing any of its bytes is referenced after Root's last use.
  /// Pinned and retained roots always qualify. Drives which buffers the
  /// planned-vs-eager differential tests may compare bitwise.
  bool retainedAtExit(const std::string &Root) const;

  /// Human-readable plan dump (deterministic order) for
  /// latte-lint --dump-plan.
  std::string str() const;
};

/// Plans memory for an assembled program. Requires Forward/Backward (when
/// present) to be top-level blocks with effects computable by
/// analyze::collectUnitEffects; runs unconditionally at the end of
/// compile().
MemoryPlan planMemory(const Program &Prog);

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_MEMPLAN_H
