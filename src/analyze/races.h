//===- analyze/races.h - Static race detection ------------------*- C++ -*-===//
///
/// \file
/// Intersects the buffer-effect footprints of a Parallelize-annotated task
/// unit across *distinct* iterations of its collapsed batch×tile space. Two
/// accesses conflict when some pair of different iteration points touches a
/// common element and at least one access writes. Conflicts are reported as
/// structured diagnostics:
///
///   - `race.write-write` / `race.read-write` (Error): a proven conflict
///     between exact footprints — the parallel schedule is unsound.
///   - `race.possible` (Warning): the conflict involves a conservative
///     (inexact) footprint or the feasibility search exceeded its budget,
///     so the analysis cannot prove the unit race-free.
///
/// A cross-iteration `+=` is a race like any other write: the engine, the
/// JIT and the emitter all run Parallel loops in parallel, backward
/// included. Synchronized parameter-gradient accumulation stays race-free
/// because compiler/gradpart.h partitions it by output row (or leaves the
/// loop serial); lossy summation exists only across data-parallel workers
/// (runtime/data_parallel.h), outside any one program.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_ANALYZE_RACES_H
#define LATTE_ANALYZE_RACES_H

#include "analyze/diagnostics.h"
#include "analyze/effects.h"

#include <string>

namespace latte {
namespace analyze {

/// Checks one parallel loop's effects for cross-iteration conflicts and
/// appends race.* diagnostics to \p Diags; \p TaskLabel tags them. A loop
/// with no parallel dimensions never conflicts with itself.
void detectRaces(const UnitEffects &UE, const std::string &TaskLabel,
                 DiagnosticReport &Diags);

} // namespace analyze
} // namespace latte

#endif // LATTE_ANALYZE_RACES_H
