//===- support/trace_json.h - Profiler JSON exporters ---------*- C++ -*-===//
///
/// \file
/// Exporters over the profiling layer (support/profile.h):
///
///  - Chrome `trace_event` JSON — the "JSON Array with metadata" flavour:
///    `{"traceEvents": [...]}` with one complete ("ph":"X") event per
///    recorded span. Load the file in chrome://tracing or
///    https://ui.perfetto.dev to see the per-task / per-pass timeline,
///    one track per recording thread.
///
///  - a compact machine-readable summary (per-(phase,name) span aggregates
///    and per-phase counters), which the bench harness copies into every
///    `BENCH_<fig>.json` (spans as "tasks"); the regression gate
///    (bench/compare) does not read it.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SUPPORT_TRACE_JSON_H
#define LATTE_SUPPORT_TRACE_JSON_H

#include "support/json.h"
#include "support/profile.h"

#include <string>

namespace latte {
namespace prof {

/// Builds the Chrome trace_event document from every span recorded so far.
json::Value chromeTrace(const Profiler &P = Profiler::get());

/// Builds the aggregate summary document: {"spans": [...], "counters":
/// {phase: {...}}, "totals": {...}}.
json::Value summaryJson(const Profiler &P = Profiler::get());

/// Serializes the counter set as an object keyed by counterName().
json::Value countersJson(const CounterSet &C);

/// Writes \p Doc to \p Path pretty-printed. Returns false (and fills
/// \p Err) on I/O failure.
bool writeJsonFile(const std::string &Path, const json::Value &Doc,
                   std::string *Err = nullptr);

/// Convenience: chromeTrace() to a file (the `--trace out.json` path).
bool writeChromeTrace(const std::string &Path, std::string *Err = nullptr);

} // namespace prof
} // namespace latte

#endif // LATTE_SUPPORT_TRACE_JSON_H
