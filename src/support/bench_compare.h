//===- support/bench_compare.h - Bench JSON regression diff ---*- C++ -*-===//
///
/// \file
/// Compares two `BENCH_<fig>.json` files (the schema bench/harness.h
/// emits) and classifies each timing row as ok / regressed / improved
/// against a ratio threshold. This is the library behind the
/// `bench/compare` CLI that gates CI perf regressions; it lives in
/// support/ so the unit tests can exercise the classification logic
/// without spawning the binary.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SUPPORT_BENCH_COMPARE_H
#define LATTE_SUPPORT_BENCH_COMPARE_H

#include "support/json.h"

#include <string>
#include <vector>

namespace latte {
namespace bench {

/// One compared metric (a row label + which of fwd/bwd/total/arena).
struct MetricDelta {
  std::string Label;
  std::string Metric;  ///< "fwd_sec", "bwd_sec", "total_sec", or
                       ///< "arena_bytes" (OldSec/NewSec then hold bytes)
  double OldSec = 0;
  double NewSec = 0;
  double ratio() const { return OldSec > 0 ? NewSec / OldSec : 0; }
};

struct CompareResult {
  std::vector<MetricDelta> Compared;    ///< every metric present in both
  std::vector<MetricDelta> Regressions; ///< new > old * threshold
  std::vector<MetricDelta> Improvements;///< new < old / threshold
  /// Rows named in OnlyRows that either file lacks; each fails the gate.
  std::vector<std::string> MissingRows;
  std::vector<std::string> Notes;       ///< missing rows, figure mismatch
  bool ok() const { return Regressions.empty() && MissingRows.empty(); }
};

/// Compares two parsed bench documents. Rows are matched by "label";
/// a row's "total_sec" (and, when present in both, "fwd_sec"/"bwd_sec")
/// is regressed when `new > old * Threshold` and the absolute delta
/// exceeds \p MinDeltaSec (guards against flagging microsecond noise).
/// Without a row filter, rows present in only one file are reported in
/// Notes, not failed — benchmarks gain rows over time. When both rows
/// carry an "arena_bytes" memory column it is gated too, at a fixed 1.05x
/// ratio (the planned arena is deterministic, so growth past alignment
/// slack is a real planner regression, independent of the timing
/// threshold). A "speedup" column is gated in the opposite direction
/// (higher is better: regressed when `new < old / Threshold`) — the
/// serving bench reports its micro-batching throughput gain this way so
/// the gate is machine-normalized (both sides of the ratio come from the
/// same run on the same host). A "latency_norm" column (p50 seconds x the
/// host's own sequential rps — a dimensionless multiple of the
/// single-request service time) is gated lower-is-better like a timing
/// but, being a same-run ratio, needs no absolute noise floor. When
/// \p OnlyRows is non-null, only rows whose label it contains are
/// compared, and each of them must be present in both files: a named row
/// missing from either side lands in MissingRows and fails the gate (a
/// gate that compares nothing proves nothing). CI uses this to hard-gate
/// one row (the serving throughput floor) at a tight threshold while a
/// second, informational invocation reports everything loosely.
/// \p OnlyMetrics restricts the compared metric names the same way (e.g.
/// gate exactly `latency_norm` on the serve_p50 row while its absolute
/// `total_sec` stays informational elsewhere). When both documents carry a
/// top-level "serve" object, its shed/fallback counters are compared
/// informationally under the pseudo-row label "serve" — drift shows in the
/// report and the CI step summary, but load-dependent counts never gate.
CompareResult compareBenchJson(const json::Value &Old,
                               const json::Value &New, double Threshold,
                               double MinDeltaSec = 1e-4,
                               const std::vector<std::string> *OnlyRows =
                                   nullptr,
                               const std::vector<std::string> *OnlyMetrics =
                                   nullptr);

/// Renders \p R as the human-readable report the CLI prints.
std::string formatCompareReport(const CompareResult &R, double Threshold);

/// Renders \p R as a GitHub-flavored markdown table (every compared
/// metric, with per-row status) for $GITHUB_STEP_SUMMARY.
std::string formatCompareMarkdown(const CompareResult &R, double Threshold);

} // namespace bench
} // namespace latte

#endif // LATTE_SUPPORT_BENCH_COMPARE_H
