//===- perfbench/common.h - Shared pieces of the benchmark binary -------===//
///
/// \file
/// Everything the three workloads share: the metric table (the contract
/// with BENCHMARK.json), seeded input pools and arrival schedules, order
/// statistics, the span log the traced run records around public calls,
/// the open-loop request generator, and the result every workload fills.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_PERFBENCH_COMMON_H
#define LATTE_PERFBENCH_COMMON_H

#include "serve/batcher.h"
#include "support/json.h"
#include "support/tensor.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

namespace perfbench {

namespace json = latte::json;
using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

// --- metric table ----------------------------------------------------------

struct MetricDef {
  const char *Name;
  const char *Unit;
  bool PerLayer; ///< emitted by the traced run (else by untraced runs)
};

/// Every metric the binary emits, in BENCHMARK.json order. Untraced runs
/// emit exactly the end-to-end rows, traced runs exactly the per-layer
/// rows, on every workload (a layer a workload bypasses reads 0).
const std::vector<MetricDef> &metricTable();

// --- run configuration and result ------------------------------------------

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false; ///< one cold setup, then exit (no timed work)
  std::string TraceOut;   ///< Chrome-trace file for the traced run's spans
};

struct RunResult {
  double SetupSec = 0;
  json::Value Metrics = json::Value::object(); ///< name -> number
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> CheckFailures; ///< empty = outputs correct
  json::Value Record = json::Value::object(); ///< host/config record

  void set(const std::string &Name, double V) { Metrics.set(Name, V); }
  void check(bool Ok, const std::string &What) {
    if (!Ok)
      CheckFailures.push_back(What);
  }
};

using WorkloadFn = RunResult (*)(const RunConfig &);
RunResult runTrainAlexnet(const RunConfig &C);
RunResult runTrainSeq(const RunConfig &C);
RunResult runServeVgg3(const RunConfig &C);

/// Sets every per-layer metric a workload does not measure to 0, so each
/// traced run emits the full per-layer table.
void zeroMissingPerLayer(RunResult &R);

// --- seeded inputs -----------------------------------------------------------

/// Independent stream for (seed, purpose): the benchmark derives every
/// input from the run seed through this, never from the clock.
uint64_t subSeed(uint64_t Seed, uint64_t Purpose);

/// \p N Gaussian tensors of shape \p Dims.
std::vector<latte::Tensor> inputPool(const latte::Shape &Dims, int N,
                                     uint64_t Seed);
/// \p N label tensors of shape {Batch, 1}, uniform over [0, Classes).
std::vector<latte::Tensor> labelPool(int64_t Batch, int64_t Classes, int N,
                                     uint64_t Seed);

/// One request of the open-loop schedule.
struct Arrival {
  double DueSec = 0; ///< offset from the schedule start
  latte::serve::Priority Pri = latte::serve::Priority::Standard;
  int PoolIndex = 0;
};

/// \p N Poisson arrivals at \p RatePerSec, classes Interactive:Standard:
/// Bulk = 1:2:1, inputs drawn from a pool of \p PoolSize.
std::vector<Arrival> arrivalSchedule(uint64_t Seed, double RatePerSec,
                                     int64_t N, int PoolSize);

// --- order statistics --------------------------------------------------------

/// Nearest-rank percentile (P in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}
double sum(const std::vector<double> &V);

// --- spans -------------------------------------------------------------------

/// One timed call into a layer's public API, recorded from outside.
struct Span {
  std::string Name;
  int64_t Id = 0;      ///< request id (serving) or step index (training)
  int64_t Parent = -1; ///< index of the enclosing span in the same log
  Clock::time_point Start;
  double Sec = 0;
};

/// Spans of one thread, kept in memory and written out when the run ends.
/// Disabled logs record nothing, so the untraced runs pay one branch.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  /// Opens a span; returns its index for close() and for children's
  /// Parent (-1 when disabled).
  int64_t open(const char *Name, int64_t Id, int64_t Parent = -1);
  void close(int64_t Index);
  /// Records an already measured interval.
  void add(const char *Name, int64_t Id, Clock::time_point Start,
           Clock::time_point End, int64_t Parent = -1);

  /// Durations in seconds of every span named \p Name.
  std::vector<double> durations(const std::string &Name) const;
  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  std::vector<Span> Spans;
};

/// Times \p Fn, recording it as span \p Name when \p Log is enabled.
/// Returns the wall seconds either way.
template <class Fn>
double timed(SpanLog &Log, const char *Name, int64_t Id, int64_t Parent,
             Fn &&F) {
  Clock::time_point T0 = Clock::now();
  F();
  Clock::time_point T1 = Clock::now();
  Log.add(Name, Id, T0, T1, Parent);
  return secondsBetween(T0, T1);
}

/// Writes the logs as a Chrome trace (one tid per log). False on I/O error.
bool writeSpans(const std::string &Path,
                const std::vector<const SpanLog *> &Logs,
                Clock::time_point Epoch, std::string *Err);

// --- open-loop generator -----------------------------------------------------

struct OpenLoopResult {
  std::vector<double> LatencySec; ///< completion - due, Ok responses only
  std::vector<double> LateSec;    ///< send - due, every arrival
  std::vector<double> SubmitSec;  ///< wall of each submit call
  int64_t Shed = 0;               ///< submit refused
  int64_t NotOk = 0;              ///< responses with a non-Ok status
  double WallSec = 0;             ///< schedule start to last response
};

/// Submits one request; returns false when the server refused it.
using SubmitFn = std::function<bool(const Arrival &,
                                    std::future<latte::serve::Response> *)>;
/// Sees every response on the collecting thread (index into the schedule).
using ResponseFn = std::function<void(size_t, latte::serve::Response &)>;

/// Runs \p Schedule open loop: one thread submits each arrival at its due
/// time whatever the server's state, one thread collects responses in
/// submission order. Latency is measured from the due time, so a stalled
/// submit charges its delay to every request queued behind it.
/// \p Gen and \p Collect receive the submit and request spans.
OpenLoopResult runOpenLoop(const std::vector<Arrival> &Schedule,
                           const SubmitFn &Submit, const ResponseFn &OnResponse,
                           SpanLog &Gen, SpanLog &Collect);

// --- host record ---------------------------------------------------------------

int hostCpus();
int ompMaxThreads();
/// Peak resident set of this process (getrusage), MB.
double peakRssMb();

} // namespace perfbench

#endif // LATTE_PERFBENCH_COMMON_H
