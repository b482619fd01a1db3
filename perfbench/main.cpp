//===- perfbench/main.cpp - Benchmark binary entry point ----------------===//
///
/// \file
/// One workload per process, launched by perfbench/run.py:
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///                    [--setup-only] [--trace-out spans.json]
///   perfbench --selftest
///   perfbench --list-metrics
///
/// A workload run prints one JSON object as its last line: setup_s, the
/// metrics of the run kind (end-to-end untraced, per-layer traced),
/// attempted/failed operation counts, the output-check verdict and a
/// record of the host and configuration. --setup-only performs one cold
/// setup and reports its time; run.py repeats it in fresh processes and
/// takes the median.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>

using namespace latte;
using namespace perfbench;

namespace {

struct Workload {
  const char *Name;
  WorkloadFn Run;
};

const Workload Workloads[] = {
    {"train_alexnet", runTrainAlexnet},
    {"train_seq", runTrainSeq},
    {"serve_vgg3", runServeVgg3},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--trace-out FILE]\n"
               "       perfbench --selftest | --list-metrics\n",
               Why);
  std::exit(2);
}

// --- self-tests ----------------------------------------------------------

int Failures = 0;

void expect(bool Ok, const char *What) {
  std::printf("%s: %s\n", Ok ? "ok  " : "FAIL", What);
  if (!Ok)
    ++Failures;
}

bool sameBytes(const std::vector<Tensor> &A, const std::vector<Tensor> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].numElements() != B[I].numElements() ||
        std::memcmp(A[I].data(), B[I].data(),
                    sizeof(float) *
                        static_cast<size_t>(A[I].numElements())) != 0)
      return false;
  return true;
}

bool sameSchedule(const std::vector<Arrival> &A,
                  const std::vector<Arrival> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (std::memcmp(&A[I].DueSec, &B[I].DueSec, sizeof(double)) != 0 ||
        A[I].Pri != B[I].Pri || A[I].PoolIndex != B[I].PoolIndex)
      return false;
  return true;
}

int selfTest() {
  // Same seed, same input bytes and arrival schedule; another seed differs.
  const Shape Dims{2, 3, 8, 8};
  expect(sameBytes(inputPool(Dims, 4, subSeed(7, 1)),
                   inputPool(Dims, 4, subSeed(7, 1))),
         "same seed gives identical input bytes");
  expect(!sameBytes(inputPool(Dims, 4, subSeed(7, 1)),
                    inputPool(Dims, 4, subSeed(8, 1))),
         "another seed gives other input bytes");
  expect(sameBytes(labelPool(8, 10, 4, subSeed(7, 2)),
                   labelPool(8, 10, 4, subSeed(7, 2))),
         "same seed gives identical labels");
  expect(sameSchedule(arrivalSchedule(subSeed(7, 3), 500, 1000, 16),
                      arrivalSchedule(subSeed(7, 3), 500, 1000, 16)),
         "same seed gives an identical arrival schedule");
  expect(!sameSchedule(arrivalSchedule(subSeed(7, 3), 500, 1000, 16),
                       arrivalSchedule(subSeed(8, 3), 500, 1000, 16)),
         "another seed gives another arrival schedule");
  std::vector<Arrival> Mix = arrivalSchedule(subSeed(7, 3), 500, 4000, 16);
  int Count[serve::NumPriorities] = {0, 0, 0};
  for (const Arrival &A : Mix)
    ++Count[static_cast<int>(A.Pri)];
  expect(Count[1] > Count[0] * 3 / 2 && Count[1] > Count[2] * 3 / 2,
         "priority mix is about 1:2:1");
  double Rate = static_cast<double>(Mix.size()) / Mix.back().DueSec;
  expect(Rate > 450 && Rate < 550, "schedule offers the requested rate");

  // Open-loop latency counts from the due time: a submit that stalls for
  // 30 ms makes every request due during the stall late, and that delay
  // shows in its latency although the server itself answers at once.
  std::vector<Arrival> Burst(20);
  for (size_t I = 0; I < Burst.size(); ++I)
    Burst[I].DueSec = 0.001 * static_cast<double>(I);
  SpanLog Off(false);
  OpenLoopResult O = runOpenLoop(
      Burst,
      [](const Arrival &A, std::future<serve::Response> *Out) {
        if (A.DueSec == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        std::promise<serve::Response> P;
        *Out = P.get_future();
        P.set_value(serve::Response{serve::Status::Ok, Tensor()});
        return true;
      },
      [](size_t, serve::Response &) {}, Off, Off);
  bool AllCounted = O.LatencySec.size() == Burst.size();
  expect(AllCounted, "open loop collects every response");
  bool FromDue = AllCounted;
  for (size_t I = 0; FromDue && I < Burst.size(); ++I)
    FromDue = O.LatencySec[I] >= O.LateSec[I];
  expect(FromDue, "latency includes the generator's lateness");
  expect(AllCounted && O.LateSec[1] > 0.025 && O.LatencySec[1] > 0.025,
         "a stalled submit delays the next request's latency by the stall");
  std::printf("%d self-test failure(s)\n", Failures);
  return Failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  bool TraceSet = false;
  auto Value = [&](int &I) {
    if (I + 1 >= argc)
      usage("missing value");
    return argv[++I];
  };
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--selftest"))
      return selfTest();
    if (!std::strcmp(argv[I], "--list-metrics")) {
      json::Value List = json::Value::array();
      for (const MetricDef &M : metricTable()) {
        json::Value E = json::Value::object();
        E.set("name", M.Name);
        E.set("unit", M.Unit);
        E.set("per_layer", M.PerLayer);
        List.push(std::move(E));
      }
      std::printf("%s\n", List.dump().c_str());
      return 0;
    }
    if (!std::strcmp(argv[I], "--workload"))
      C.Workload = Value(I);
    else if (!std::strcmp(argv[I], "--seed"))
      C.Seed = std::strtoull(Value(I), nullptr, 10);
    else if (!std::strcmp(argv[I], "--seconds"))
      C.Seconds = std::atof(Value(I));
    else if (!std::strcmp(argv[I], "--trace")) {
      C.Trace = std::atoi(Value(I)) != 0;
      TraceSet = true;
    } else if (!std::strcmp(argv[I], "--setup-only"))
      C.SetupOnly = true;
    else if (!std::strcmp(argv[I], "--trace-out"))
      C.TraceOut = Value(I);
    else
      usage("unknown argument");
  }
  if (!TraceSet || C.Seconds <= 0)
    usage("--trace and a positive --seconds are required");
  WorkloadFn Run = nullptr;
  for (const Workload &W : Workloads)
    if (C.Workload == W.Name)
      Run = W.Run;
  if (!Run)
    usage("unknown workload");

  RunResult R = Run(C);
  if (C.Trace && !C.SetupOnly) {
    R.set("run.failed_frac",
          R.Attempted > 0 ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 0.0);
    zeroMissingPerLayer(R);
  }
  R.Record.set("workload", C.Workload);
  R.Record.set("seed", static_cast<int64_t>(C.Seed));
  R.Record.set("seconds", C.Seconds);
  R.Record.set("nproc", hostCpus());
  R.Record.set("omp_threads", ompMaxThreads());

  json::Value Out = json::Value::object();
  Out.set("setup_s", R.SetupSec);
  Out.set("metrics", std::move(R.Metrics));
  Out.set("attempted", R.Attempted);
  Out.set("failed", R.Failed);
  Out.set("correct", R.CheckFailures.empty());
  json::Value Why = json::Value::array();
  for (const std::string &F : R.CheckFailures)
    Why.push(F);
  Out.set("failures", std::move(Why));
  Out.set("record", std::move(R.Record));
  std::printf("%s\n", Out.dump().c_str());
  return 0;
}
