//===- perfbench/common.cpp - Shared pieces of the benchmark binary -----===//

#include "common.h"

#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <condition_variable>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>
#ifdef _OPENMP
#include <omp.h>
#endif

using namespace latte;

namespace perfbench {

const std::vector<MetricDef> &metricTable() {
  static const std::vector<MetricDef> Table = {
      // End to end (untraced runs).
      {"setup_s", "s", false},
      {"items_per_s", "1/s", false},
      {"latency_ms", "ms", false},
      {"peak_rss_mb", "MB", false},
      // Per layer (traced run).
      {"engine.forward_ms_p50", "ms", true},
      {"engine.backward_ms_p50", "ms", true},
      {"engine.backward_share", "frac", true},
      {"solvers.step_ms_p50", "ms", true},
      {"kernels.gflop_per_step", "GFLOP", true},
      {"kernels.gemm_calls_per_step", "count", true},
      {"kernels.gflops_per_s", "GFLOP/s", true},
      {"compiler.compile_s", "s", true},
      {"compiler.interpreted_ensembles", "count", true},
      {"compiler.gemm_matched", "count", true},
      {"compiler.fusion_groups", "count", true},
      {"compiler.arena_mb", "MB", true},
      {"compiler.plan_saved_frac", "frac", true},
      {"compiler.cache_compiles", "count", true},
      {"compiler.cache_coalesced", "count", true},
      {"jit.build_s", "s", true},
      {"jit.compiles", "count", true},
      {"jit.disk_hits", "count", true},
      {"jit.coverage", "frac", true},
      {"serve.classes_ready_s", "s", true},
      {"serve.submit_us_p50", "us", true},
      {"serve.mean_fill", "items", true},
      {"serve.pad_frac", "frac", true},
      {"serve.full_flush_frac", "frac", true},
      {"serve.busy_frac", "frac", true},
      {"serve.latency_p99_ms", "ms", true},
      {"serve.deadline_shed", "count", true},
      {"serve.deadline_missed", "count", true},
      {"serve.shed", "count", true},
      {"serve.interp_fallbacks", "count", true},
      {"serve.chunked_batches", "count", true},
      {"serve.gen_late_ms_p99", "ms", true},
      {"run.failed_frac", "frac", true},
      {"trace.overhead_frac", "frac", true},
  };
  return Table;
}

void zeroMissingPerLayer(RunResult &R) {
  for (const MetricDef &M : metricTable())
    if (M.PerLayer && !R.Metrics.find(M.Name))
      R.set(M.Name, 0.0);
}

uint64_t subSeed(uint64_t Seed, uint64_t Purpose) {
  // splitmix64 finalizer over (seed, purpose): decorrelated streams.
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Purpose * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::vector<Tensor> inputPool(const Shape &Dims, int N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> Pool;
  for (int I = 0; I < N; ++I) {
    Tensor T(Dims);
    R.fillGaussian(T, 0.0f, 1.0f);
    Pool.push_back(std::move(T));
  }
  return Pool;
}

std::vector<Tensor> labelPool(int64_t Batch, int64_t Classes, int N,
                              uint64_t Seed) {
  Rng R(Seed);
  std::vector<Tensor> Pool;
  for (int I = 0; I < N; ++I) {
    Tensor T(Shape{Batch, 1});
    for (int64_t B = 0; B < Batch; ++B)
      T.at(B) = static_cast<float>(R.uniformInt(Classes));
    Pool.push_back(std::move(T));
  }
  return Pool;
}

std::vector<Arrival> arrivalSchedule(uint64_t Seed, double RatePerSec,
                                     int64_t N, int PoolSize) {
  Rng R(Seed);
  std::vector<Arrival> S(static_cast<size_t>(N));
  double T = 0;
  for (Arrival &A : S) {
    T += -std::log(1.0 - R.uniform()) / RatePerSec;
    A.DueSec = T;
    int64_t C = R.uniformInt(4); // 1:2:1
    A.Pri = C == 0   ? serve::Priority::Interactive
            : C == 3 ? serve::Priority::Bulk
                     : serve::Priority::Standard;
    A.PoolIndex = static_cast<int>(R.uniformInt(PoolSize));
  }
  return S;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank > 0 ? Rank - 1 : 0)];
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

int64_t SpanLog::open(const char *Name, int64_t Id, int64_t Parent) {
  if (!Enabled)
    return -1;
  Spans.push_back(Span{Name, Id, Parent, Clock::now(), 0});
  return static_cast<int64_t>(Spans.size()) - 1;
}

void SpanLog::close(int64_t Index) {
  if (Index < 0)
    return;
  Span &S = Spans[static_cast<size_t>(Index)];
  S.Sec = secondsBetween(S.Start, Clock::now());
}

void SpanLog::add(const char *Name, int64_t Id, Clock::time_point Start,
                  Clock::time_point End, int64_t Parent) {
  if (Enabled)
    Spans.push_back(Span{Name, Id, Parent, Start, secondsBetween(Start, End)});
}

std::vector<double> SpanLog::durations(const std::string &Name) const {
  std::vector<double> D;
  for (const Span &S : Spans)
    if (S.Name == Name)
      D.push_back(S.Sec);
  return D;
}

bool writeSpans(const std::string &Path,
                const std::vector<const SpanLog *> &Logs,
                Clock::time_point Epoch, std::string *Err) {
  json::Value Events = json::Value::array();
  for (size_t Tid = 0; Tid < Logs.size(); ++Tid) {
    for (const Span &S : Logs[Tid]->spans()) {
      json::Value E = json::Value::object();
      E.set("name", S.Name);
      E.set("ph", "X");
      E.set("pid", 1);
      E.set("tid", static_cast<int64_t>(Tid));
      E.set("ts", secondsBetween(Epoch, S.Start) * 1e6);
      E.set("dur", S.Sec * 1e6);
      json::Value Args = json::Value::object();
      Args.set("id", S.Id);
      Args.set("parent", S.Parent);
      E.set("args", std::move(Args));
      Events.push(std::move(E));
    }
  }
  json::Value Doc = json::Value::object();
  Doc.set("traceEvents", std::move(Events));
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    *Err = "cannot write " + Path;
    return false;
  }
  std::string Text = Doc.dump();
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok)
    *Err = "short write to " + Path;
  return Ok;
}

OpenLoopResult runOpenLoop(const std::vector<Arrival> &Schedule,
                           const SubmitFn &Submit, const ResponseFn &OnResponse,
                           SpanLog &Gen, SpanLog &Collect) {
  struct Pending {
    size_t Index = 0;
    Clock::time_point Due;
    std::future<serve::Response> Fut;
  };
  OpenLoopResult R;
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Pending> Queue;
  bool Done = false;
  Clock::time_point Start = Clock::now();
  Clock::time_point LastResponse = Start;

  std::thread Collector([&] {
    for (;;) {
      Pending P;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return !Queue.empty() || Done; });
        if (Queue.empty())
          return;
        P = std::move(Queue.front());
        Queue.pop_front();
      }
      serve::Response Resp = P.Fut.get();
      Clock::time_point End = Clock::now();
      LastResponse = End;
      Collect.add("serve.request", static_cast<int64_t>(P.Index), P.Due, End);
      if (Resp.St == serve::Status::Ok)
        R.LatencySec.push_back(secondsBetween(P.Due, End));
      else
        ++R.NotOk;
      OnResponse(P.Index, Resp);
    }
  });

  R.LateSec.reserve(Schedule.size());
  R.SubmitSec.reserve(Schedule.size());
  for (size_t I = 0; I < Schedule.size(); ++I) {
    Pending P;
    P.Index = I;
    P.Due = Start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(Schedule[I].DueSec));
    std::this_thread::sleep_until(P.Due);
    Clock::time_point Sent = Clock::now();
    R.LateSec.push_back(secondsBetween(P.Due, Sent));
    bool Admitted = Submit(Schedule[I], &P.Fut);
    Clock::time_point Submitted = Clock::now();
    R.SubmitSec.push_back(secondsBetween(Sent, Submitted));
    Gen.add("serve.submit", static_cast<int64_t>(I), Sent, Submitted);
    if (!Admitted) {
      ++R.Shed;
      continue;
    }
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Queue.push_back(std::move(P));
    }
    Cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Done = true;
  }
  Cv.notify_all();
  Collector.join();
  R.WallSec = secondsBetween(Start, LastResponse);
  return R;
}

int hostCpus() {
  long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<int>(N) : 1;
}

int ompMaxThreads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

double peakRssMb() {
  struct rusage U;
  if (::getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace perfbench
