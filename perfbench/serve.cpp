//===- perfbench/serve.cpp - serve_vgg3 ----------------------------------===//
///
/// \file
/// The serving workload: vggFirstThreeLayers(0.25) through serve::Server
/// with 2 replicas, batch sizes 1/4/16 and a cold ProgramCache. Traffic is
/// two phases of fixed size:
///
///   open loop    Poisson arrivals at a fixed absolute rate (OpenRate),
///                priorities Interactive:Standard:Bulk = 1:2:1 with fixed
///                per-class deadlines; latency from each request's due time
///   saturation   a closed loop keeping SatWindow Bulk requests in flight
///
/// The rate is a constant, never a share of the run's own measured peak:
/// otherwise the offered load would move with the code under test.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "compiler/compiler.h"
#include "compiler/program_cache.h"
#include "engine/executor.h"
#include "models/models.h"
#include "serve/server.h"
#include "support/profile.h"

#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>

using namespace latte;

namespace perfbench {
namespace {

constexpr double OpenRate = 200;      ///< requests/s offered in the open loop
constexpr double OpenShare = 0.6;     ///< share of --seconds spent open loop
constexpr double SatNominalRps = 1000; ///< sizes the saturation phase
constexpr size_t SatWindow = 64;      ///< requests in flight at saturation
constexpr int PoolSize = 16;
constexpr int SampleEvery = 50; ///< every Nth response is checked
/// Per-class deadlines (Interactive, Standard, Bulk), micros: 20x the
/// open-loop median and more, so a host slowed 2-3x by CPU steal still
/// sheds nothing and every run does the same work.
constexpr int64_t DeadlineUs[serve::NumPriorities] = {250'000, 1'000'000,
                                                      5'000'000};
constexpr int64_t ExpectedCompiles = 3; ///< one per batch size

serve::ServeOptions serveOptions(uint64_t ParamSeed, bool Profile) {
  serve::ServeOptions SO;
  SO.Replicas = 2;
  SO.BatchSizes = {1, 4, 16};
  SO.ParamSeed = ParamSeed;
  SO.Exec.Seed = ParamSeed;
  SO.Exec.Profile = Profile;
  for (int P = 0; P < serve::NumPriorities; ++P)
    SO.ClassDeadlineMicros[P] = DeadlineUs[P];
  return SO;
}

/// Cold setup: empty ProgramCache, construction until every shape class
/// is installed.
std::unique_ptr<serve::Server> coldServer(const models::ModelSpec &Spec,
                                          const serve::ServeOptions &SO,
                                          bool *Ready) {
  compiler::ProgramCache::instance().clear();
  auto Srv =
      std::make_unique<serve::Server>(Spec, compiler::CompileOptions(), SO);
  *Ready = Srv->waitAllClassesReady(std::chrono::seconds(60));
  return Srv;
}

struct Sample {
  int PoolIndex = 0;
  Tensor Output;
};

/// Responses kept for the output check, filled from the collecting thread.
struct Samples {
  std::mutex Mu;
  std::vector<Sample> Items;
  void add(int PoolIndex, const Tensor &Out) {
    std::lock_guard<std::mutex> Lock(Mu);
    Items.push_back(Sample{PoolIndex, Out});
  }
};

struct SatResult {
  double WallSec = 0;
  int64_t Shed = 0, NotOk = 0;
};

/// Closed loop: N Bulk requests, SatWindow in flight.
SatResult saturate(serve::Server &Srv, const std::vector<Tensor> &Pool,
                   int64_t N, int64_t IdBase, SpanLog &Log, Samples *Keep) {
  struct InFlight {
    int64_t Id;
    Clock::time_point Sent;
    std::future<serve::Response> Fut;
  };
  SatResult R;
  serve::SubmitOptions SO;
  SO.Pri = serve::Priority::Bulk;
  std::deque<InFlight> Window;
  auto Retire = [&] {
    InFlight F = std::move(Window.front());
    Window.pop_front();
    serve::Response Resp = F.Fut.get();
    Log.add("serve.request", F.Id, F.Sent, Clock::now());
    if (Resp.St != serve::Status::Ok)
      ++R.NotOk;
    else if (Keep && F.Id % SampleEvery == 0)
      Keep->add(static_cast<int>(F.Id % PoolSize), Resp.Output);
  };
  Clock::time_point Start = Clock::now();
  for (int64_t I = 0; I < N; ++I) {
    if (Window.size() >= SatWindow)
      Retire();
    InFlight F;
    F.Id = IdBase + I;
    F.Sent = Clock::now();
    bool Admitted =
        Srv.submit(Pool[static_cast<size_t>(F.Id % PoolSize)], &F.Fut, SO);
    Log.add("serve.submit", F.Id, F.Sent, Clock::now());
    if (!Admitted) {
      ++R.Shed;
      continue;
    }
    Window.push_back(std::move(F));
  }
  while (!Window.empty())
    Retire();
  R.WallSec = secondsBetween(Start, Clock::now());
  return R;
}

/// Sampled responses must equal a batch-1 compileForward executor with the
/// same weights, bitwise (padding and weight sharing change nothing).
void checkResponses(const models::ModelSpec &Spec, uint64_t ParamSeed,
                    const std::vector<Tensor> &Pool, const Samples &S,
                    RunResult &R) {
  core::Net Net(1);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  engine::ExecOptions EO;
  EO.Seed = ParamSeed;
  engine::Executor Ref(compiler::compileForward(Net), EO);
  int64_t Bad = 0;
  for (const Sample &Smp : S.Items) {
    Ref.setInput(Pool[static_cast<size_t>(Smp.PoolIndex)]);
    Ref.forward();
    Tensor Want = Ref.readBuffer(Ref.program().ProbBuffer);
    if (Want.numElements() != Smp.Output.numElements() ||
        std::memcmp(Want.data(), Smp.Output.data(),
                    sizeof(float) *
                        static_cast<size_t>(Want.numElements())) != 0)
      ++Bad;
  }
  R.check(!S.Items.empty() && Bad == 0,
          std::to_string(Bad) + " of " + std::to_string(S.Items.size()) +
              " sampled responses differ from the batch-1 reference");
  R.Record.set("checked_responses", static_cast<int64_t>(S.Items.size()));
}

} // namespace

RunResult runServeVgg3(const RunConfig &C) {
  RunResult R;
  const models::ModelSpec Spec = models::vggFirstThreeLayers(0.25);
  const int64_t NOpen = std::llround(OpenRate * OpenShare * C.Seconds);
  const int64_t NSat =
      std::llround(SatNominalRps * (1.0 - OpenShare) * C.Seconds);
  const uint64_t ParamSeed = subSeed(C.Seed, 3);
  const std::vector<Tensor> Pool =
      inputPool(Spec.InputDims, PoolSize, subSeed(C.Seed, 1));
  const std::vector<Arrival> Schedule =
      arrivalSchedule(subSeed(C.Seed, 2), OpenRate, NOpen, PoolSize);
  R.Record.set("offered_rps", OpenRate);
  R.Record.set("open_requests", NOpen);
  R.Record.set("saturation_requests", NSat);

  // --- cold setup ------------------------------------------------------
  prof::Profiler::get().setEnabled(C.Trace);
  serve::ServeOptions SO = serveOptions(ParamSeed, C.Trace);
  R.Record.set("replicas", SO.Replicas);
  Clock::time_point S0 = Clock::now();
  bool Ready = false;
  std::unique_ptr<serve::Server> Srv = coldServer(Spec, SO, &Ready);
  R.SetupSec = secondsBetween(S0, Clock::now());
  R.check(Ready, "shape classes still cold after 60 s");
  compiler::ProgramCache::Stats CS = compiler::ProgramCache::instance().stats();
  R.check(CS.Compiles == ExpectedCompiles,
          "ProgramCache compiled " + std::to_string(CS.Compiles) +
              " classes, expected " + std::to_string(ExpectedCompiles));
  R.Record.set("cache_compiles", CS.Compiles);
  if (C.SetupOnly || !Ready)
    return R;

  // --- open loop, then saturation -------------------------------------------
  Srv->start();
  SpanLog Gen(C.Trace), Collect(C.Trace);
  Samples Keep;
  OpenLoopResult O = runOpenLoop(
      Schedule,
      [&](const Arrival &A, std::future<serve::Response> *Out) {
        serve::SubmitOptions Sub; // deadline: the class default
        Sub.Pri = A.Pri;
        return Srv->submit(Pool[static_cast<size_t>(A.PoolIndex)], Out, Sub);
      },
      [&](size_t I, serve::Response &Resp) {
        if (Resp.St == serve::Status::Ok && I % SampleEvery == 0)
          Keep.add(Schedule[I].PoolIndex, Resp.Output);
      },
      Gen, Collect);
  SatResult Sat = saturate(*Srv, Pool, NSat, NOpen, Gen, &Keep);
  serve::ServeStats St = Srv->stats();
  const double ServedRps = static_cast<double>(NSat) / Sat.WallSec;
  const double PeakRss = peakRssMb();
  Srv->stop();

  R.Attempted = NOpen + NSat;
  R.Failed = O.Shed + O.NotOk + Sat.Shed + Sat.NotOk;

  if (!C.Trace) {
    R.set("items_per_s", ServedRps);
    R.set("latency_ms", median(O.LatencySec) * 1e3);
    R.set("peak_rss_mb", PeakRss);
  } else {
    int64_t Items = 0;
    for (const auto &[BS, Hist] : St.Fill)
      for (const auto &[Fill, N] : Hist)
        Items += Fill * N;
    const double Batches = static_cast<double>(St.Batches);
    const double Flushes =
        static_cast<double>(St.FullFlushes + St.DeadlineFlushes);
    const compiler::Program &Big = Srv->program(Srv->maxBatch());
    R.set("serve.classes_ready_s", Srv->allReadySec());
    R.set("compiler.cache_compiles", static_cast<double>(CS.Compiles));
    R.set("compiler.cache_coalesced", static_cast<double>(CS.Coalesced));
    R.set("compiler.interpreted_ensembles",
          static_cast<double>(Big.Report.InterpretedEnsembles.size()));
    R.set("compiler.gemm_matched",
          static_cast<double>(Big.Report.MatchedGemmEnsembles.size()));
    R.set("compiler.fusion_groups",
          static_cast<double>(Big.Report.FusionGroups.size()));
    R.set("compiler.arena_mb",
          static_cast<double>(Srv->replicaArenaBytes()) / 1e6);
    R.set("compiler.plan_saved_frac",
          Big.Plan.EagerBytes > 0
              ? 1.0 - static_cast<double>(Big.Plan.ArenaBytes) /
                          static_cast<double>(Big.Plan.EagerBytes)
              : 0.0);
    R.set("serve.submit_us_p50", median(O.SubmitSec) * 1e6);
    R.set("serve.mean_fill",
          Batches > 0 ? static_cast<double>(Items) / Batches : 0);
    R.set("serve.pad_frac",
          Items + St.PaddedSlots > 0
              ? static_cast<double>(St.PaddedSlots) /
                    static_cast<double>(Items + St.PaddedSlots)
              : 0);
    R.set("serve.full_flush_frac",
          Flushes > 0 ? static_cast<double>(St.FullFlushes) / Flushes : 0);
    R.set("serve.busy_frac",
          St.BusySec / (SO.Replicas * (O.WallSec + Sat.WallSec)));
    R.set("serve.latency_p99_ms", percentile(O.LatencySec, 0.99) * 1e3);
    R.set("serve.deadline_shed", static_cast<double>(St.DeadlineShed));
    R.set("serve.deadline_missed", static_cast<double>(St.DeadlineMissed));
    R.set("serve.shed", static_cast<double>(St.Shed));
    R.set("serve.interp_fallbacks", static_cast<double>(St.InterpFallbacks));
    R.set("serve.chunked_batches", static_cast<double>(St.ChunkedBatches));
    R.set("serve.gen_late_ms_p99", percentile(O.LateSec, 0.99) * 1e3);
    if (!C.TraceOut.empty()) {
      std::string Err;
      R.check(writeSpans(C.TraceOut, {&Gen, &Collect}, S0, &Err), Err);
    }
    // Tracing overhead: the saturation phase again on an untraced server.
    prof::Profiler::get().setEnabled(false);
    prof::Profiler::get().reset();
    bool PlainReady = false;
    std::unique_ptr<serve::Server> Plain =
        coldServer(Spec, serveOptions(ParamSeed, false), &PlainReady);
    R.check(PlainReady, "untraced server classes still cold after 60 s");
    Plain->start();
    SpanLog Off(false);
    SatResult PlainSat = saturate(*Plain, Pool, NSat, NOpen, Off, nullptr);
    Plain->stop();
    double Untraced = static_cast<double>(NSat) / PlainSat.WallSec;
    R.set("trace.overhead_frac", (Untraced - ServedRps) / Untraced);
    R.Record.set("items_per_s_traced", ServedRps);
    R.Record.set("items_per_s_untraced", Untraced);
  }
  R.Record.set("deadline_shed", St.DeadlineShed);
  R.Record.set("deadline_missed", St.DeadlineMissed);

  checkResponses(Spec, ParamSeed, Pool, Keep, R);
  return R;
}

} // namespace perfbench
