//===- bench/serve_loadgen.cpp - Serving-runtime traffic generator --------===//
///
/// Drives the inference serving runtime (src/serve) with the Figure 13
/// network and reports what the micro-batcher buys over sequential
/// single-request execution:
///
///   phase 0  cold start (--cold) — the ProgramCache is cleared before the
///            server is built, so only the floor class is warm; requests
///            submitted immediately must be served through the degradation
///            ladder (padded/chunked/interpreted), never blocked on an
///            inline compile, while background threads install the rest
///   phase 1  sequential baseline — one batch-1 inference executor in a
///            tight loop (what a server without batching would do)
///   phase 2  saturation — a sliding window of in-flight requests keeps
///            the queue full, measuring peak requests/sec through the
///            batcher + replicas
///   phase 3  latency — open-loop arrivals at a fraction of the measured
///            peak, recording per-request p50/p99 queueing+compute
///            latency; with --mixed the arrivals cycle through the
///            Interactive/Standard/Bulk priority classes with
///            machine-scaled deadlines
///
///   serve_loadgen [--scale S] [--replicas N] [--batch-sizes 1,4,16]
///                 [--deadline-us U] [--duration SEC] [--rate-frac F]
///                 [--jit] [--cold] [--mixed] [--json OUT.json]
///                 [--trace OUT.json] [--check-speedup X]
///                 [--check-cold] [--check-deadline-misses N]
///
/// `--json` emits BENCH_serve.json (schema latte-bench-v1, figure
/// "serve"): a gated `speedup` column on the serve_throughput row (served
/// rps / sequential rps — machine-normalized, both sides measured on this
/// host in this run), a gated `latency_norm` column on the serve_p50 row
/// (p50 seconds x sequential rps — the p50 expressed as a multiple of the
/// host's own single-request service time, so it compares across
/// machines), informational p99, the inference arena row, and a "serve"
/// object with the batch-fill histogram plus the shed/fallback counters.
///
/// CI floors: `--check-speedup X` fails when the measured speedup is below
/// X; `--check-cold` fails when the cold phase could not serve a request
/// before the last shape class installed (i.e., something blocked on a
/// compile); `--check-deadline-misses N` fails when more than N requests
/// missed or shed their deadline *after* warmup (the serve-soak gate runs
/// it with N=0).
///
/// The speedup is core-count-dependent: batch-16 forwards parallelize all
/// per-item work across OpenMP threads while batch-1 parallelizes only
/// tiled loops, so multi-core hosts see the batching win and a 1-core host
/// measures ~1x. EXPERIMENTS.md discusses the methodology.
///
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "serve/server.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

using namespace latte;
using namespace latte::bench;

namespace {

struct LoadgenOptions {
  double Scale = 0.25;
  int Replicas = 2;
  std::vector<int64_t> BatchSizes = {1, 4, 16};
  int64_t DeadlineUs = 2000;
  double DurationSec = 2.0;
  double RateFrac = 0.6;
  bool Jit = false;
  bool Cold = false;
  bool Mixed = false;
  std::string JsonPath;
  std::string TracePath;
  double CheckSpeedup = 0.0;
  bool CheckCold = false;
  int64_t CheckDeadlineMisses = -1; ///< -1 = disabled
};

LoadgenOptions parseArgs(int Argc, char **Argv) {
  LoadgenOptions O;
  auto NeedValue = [&](int I) {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "missing value for %s\n", Argv[I]);
      std::exit(2);
    }
    return Argv[I + 1];
  };
  for (int I = 1; I < Argc; ++I) {
    const char *Flag = Argv[I];
    if (std::strcmp(Argv[I], "--scale") == 0)
      O.Scale = numberArg(Flag, NeedValue(I++));
    else if (std::strcmp(Argv[I], "--replicas") == 0)
      O.Replicas = countArg(Flag, NeedValue(I++));
    else if (std::strcmp(Argv[I], "--batch-sizes") == 0) {
      O.BatchSizes.clear();
      std::string List = NeedValue(I++);
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        if (Comma > Pos)
          O.BatchSizes.push_back(
              intArg("--batch-sizes", List.substr(Pos, Comma - Pos).c_str()));
        Pos = Comma + 1;
      }
    } else if (std::strcmp(Argv[I], "--deadline-us") == 0)
      O.DeadlineUs = intArg(Flag, NeedValue(I++));
    else if (std::strcmp(Argv[I], "--duration") == 0)
      O.DurationSec = numberArg(Flag, NeedValue(I++));
    else if (std::strcmp(Argv[I], "--rate-frac") == 0)
      O.RateFrac = numberArg(Flag, NeedValue(I++));
    else if (std::strcmp(Argv[I], "--jit") == 0)
      O.Jit = true;
    else if (std::strcmp(Argv[I], "--cold") == 0)
      O.Cold = true;
    else if (std::strcmp(Argv[I], "--mixed") == 0)
      O.Mixed = true;
    else if (std::strcmp(Argv[I], "--json") == 0)
      O.JsonPath = NeedValue(I++);
    else if (std::strcmp(Argv[I], "--trace") == 0)
      O.TracePath = NeedValue(I++);
    else if (std::strcmp(Argv[I], "--check-speedup") == 0)
      O.CheckSpeedup = numberArg(Flag, NeedValue(I++));
    else if (std::strcmp(Argv[I], "--check-cold") == 0)
      O.CheckCold = true;
    else if (std::strcmp(Argv[I], "--check-deadline-misses") == 0)
      O.CheckDeadlineMisses = intArg(Flag, NeedValue(I++));
    else if (std::strcmp(Argv[I], "--help") == 0) {
      std::printf("usage: serve_loadgen [--scale S] [--replicas N] "
                  "[--batch-sizes 1,4,16] [--deadline-us U] "
                  "[--duration SEC] [--rate-frac F] [--jit] [--cold] "
                  "[--mixed] [--json out.json] [--trace out.json] "
                  "[--check-speedup X] [--check-cold] "
                  "[--check-deadline-misses N]\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument '%s' (see --help)\n", Argv[I]);
      std::exit(2);
    }
  }
  if (O.Scale <= 0 || O.Replicas <= 0 || O.BatchSizes.empty() ||
      O.DurationSec <= 0 || O.RateFrac <= 0 || O.RateFrac > 1) {
    std::fprintf(stderr, "bad argument values (see --help)\n");
    std::exit(2);
  }
  if (O.CheckCold && !O.Cold) {
    std::fprintf(stderr, "--check-cold requires --cold\n");
    std::exit(2);
  }
  if (!O.JsonPath.empty() || !O.TracePath.empty())
    prof::Profiler::get().setEnabled(true);
  return O;
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t I = static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1));
  return Sorted[I];
}

} // namespace

int main(int argc, char **argv) {
  LoadgenOptions O = parseArgs(argc, argv);
  const uint64_t ParamSeed = 1;

  models::ModelSpec Spec = models::vggFirstThreeLayers(O.Scale);
  compiler::CompileOptions CO;
  CO.Jit = O.Jit;

  printHeader("serve_loadgen: latency-bounded inference serving",
              Spec.Name + " scale " + std::to_string(O.Scale));

  // A small pool of distinct inputs so consecutive requests are not
  // byte-identical (defeats nothing, but keeps the traffic honest).
  std::vector<Tensor> Pool;
  for (uint64_t S = 0; S < 16; ++S) {
    Tensor T(Spec.InputDims);
    fillRandom(T, 100 + S);
    Pool.push_back(std::move(T));
  }

  // --- the server (before any other compile: cold means cold) ------------
  if (O.Cold)
    compiler::ProgramCache::instance().clear();
  serve::ServeOptions SO;
  SO.Replicas = O.Replicas;
  SO.BatchSizes = O.BatchSizes;
  SO.FlushDeadlineMicros = O.DeadlineUs;
  SO.ParamSeed = ParamSeed;
  SO.Exec.Seed = ParamSeed;
  SO.Exec.Profile = prof::enabled();
  Timer BuildWall;
  serve::Server Srv(Spec, CO, SO);
  double BuildSec = BuildWall.seconds();
  Srv.start();

  // --- phase 0: cold start through the degradation ladder ----------------
  double ColdFirstRespSec = 0.0;
  int64_t ColdRequests = 0, ColdFallbackBatches = 0;
  if (O.Cold) {
    std::printf("cold start:          floor ready in %.0f ms, serving while "
                "%zu classes compile\n",
                BuildSec * 1e3, Srv.batchSizes().size() - 1);
    serve::SubmitOptions Bulk;
    Bulk.Pri = serve::Priority::Bulk;
    constexpr int ColdN = 32;
    std::vector<std::future<serve::Response>> Futs(ColdN);
    Timer ColdWall;
    for (int I = 0; I < ColdN; ++I) {
      if (!Srv.submit(Pool[static_cast<size_t>(I) % Pool.size()], &Futs[I],
                      Bulk)) {
        std::fprintf(stderr, "serve_loadgen: cold submit %d was shed\n", I);
        return 1;
      }
      // Clock the first response the moment it lands (wait() does not
      // consume the future) — measuring it after the pacing loop would
      // hide a fast background compile behind 31 ms of sleeps and make
      // the --check-cold comparison against all_ready_sec meaningless.
      if (I == 0) {
        Futs[0].wait();
        ColdFirstRespSec = ColdWall.seconds();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (int I = 0; I < ColdN; ++I) {
      serve::Response R = Futs[I].get();
      if (R.St != serve::Status::Ok) {
        std::fprintf(stderr, "serve_loadgen: cold request %d failed\n", I);
        return 1;
      }
    }
    ColdRequests = ColdN;
    serve::ServeStats ColdSt = Srv.stats();
    ColdFallbackBatches = ColdSt.InterpFallbacks + ColdSt.ChunkedBatches;
    std::printf("cold start:          first response %.1f ms, %lld fallback "
                "batches (interp %lld, chunked %lld)\n",
                ColdFirstRespSec * 1e3,
                static_cast<long long>(ColdFallbackBatches),
                static_cast<long long>(ColdSt.InterpFallbacks),
                static_cast<long long>(ColdSt.ChunkedBatches));
  }

  // Everything below measures the warm steady state.
  double WarmupBudget = std::max(120.0, 10 * O.DurationSec);
  if (!Srv.waitAllClassesReady(std::chrono::milliseconds(
          static_cast<int64_t>(WarmupBudget * 1e3)))) {
    std::fprintf(stderr,
                 "serve_loadgen: shape classes still cold after %.0fs\n",
                 WarmupBudget);
    return 1;
  }
  if (O.Cold)
    std::printf("cold start:          all %zu classes ready in %.2f s\n",
                Srv.batchSizes().size(), Srv.allReadySec());

  // --- phase 1: sequential single-request baseline -----------------------
  compiler::CompileOptions InferCO = CO;
  InferCO.Inference = true;
  engine::ExecOptions SeqEO;
  SeqEO.Seed = ParamSeed;
  engine::Executor Seq(
      compiler::ProgramCache::instance()
          .getOrCompile(Spec, InferCO, 1)
          ->clone(),
      SeqEO);
  Seq.setInput(Pool[0]);
  Seq.forward(); // warmup (JIT load, lazy zero schedule)
  int64_t SeqIters = 0;
  Timer SeqWall;
  while (SeqWall.seconds() < O.DurationSec) {
    Seq.setInput(Pool[static_cast<size_t>(SeqIters) % Pool.size()]);
    Seq.forward();
    ++SeqIters;
  }
  double SeqRps = static_cast<double>(SeqIters) / SeqWall.seconds();
  std::printf("sequential baseline: %6.1f req/s (batch 1, %lld reqs)\n",
              SeqRps, static_cast<long long>(SeqIters));

  // Correctness smoke: a served row must match the sequential executor's
  // forward on the same item and the same weights, bitwise.
  {
    std::future<serve::Response> F;
    if (!Srv.submit(Pool[0], &F)) {
      std::fprintf(stderr, "serve_loadgen: smoke submit was shed\n");
      return 1;
    }
    serve::Response Resp = F.get();
    Seq.setInput(Pool[0]);
    Seq.forward();
    Tensor Ref = Seq.readBuffer(Seq.program().ProbBuffer);
    if (Resp.St != serve::Status::Ok ||
        Resp.Output.numElements() != Ref.numElements() ||
        std::memcmp(Resp.Output.data(), Ref.data(),
                    sizeof(float) * static_cast<size_t>(Ref.numElements())) !=
            0) {
      std::fprintf(stderr,
                   "serve_loadgen: served output differs from sequential "
                   "forward (weight sharing or padding is broken)\n");
      return 1;
    }
  }

  // Post-warmup baseline for the deadline-miss gate: cold-phase and
  // warmup traffic does not count against it.
  serve::ServeStats WarmBase = Srv.stats();

  // --- phase 2: saturation throughput ------------------------------------
  // Bulk priority: saturation deliberately builds queues, which is what
  // the generous Bulk deadline budget is for.
  serve::SubmitOptions SatSub;
  SatSub.Pri = serve::Priority::Bulk;
  const size_t Window = 4 * static_cast<size_t>(Srv.maxBatch());
  std::deque<std::future<serve::Response>> Outstanding;
  int64_t Done = 0, Next = 0;
  Timer Wall;
  while (Wall.seconds() < O.DurationSec) {
    while (Outstanding.size() < Window) {
      std::future<serve::Response> F;
      if (!Srv.submit(Pool[static_cast<size_t>(Next++) % Pool.size()], &F,
                      SatSub))
        break; // shed: drain before retrying
      Outstanding.push_back(std::move(F));
    }
    if (!Outstanding.empty()) {
      Outstanding.front().get();
      Outstanding.pop_front();
      ++Done;
    }
  }
  while (!Outstanding.empty()) {
    Outstanding.front().get();
    Outstanding.pop_front();
    ++Done;
  }
  double ServeRps = static_cast<double>(Done) / Wall.seconds();
  double Speedup = SeqRps > 0 ? ServeRps / SeqRps : 0;
  std::printf("saturated serving:   %6.1f req/s (window %zu, %lld reqs)  "
              "speedup %.2fx\n",
              ServeRps, Window, static_cast<long long>(Done), Speedup);

  // --- phase 3: open-loop latency at a fraction of peak ------------------
  // Deadline budgets scale with the host's own service time so the soak
  // gate measures scheduling, not machine speed: an Interactive request
  // gets ~2 full max-batch runs of slack, Standard 4x, Bulk 40x.
  double ItemSec = SeqRps > 0 ? 1.0 / SeqRps : 0.01;
  const int64_t IntUs = std::max<int64_t>(
      100'000, static_cast<int64_t>(2e6 * ItemSec *
                                    static_cast<double>(Srv.maxBatch())));
  const serve::SubmitOptions ClassSub[3] = {
      {serve::Priority::Interactive, IntUs},
      {serve::Priority::Standard, 4 * IntUs},
      {serve::Priority::Bulk, 40 * IntUs},
  };
  // Interactive 25% / Standard 50% / Bulk 25% when --mixed; all Standard
  // otherwise.
  const int MixPattern[4] = {0, 1, 1, 2};
  double Rate = std::max(1.0, O.RateFrac * ServeRps);
  auto Interval = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / Rate));
  struct Pending {
    std::chrono::steady_clock::time_point Submit;
    int Class = 1;
    std::future<serve::Response> Fut;
  };
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Pending> Queue;
  bool ProducerDone = false;
  std::vector<double> Lats, ClassLats[3];
  int64_t LatFailed = 0;
  std::thread Collector([&] {
    for (;;) {
      Pending P;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return !Queue.empty() || ProducerDone; });
        if (Queue.empty())
          return;
        P = std::move(Queue.front());
        Queue.pop_front();
      }
      serve::Response R = P.Fut.get();
      double Sec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - P.Submit)
                       .count();
      if (R.St == serve::Status::Ok) {
        Lats.push_back(Sec);
        ClassLats[P.Class].push_back(Sec);
      } else {
        ++LatFailed;
      }
    }
  });
  Timer LatWall;
  auto NextArrival = std::chrono::steady_clock::now();
  int64_t LatShed = 0, Seq3 = 0;
  while (LatWall.seconds() < O.DurationSec) {
    std::this_thread::sleep_until(NextArrival);
    NextArrival += Interval; // open loop: the schedule never slips
    Pending P;
    P.Class = O.Mixed ? MixPattern[Seq3 % 4] : 1;
    ++Seq3;
    P.Submit = std::chrono::steady_clock::now();
    if (!Srv.submit(Pool[static_cast<size_t>(Next++) % Pool.size()], &P.Fut,
                    ClassSub[P.Class])) {
      ++LatShed;
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
    ProducerDone = true;
  }
  Cv.notify_all();
  Collector.join();
  serve::ServeStats St = Srv.stats(); // final snapshot before stop()
  Srv.stop();

  std::sort(Lats.begin(), Lats.end());
  double P50 = percentile(Lats, 0.50), P99 = percentile(Lats, 0.99);
  double LatencyNorm = P50 * SeqRps;
  std::printf("open-loop latency:   %6.1f req/s offered, p50 %.2f ms, "
              "p99 %.2f ms (%zu reqs, %lld shed)\n",
              Rate, P50 * 1e3, P99 * 1e3, Lats.size(),
              static_cast<long long>(LatShed));
  if (O.Mixed) {
    const char *Names[3] = {"interactive", "standard", "bulk"};
    for (int C = 0; C < 3; ++C) {
      std::sort(ClassLats[C].begin(), ClassLats[C].end());
      std::printf("  %-12s %5zu reqs, p50 %.2f ms (deadline %lld ms)\n",
                  Names[C], ClassLats[C].size(),
                  percentile(ClassLats[C], 0.50) * 1e3,
                  static_cast<long long>(ClassSub[C].DeadlineMicros / 1000));
    }
  }

  // --- report -------------------------------------------------------------
  const int64_t PostWarmMisses = (St.DeadlineMissed - WarmBase.DeadlineMissed) +
                                 (St.DeadlineShed - WarmBase.DeadlineShed);
  const compiler::MemoryPlan &InferPlan = Srv.program(Srv.maxBatch()).Plan;
  // Training compile of the same net at the same batch size, for the arena
  // comparison the serving mode exists to win.
  core::Net TrainNet(Srv.maxBatch());
  models::buildLatte(TrainNet, Spec, /*WithLoss=*/true);
  compiler::Program TrainProg = compiler::compile(TrainNet, CO);
  std::printf("inference arena:     %.1f MB (training arena at batch %lld: "
              "%.1f MB)\n",
              double(InferPlan.ArenaBytes) / 1e6,
              static_cast<long long>(Srv.maxBatch()),
              double(TrainProg.Plan.ArenaBytes) / 1e6);
  std::printf("batches: %lld (padded slots %lld, full flushes %lld, "
              "deadline flushes %lld)\n",
              static_cast<long long>(St.Batches),
              static_cast<long long>(St.PaddedSlots),
              static_cast<long long>(St.FullFlushes),
              static_cast<long long>(St.DeadlineFlushes));
  std::printf("degradation: shed %lld, deadline-shed %lld, deadline-missed "
              "%lld (post-warmup %lld), interp fallbacks %lld, chunked "
              "%lld, classes installed %lld\n",
              static_cast<long long>(St.Shed),
              static_cast<long long>(St.DeadlineShed),
              static_cast<long long>(St.DeadlineMissed),
              static_cast<long long>(PostWarmMisses),
              static_cast<long long>(St.InterpFallbacks),
              static_cast<long long>(St.ChunkedBatches),
              static_cast<long long>(St.ClassesInstalled));

  if (!O.JsonPath.empty()) {
    json::Value Doc = json::Value::object();
    Doc.set("schema", "latte-bench-v1");
    Doc.set("figure", "serve");
    Doc.set("git_sha", gitSha());
    Doc.set("host", hostInfoJson());
    json::Value Config = json::Value::object();
    Config.set("scale", O.Scale);
    Config.set("replicas", O.Replicas);
    json::Value Sizes = json::Value::array();
    for (int64_t BS : Srv.batchSizes())
      Sizes.push(BS);
    Config.set("batch_sizes", std::move(Sizes));
    Config.set("deadline_us", O.DeadlineUs);
    Config.set("duration_sec", O.DurationSec);
    Config.set("rate_frac", O.RateFrac);
    Config.set("jit", O.Jit);
    Config.set("cold", O.Cold);
    Config.set("mixed", O.Mixed);
    Doc.set("config", std::move(Config));

    json::Value Rows = json::Value::array();
    auto Row = [&](const std::string &Label) {
      json::Value R = json::Value::object();
      R.set("label", Label);
      return R;
    };
    json::Value SeqRow = Row("seq_batch1");
    SeqRow.set("total_sec", SeqRps > 0 ? 1.0 / SeqRps : 0.0);
    SeqRow.set("rps", SeqRps);
    Rows.push(std::move(SeqRow));
    json::Value ThrRow = Row("serve_throughput");
    ThrRow.set("total_sec", ServeRps > 0 ? 1.0 / ServeRps : 0.0);
    ThrRow.set("rps", ServeRps);
    ThrRow.set("speedup", Speedup);
    Rows.push(std::move(ThrRow));
    json::Value P50Row = Row("serve_p50");
    P50Row.set("total_sec", P50);
    P50Row.set("latency_norm", LatencyNorm);
    Rows.push(std::move(P50Row));
    json::Value P99Row = Row("serve_p99");
    P99Row.set("total_sec", P99);
    Rows.push(std::move(P99Row));
    json::Value ArenaRow = Row("serve_arena");
    ArenaRow.set("arena_bytes", InferPlan.ArenaBytes);
    ArenaRow.set("eager_bytes", InferPlan.EagerBytes);
    Rows.push(std::move(ArenaRow));
    Doc.set("rows", std::move(Rows));

    json::Value Serve = json::Value::object();
    Serve.set("seq_rps", SeqRps);
    Serve.set("serve_rps", ServeRps);
    Serve.set("speedup", Speedup);
    Serve.set("p50_sec", P50);
    Serve.set("p99_sec", P99);
    Serve.set("latency_norm", LatencyNorm);
    Serve.set("infer_arena_bytes", InferPlan.ArenaBytes);
    Serve.set("train_arena_bytes", TrainProg.Plan.ArenaBytes);
    Serve.set("batches", St.Batches);
    Serve.set("completed", St.Completed);
    Serve.set("padded_slots", St.PaddedSlots);
    Serve.set("shed", St.Shed);
    Serve.set("deadline_shed", St.DeadlineShed);
    Serve.set("deadline_missed", St.DeadlineMissed);
    Serve.set("post_warmup_misses", PostWarmMisses);
    Serve.set("interp_fallbacks", St.InterpFallbacks);
    Serve.set("chunked_batches", St.ChunkedBatches);
    Serve.set("classes_installed", St.ClassesInstalled);
    Serve.set("all_ready_sec", Srv.allReadySec());
    Serve.set("full_flushes", St.FullFlushes);
    Serve.set("deadline_flushes", St.DeadlineFlushes);
    Serve.set("busy_sec", St.BusySec);
    if (O.Cold) {
      json::Value ColdObj = json::Value::object();
      ColdObj.set("requests", ColdRequests);
      ColdObj.set("first_response_sec", ColdFirstRespSec);
      ColdObj.set("fallback_batches", ColdFallbackBatches);
      Serve.set("cold", std::move(ColdObj));
    }
    json::Value Fill = json::Value::object();
    for (const auto &[BS, Hist] : St.Fill) {
      json::Value H = json::Value::object();
      for (const auto &[F, N] : Hist)
        H.set(std::to_string(F), N);
      Fill.set(std::to_string(BS), std::move(H));
    }
    Serve.set("batch_fill", std::move(Fill));
    Doc.set("serve", std::move(Serve));

    std::string Err;
    if (prof::writeJsonFile(O.JsonPath, Doc, &Err))
      std::printf("wrote %s\n", O.JsonPath.c_str());
    else {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 1;
    }
  }
  if (!O.TracePath.empty()) {
    std::string Err;
    if (prof::writeChromeTrace(O.TracePath, &Err))
      std::printf("wrote %s (load in chrome://tracing)\n",
                  O.TracePath.c_str());
    else {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 1;
    }
  }

  int Rc = 0;
  if (O.CheckSpeedup > 0 && Speedup < O.CheckSpeedup) {
    std::fprintf(stderr,
                 "serve_loadgen: speedup %.2fx is below the required "
                 "%.2fx floor\n",
                 Speedup, O.CheckSpeedup);
    Rc = 1;
  }
  if (O.CheckCold) {
    // The cold phase must prove requests were *served* while classes were
    // still compiling: either a fallback batch ran, or the first response
    // landed before the last class installed. If neither, something
    // serialized requests behind a compile.
    bool ServedEarly =
        ColdFallbackBatches > 0 || ColdFirstRespSec < Srv.allReadySec();
    if (!ServedEarly) {
      std::fprintf(stderr,
                   "serve_loadgen: cold phase served nothing before the "
                   "last class installed (first response %.3fs, all ready "
                   "%.3fs, fallback batches %lld)\n",
                   ColdFirstRespSec, Srv.allReadySec(),
                   static_cast<long long>(ColdFallbackBatches));
      Rc = 1;
    }
  }
  if (O.CheckDeadlineMisses >= 0 && PostWarmMisses > O.CheckDeadlineMisses) {
    std::fprintf(stderr,
                 "serve_loadgen: %lld post-warmup deadline misses/sheds "
                 "exceed the allowed %lld\n",
                 static_cast<long long>(PostWarmMisses),
                 static_cast<long long>(O.CheckDeadlineMisses));
    Rc = 1;
  }
  return Rc;
}
