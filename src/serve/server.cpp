//===- serve/server.cpp ---------------------------------------*- C++ -*-===//

#include "serve/server.h"

#include "support/error.h"
#include "support/timer.h"

#include <algorithm>
#include <cstring>
#include <thread>

using namespace latte;
using namespace latte::serve;

/// Workers in each server's background compile pool.
static constexpr int kCompileThreads = 2;

Server::Server(const models::ModelSpec &Spec,
               const compiler::CompileOptions &CO, const ServeOptions &SO)
    : Spec(Spec), CompileOpts(CO), Opts(SO), BatchSizes(SO.BatchSizes) {
  CompileOpts.Inference = true;
  std::sort(BatchSizes.begin(), BatchSizes.end());
  BatchSizes.erase(std::unique(BatchSizes.begin(), BatchSizes.end()),
                   BatchSizes.end());
  if (BatchSizes.empty() || BatchSizes.front() <= 0)
    reportFatalError("Server: BatchSizes must be non-empty and positive");
  if (Opts.Replicas <= 0)
    reportFatalError("Server: Replicas must be positive");

  ItemElems = Spec.InputDims.numElements();
  ClassElems = Spec.NumClasses;
  Constructed = std::chrono::steady_clock::now();

  const size_t N = BatchSizes.size();
  Programs.resize(N);
  InterpPrograms.resize(N);
  PrimaryReady = std::make_unique<std::atomic<bool>[]>(N);
  InterpReady = std::make_unique<std::atomic<bool>[]>(N);
  for (size_t I = 0; I < N; ++I) {
    PrimaryReady[I].store(false, std::memory_order_relaxed);
    InterpReady[I].store(false, std::memory_order_relaxed);
  }

  // The floor of the degradation ladder compiles inline: the smallest
  // batch size, with interpreted dispatch when the requested class wants
  // the JIT (a .so compile is exactly the latency we refuse to put on the
  // request path). Everything else is background work.
  compiler::CompileOptions InterpCO = CompileOpts;
  InterpCO.Jit = false;
  compiler::ProgramCache::ProgramPtr Floor =
      compiler::ProgramCache::instance().getOrCompile(Spec, InterpCO,
                                                      BatchSizes[0]);

  // The weight master: owns the parameter bytes every replica points at.
  // Any program of the family works (identical parameter declarations);
  // it never serves traffic itself.
  engine::ExecOptions MasterEO = Opts.Exec;
  MasterEO.Seed = Opts.ParamSeed;
  MasterEO.Profile = false;
  Master = std::make_unique<engine::Executor>(Floor->clone(), MasterEO);

  // Replica slots. Cold classes stay null until installClass publishes
  // them; the floor is wired immediately so traffic can flow from the
  // first submit.
  Replicas.resize(static_cast<size_t>(Opts.Replicas));
  for (Replica &Rep : Replicas) {
    Rep.Execs.resize(N);
    Rep.InterpExecs.resize(N);
  }
  installClass(0, /*Interp=*/CompileOpts.Jit, Floor);

  Batcher = std::make_unique<MicroBatcher>(
      BatchSizes.back(), std::chrono::microseconds(Opts.FlushDeadlineMicros),
      Opts.QueueCapacity);

  Compiles = std::make_unique<CompileService>(kCompileThreads);
  enqueueBackgroundCompiles();
}

void Server::enqueueBackgroundCompiles() {
  const size_t N = BatchSizes.size();
  const bool Jit = CompileOpts.Jit;
  compiler::CompileOptions InterpCO = CompileOpts;
  InterpCO.Jit = false;
  auto Submit = [&](size_t BI, bool Interp) {
    const compiler::CompileOptions &CO = Interp ? InterpCO : CompileOpts;
    Compiles->enqueue(Spec, CO, BatchSizes[BI],
                      [this, BI, Interp](compiler::ProgramCache::ProgramPtr P) {
                        installClass(BI, Interp, std::move(P));
                      });
  };
  // Queue order is the ladder's build-out order: the primary floor class
  // first (when the JIT floor is still interpreted), then the cheap
  // interpreted variants of the larger sizes (wider padding targets
  // early), then the remaining primaries, ascending.
  if (Jit)
    Submit(0, /*Interp=*/false);
  if (Jit)
    for (size_t BI = 1; BI < N; ++BI)
      Submit(BI, /*Interp=*/true);
  for (size_t BI = 1; BI < N; ++BI)
    Submit(BI, /*Interp=*/false);
}

void Server::installClass(size_t BI, bool Interp,
                          compiler::ProgramCache::ProgramPtr Prog) {
  if (Stopping.load(std::memory_order_acquire))
    return;
  engine::ExecOptions RepEO = Opts.Exec;
  RepEO.Seed = Opts.ParamSeed;
  (Interp ? InterpPrograms : Programs)[BI] = Prog;
  for (Replica &Rep : Replicas) {
    auto Ex = std::make_unique<engine::Executor>(Prog->clone(), RepEO);
    Ex->shareParamsFrom(*Master);
    (Interp ? Rep.InterpExecs : Rep.Execs)[BI] = std::move(Ex);
  }
  // Publish: the release store pairs with the workers' acquire loads, so
  // a worker that observes the flag sees fully constructed executors.
  (Interp ? InterpReady : PrimaryReady)[BI].store(true,
                                                  std::memory_order_release);
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ClassesInstalled;
  }
  if (!Interp &&
      ReadyPrimaries.fetch_add(1) + 1 == static_cast<int>(BatchSizes.size()))
    AllReadyNanos.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Constructed)
            .count(),
        std::memory_order_release);
}

Server::~Server() { stop(); }

void Server::loadParamsFrom(const engine::Executor &Trained) {
  if (Running)
    reportFatalError("Server::loadParamsFrom: call before start()");
  for (const compiler::BufferInfo &B : Master->program().Buffers)
    if (B.Role == compiler::BufferRole::Param && B.AliasOf.empty())
      Master->writeBuffer(B.Name, Trained.readBuffer(B.Name));
}

void Server::start() {
  if (Running)
    return;
  Running = true;
  for (Replica &Rep : Replicas)
    Rep.Worker = std::thread([this, &Rep] { workerLoop(Rep); });
}

void Server::stop() {
  Stopping.store(true, std::memory_order_release);
  // Compile workers first: after this join no install callback can run,
  // so the executor slots are quiescent while the serve workers drain.
  Compiles->stop();
  if (Batcher)
    Batcher->stop(); // fails queued requests with Status::Shutdown
  for (Replica &Rep : Replicas)
    if (Rep.Worker.joinable())
      Rep.Worker.join();
  Running = false;
}

bool Server::submit(Tensor Item, std::future<Response> *Out,
                    SubmitOptions SO) {
  if (Item.numElements() != ItemElems)
    reportFatalError("Server::submit: item has " +
                     std::to_string(Item.numElements()) + " elements, spec '" +
                     Spec.Name + "' expects " + std::to_string(ItemElems));
  int64_t BudgetUs = SO.DeadlineMicros > 0
                         ? SO.DeadlineMicros
                         : Opts.ClassDeadlineMicros[static_cast<int>(SO.Pri)];
  Request R;
  R.Input = std::move(Item);
  R.Pri = SO.Pri;
  R.Deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(BudgetUs);
  std::future<Response> Fut = R.Result.get_future();
  if (!Batcher->enqueue(std::move(R))) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.Shed;
    return false;
  }
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.Submitted;
  }
  if (Out)
    *Out = std::move(Fut);
  return true;
}

Server::Pick Server::pickExecutor(Replica &Rep, int64_t Fill) {
  const size_t N = BatchSizes.size();
  Pick P;
  // Rung 1: smallest warm primary class that fits (pad the tail).
  for (size_t BI = 0; BI < N; ++BI)
    if (BatchSizes[BI] >= Fill &&
        PrimaryReady[BI].load(std::memory_order_acquire)) {
      P.Ex = Rep.Execs[BI].get();
      P.BatchSize = BatchSizes[BI];
      return P;
    }
  // Rung 2: interpreted-dispatch fallback of a fitting size — the JIT'd
  // variant is still cold, serve through the interpreter instead of
  // blocking on the .so compile.
  for (size_t BI = 0; BI < N; ++BI)
    if (BatchSizes[BI] >= Fill &&
        InterpReady[BI].load(std::memory_order_acquire)) {
      P.Ex = Rep.InterpExecs[BI].get();
      P.BatchSize = BatchSizes[BI];
      P.Interp = true;
      return P;
    }
  // Rung 3: nothing fitting is warm — chunk the batch through the largest
  // warm executor (primary preferred). The floor class compiled at
  // construction, so a warm rung always exists.
  for (size_t BI = N; BI-- > 0;)
    if (PrimaryReady[BI].load(std::memory_order_acquire)) {
      P.Ex = Rep.Execs[BI].get();
      P.BatchSize = BatchSizes[BI];
      P.Chunked = true;
      return P;
    }
  for (size_t BI = N; BI-- > 0;)
    if (InterpReady[BI].load(std::memory_order_acquire)) {
      P.Ex = Rep.InterpExecs[BI].get();
      P.BatchSize = BatchSizes[BI];
      P.Interp = true;
      P.Chunked = true;
      return P;
    }
  reportFatalError("Server: no warm executor — the floor class is missing");
}

void Server::runBatch(Replica &Rep, std::vector<Request> Batch) {
  const int64_t Fill = static_cast<int64_t>(Batch.size());
  Pick P = pickExecutor(Rep, Fill);
  const compiler::Program &Prog = P.Ex->program();

  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    if (P.Interp)
      ++Stats.InterpFallbacks;
    if (P.Chunked)
      ++Stats.ChunkedBatches;
  }

  for (int64_t Base = 0; Base < Fill; Base += P.BatchSize) {
    int64_t Count = std::min(P.BatchSize, Fill - Base);
    float *In = P.Ex->data(Prog.DataBuffer);
    for (int64_t I = 0; I < Count; ++I)
      std::memcpy(In + I * ItemElems, Batch[Base + I].Input.data(),
                  sizeof(float) * static_cast<size_t>(ItemElems));
    // Zero-pad the tail: padded rows compute garbage confined to their own
    // output rows (per-item forward independence), which are never read.
    if (Count < P.BatchSize)
      std::memset(In + Count * ItemElems, 0,
                  sizeof(float) *
                      static_cast<size_t>((P.BatchSize - Count) * ItemElems));

    Timer Wall;
    P.Ex->forward();
    double RunSec = Wall.seconds();
    Batcher->noteServiceTime(RunSec);

    auto Done = std::chrono::steady_clock::now();
    int64_t Missed = 0;
    for (int64_t I = 0; I < Count; ++I)
      if (Done > Batch[Base + I].Deadline)
        ++Missed;
    // Stats before fulfillment: a caller that wakes from future.get() and
    // immediately reads stats() must see this chunk accounted for.
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.Batches;
      Stats.Completed += Count;
      Stats.PaddedSlots += P.BatchSize - Count;
      Stats.DeadlineMissed += Missed;
      Stats.BusySec += RunSec;
      ++Stats.Fill[P.BatchSize][Count];
    }

    const float *Prob = P.Ex->data(Prog.ProbBuffer);
    for (int64_t I = 0; I < Count; ++I) {
      Tensor Row(Shape({ClassElems}));
      std::memcpy(Row.data(), Prob + I * ClassElems,
                  sizeof(float) * static_cast<size_t>(ClassElems));
      Batch[Base + I].fulfill(std::move(Row));
    }
  }
}

void Server::workerLoop(Replica &Rep) {
  for (;;) {
    std::vector<Request> Batch = Batcher->popBatch();
    if (Batch.empty())
      return;
    runBatch(Rep, std::move(Batch));
  }
}

ServeStats Server::stats() const {
  ServeStats S;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    S = Stats;
  }
  BatcherStats B = Batcher->stats();
  S.FullFlushes = B.FullFlushes;
  S.DeadlineFlushes = B.DeadlineFlushes;
  S.DeadlineShed = B.DeadlineShed;
  S.ShutdownFailed = B.ShutdownFailed;
  return S;
}

bool Server::allClassesReady() const {
  return ReadyPrimaries.load(std::memory_order_acquire) ==
         static_cast<int>(BatchSizes.size());
}

double Server::allReadySec() const {
  return static_cast<double>(AllReadyNanos.load(std::memory_order_acquire)) *
         1e-9;
}

bool Server::waitAllClassesReady(std::chrono::milliseconds Timeout) const {
  auto Until = std::chrono::steady_clock::now() + Timeout;
  while (!allClassesReady()) {
    if (std::chrono::steady_clock::now() >= Until)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

const compiler::Program &Server::program(int64_t BatchSize) const {
  for (size_t BI = 0; BI < BatchSizes.size(); ++BI)
    if (BatchSizes[BI] == BatchSize) {
      if (!PrimaryReady[BI].load(std::memory_order_acquire))
        reportFatalError("Server::program: batch size " +
                         std::to_string(BatchSize) +
                         " is still cold (background compile pending)");
      return *Programs[BI];
    }
  reportFatalError("Server::program: batch size " + std::to_string(BatchSize) +
                   " is not precompiled");
}

const engine::Executor &Server::replicaExecutor(int R,
                                                int64_t BatchSize) const {
  if (R < 0 || static_cast<size_t>(R) >= Replicas.size())
    reportFatalError("Server::replicaExecutor: bad replica index");
  for (size_t BI = 0; BI < BatchSizes.size(); ++BI)
    if (BatchSizes[BI] == BatchSize) {
      if (!PrimaryReady[BI].load(std::memory_order_acquire))
        reportFatalError("Server::replicaExecutor: batch size " +
                         std::to_string(BatchSize) +
                         " is still cold (background compile pending)");
      return *Replicas[static_cast<size_t>(R)].Execs[BI];
    }
  reportFatalError("Server::replicaExecutor: batch size " +
                   std::to_string(BatchSize) + " is not precompiled");
}

int64_t Server::replicaArenaBytes() const {
  int64_t Total = 0;
  for (const Replica &Rep : Replicas) {
    for (size_t BI = 0; BI < BatchSizes.size(); ++BI) {
      if (PrimaryReady[BI].load(std::memory_order_acquire) &&
          Rep.Execs[BI] && Rep.Execs[BI]->program().Plan.Valid)
        Total += Rep.Execs[BI]->program().Plan.ArenaBytes;
      if (InterpReady[BI].load(std::memory_order_acquire) &&
          Rep.InterpExecs[BI] && Rep.InterpExecs[BI]->program().Plan.Valid)
        Total += Rep.InterpExecs[BI]->program().Plan.ArenaBytes;
    }
  }
  return Total;
}
