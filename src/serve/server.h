//===- serve/server.h - Latency-bounded inference serving ------*- C++ -*-===//
///
/// \file
/// The inference serving runtime: single-item requests flow through a
/// deadline-aware micro-batcher (serve/batcher.h) into N executor
/// replicas. Each replica holds one inference-compiled executor per
/// precompiled batch size (1/4/16 by default) and runs the smallest one
/// that fits the popped batch, zero-padding the tail — sound because
/// forward computation is independent per batch item (the compiler's
/// batch loops never mix rows), so padded rows produce garbage in *their
/// own* output rows only.
///
/// Shape-class compilation is asynchronous: only the *floor* program — the
/// smallest batch size, interpreted dispatch when the requested option
/// class includes the JIT — is compiled inline at construction; every
/// other (options, batch size) class is enqueued on a background
/// CompileService (two workers) and installed atomically when ready;
/// waitAllClassesReady blocks until all are. Until then, traffic degrades
/// down an explicit ladder instead of blocking on a compile:
///
///   warm hit -> padded nearest warm batch size -> interpreted-dispatch
///   program (JIT variant still cold) -> chunked runs through the floor
///   -> shed
///
/// All replicas share one set of weight bytes: a weight-master executor
/// owns the parameters and every replica repoints its Param-role buffers
/// at the master's storage (engine::Executor::shareParamsFrom), so memory
/// scales as one weight set plus N small forward-only activation arenas.
///
/// Compiled programs come from the process-global
/// compiler::ProgramCache keyed by (graph fingerprint, compile-option
/// class, batch size); its per-key single-flight means N replicas — or N
/// servers — missing one cold class trigger exactly one compile.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SERVE_SERVER_H
#define LATTE_SERVE_SERVER_H

#include "compiler/compiler.h"
#include "compiler/program_cache.h"
#include "engine/executor.h"
#include "models/models.h"
#include "serve/batcher.h"
#include "serve/compile_service.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace latte {
namespace serve {

/// The compile cache moved to the compiler layer (it memoizes compiles,
/// not serving state); the alias keeps the historical serve:: spelling
/// working.
using ProgramCache = compiler::ProgramCache;

struct ServeOptions {
  /// Executor replicas (worker threads). Each owns one arena per batch
  /// size; weights are shared with the master, never copied.
  int Replicas = 2;
  /// Precompiled batch sizes; sorted and deduplicated at construction.
  /// The largest is the micro-batcher's flush size.
  std::vector<int64_t> BatchSizes = {1, 4, 16};
  /// Max time the oldest queued request waits before a partial batch is
  /// released (the latency bound under sparse traffic).
  int64_t FlushDeadlineMicros = 2000;
  /// Pending-request shed threshold.
  size_t QueueCapacity = 4096;
  /// Default service-deadline budget per priority class (micros), indexed
  /// by serve::Priority. A request whose SubmitOptions does not pin an
  /// explicit deadline gets `now + ClassDeadlineMicros[class]`. Generous
  /// defaults: sanitizer CI runs the threading tests at a fraction of
  /// release speed.
  int64_t ClassDeadlineMicros[NumPriorities] = {100'000, 1'000'000,
                                                10'000'000};
  /// Weight initialization seed (initParams on the weight master).
  uint64_t ParamSeed = 0x5eed;
  /// Engine options for every replica executor (Profile works — the
  /// global profiler keeps per-thread span buffers, so concurrent replica
  /// forwards record safely; the weight master never serves and has it
  /// forced off).
  engine::ExecOptions Exec;
};

/// Per-request scheduling knobs for Server::submit.
struct SubmitOptions {
  Priority Pri = Priority::Standard;
  /// Explicit service-deadline budget (micros) from submission time;
  /// 0 = the class default from ServeOptions::ClassDeadlineMicros.
  int64_t DeadlineMicros = 0;
};

struct ServeStats {
  int64_t Submitted = 0; ///< admitted requests
  int64_t Shed = 0;      ///< rejected at capacity
  int64_t Completed = 0; ///< fulfilled promises (Status::Ok)
  int64_t Batches = 0;
  int64_t PaddedSlots = 0; ///< zero rows run for tail batches
  int64_t FullFlushes = 0;
  int64_t DeadlineFlushes = 0;
  int64_t DeadlineShed = 0;    ///< failed early with Status::DeadlineShed
  int64_t ShutdownFailed = 0;  ///< failed with Status::Shutdown at stop()
  int64_t DeadlineMissed = 0;  ///< served, but completed past the deadline
  int64_t InterpFallbacks = 0; ///< batches served by the interpreted
                               ///< fallback while the JIT class was cold
  int64_t ChunkedBatches = 0;  ///< batches split into multiple runs of a
                               ///< smaller warm executor (cold class)
  int64_t ClassesInstalled = 0; ///< shape classes installed asynchronously
  /// batch size ran -> (items carried -> count). The batch-fill histogram
  /// of the bench report: Fill[16][16] counts full batches, Fill[16][9] a
  /// 9-item tail run at size 16.
  std::map<int64_t, std::map<int64_t, int64_t>> Fill;
  /// Wall seconds spent inside Executor::forward across all replicas.
  double BusySec = 0.0;
};

class Server {
public:
  /// Compiles (or cache-hits) the floor program inline, enqueues every
  /// other shape class on the background compile service, and builds
  /// Replicas x BatchSizes executor slots wired for weight sharing.
  /// Does not start worker threads — call start().
  Server(const models::ModelSpec &Spec, const compiler::CompileOptions &CO,
         const ServeOptions &SO);
  ~Server(); ///< stops and joins if still running

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  void start();
  /// Stops the compile service, fails queued requests with
  /// Status::Shutdown, joins workers. Idempotent.
  void stop();

  /// Submits one item (shape must match the spec's InputDims element
  /// count). Returns whether it was admitted (false = shed at capacity;
  /// the future is untouched); on admission *Out receives the future for
  /// the Response (Status + {NumClasses} probability row).
  bool submit(Tensor Item, std::future<Response> *Out,
              SubmitOptions SO = {});

  /// Copies trained weights (by Param buffer name) into the weight master;
  /// visible to all replicas immediately through pointer sharing — and to
  /// replicas installed later, which point at the same master bytes. Call
  /// before start().
  void loadParamsFrom(const engine::Executor &Trained);

  ServeStats stats() const;
  const models::ModelSpec &spec() const { return Spec; }
  int64_t maxBatch() const { return BatchSizes.back(); }
  const std::vector<int64_t> &batchSizes() const { return BatchSizes; }

  /// True once every primary shape class (one per batch size) has been
  /// compiled and its replica executors installed.
  bool allClassesReady() const;
  /// Seconds from construction until the last primary class installed
  /// (0 until allClassesReady()).
  double allReadySec() const;
  /// Blocks until allClassesReady() or \p Timeout elapses; returns
  /// whether everything installed.
  bool waitAllClassesReady(std::chrono::milliseconds Timeout) const;

  // --- introspection (tests / bench) --------------------------------------

  /// The primary program of \p BatchSize. Fatal if that class has not
  /// been installed yet (see allClassesReady()).
  const compiler::Program &program(int64_t BatchSize) const;
  const engine::Executor &weightMaster() const { return *Master; }
  engine::Executor &weightMaster() { return *Master; }
  const engine::Executor &replicaExecutor(int Replica,
                                          int64_t BatchSize) const;
  /// Sum of per-replica forward-only arena bytes across installed
  /// executors (the serving activation footprint, excluding the shared
  /// weights).
  int64_t replicaArenaBytes() const;

private:
  struct Replica {
    /// Primary executors (requested option class), BatchSizes order;
    /// slots are null until their shape class installs.
    std::vector<std::unique_ptr<engine::Executor>> Execs;
    /// Interpreted-dispatch fallbacks (only when the requested class has
    /// Jit): same batch sizes, JIT stripped.
    std::vector<std::unique_ptr<engine::Executor>> InterpExecs;
    std::thread Worker;
  };

  /// Which executor a popped batch runs on, per the degradation ladder.
  struct Pick {
    engine::Executor *Ex = nullptr;
    int64_t BatchSize = 0;
    bool Interp = false;  ///< served by the interpreted fallback
    bool Chunked = false; ///< batch must be split into BatchSize chunks
  };

  void workerLoop(Replica &Rep);
  Pick pickExecutor(Replica &Rep, int64_t Fill);
  void runBatch(Replica &Rep, std::vector<Request> Batch);
  /// Creates and publishes the per-replica executors of one shape class
  /// (called on the compile thread; atomic via release flags).
  void installClass(size_t BI, bool Interp,
                    compiler::ProgramCache::ProgramPtr Prog);
  void enqueueBackgroundCompiles();

  models::ModelSpec Spec;
  compiler::CompileOptions CompileOpts;
  ServeOptions Opts;
  std::vector<int64_t> BatchSizes; ///< sorted, deduplicated
  int64_t ItemElems = 0;           ///< input elements per item
  int64_t ClassElems = 0;          ///< output elements per item

  /// Primary programs per batch size (null until installed).
  std::vector<compiler::ProgramCache::ProgramPtr> Programs;
  std::vector<compiler::ProgramCache::ProgramPtr> InterpPrograms;
  /// Publication flags: set with release order after the slot's
  /// executors exist in every replica; workers read with acquire.
  std::unique_ptr<std::atomic<bool>[]> PrimaryReady;
  std::unique_ptr<std::atomic<bool>[]> InterpReady;
  std::atomic<int> ReadyPrimaries{0};
  std::chrono::steady_clock::time_point Constructed;
  std::atomic<int64_t> AllReadyNanos{0}; ///< 0 = not all ready yet

  std::unique_ptr<engine::Executor> Master; ///< owns the weights
  std::vector<Replica> Replicas;
  std::unique_ptr<CompileService> Compiles;
  std::atomic<bool> Stopping{false};

  std::unique_ptr<MicroBatcher> Batcher;
  bool Running = false;

  mutable std::mutex StatsMu;
  ServeStats Stats;
};

} // namespace serve
} // namespace latte

#endif // LATTE_SERVE_SERVER_H
