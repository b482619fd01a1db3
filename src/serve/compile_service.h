//===- serve/compile_service.h - Background shape-class compiles -*- C++ -*-===//
///
/// \file
/// A dedicated compile thread pool that takes shape-class compilation off
/// the request path: ProgramCache misses are enqueued here, a worker
/// compiles through compiler::ProgramCache (whose per-key single-flight
/// means N concurrent requests for one cold class cost one compile), and
/// a completion callback installs the finished program — the Server uses
/// it to atomically publish new replica executors while live traffic is
/// served by the fallback ladder (padded nearest warm batch size, or the
/// interpreted-dispatch program when only the JIT'd variant is cold).
///
/// stop() drops jobs that have not started (their callbacks never run)
/// and joins workers after their current compile finishes; a compile
/// cannot be interrupted mid-flight.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SERVE_COMPILE_SERVICE_H
#define LATTE_SERVE_COMPILE_SERVICE_H

#include "compiler/program_cache.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace latte {
namespace serve {

class CompileService {
public:
  using Done = std::function<void(compiler::ProgramCache::ProgramPtr)>;

  /// Spawns \p Threads compile workers (clamped to >= 1).
  explicit CompileService(int Threads = 2);
  ~CompileService(); ///< stop() if still running

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Enqueues a shape-class compile. \p OnReady runs on the compile thread
  /// with the finished (possibly cache-shared) program. Jobs enqueued
  /// after stop() are dropped silently.
  void enqueue(models::ModelSpec Spec, compiler::CompileOptions Opts,
               int64_t BatchSize, Done OnReady);

  /// Stops accepting work, drops not-yet-started jobs, and joins the
  /// workers once their in-flight compiles finish. Idempotent.
  void stop();

private:
  struct Job {
    models::ModelSpec Spec;
    compiler::CompileOptions Opts;
    int64_t BatchSize = 0;
    Done OnReady;
  };

  void workerLoop();

  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Job> Queue;
  std::vector<std::thread> Workers;
  bool Stopped = false;
};

} // namespace serve
} // namespace latte

#endif // LATTE_SERVE_COMPILE_SERVICE_H
