//===- support/thread_pool.h - Simple fork-join thread pool ---*- C++ -*-===//
///
/// \file
/// A small fork-join pool used by the data-parallel runtime (worker replicas,
/// gradient reduction). Tasks are submitted as a parallel-for over an index
/// range. The engine does not use it: without OpenMP it runs every
/// parallel-annotated loop serially (forkParallelLoops, engine/executor.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SUPPORT_THREAD_POOL_H
#define LATTE_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace latte {

class ThreadPool {
public:
  /// Creates a pool with \p NumThreads workers (defaults to hardware
  /// concurrency, at least 1).
  explicit ThreadPool(int NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int numThreads() const { return static_cast<int>(Workers.size()) + 1; }

  /// Runs Fn(I) for I in [0, N), splitting the range statically across the
  /// pool (the calling thread participates). Blocks until all complete.
  /// Nested calls (from inside a running parallelFor/parallelRun job)
  /// execute the whole range serially on the calling thread.
  void parallelFor(int64_t N, const std::function<void(int64_t)> &Fn);

  /// Runs Fn(ThreadIndex) once on every pool thread plus the caller.
  /// ThreadIndex ranges over [0, numThreads()). Nested calls run
  /// Fn(0) inline on the calling thread only.
  void parallelRun(const std::function<void(int)> &Fn);

private:
  struct Job {
    std::function<void(int)> Run; // argument: worker index (1-based)
    uint64_t Epoch = 0;
  };

  void workerLoop(int WorkerIndex);

  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable JobDone;
  std::function<void(int)> Current;
  uint64_t Epoch = 0;
  int Remaining = 0;
  bool ShuttingDown = false;
};

} // namespace latte

#endif // LATTE_SUPPORT_THREAD_POOL_H
