//===- serve/compile_service.cpp ------------------------------*- C++ -*-===//

#include "serve/compile_service.h"

using namespace latte;
using namespace latte::serve;

CompileService::CompileService(int Threads) {
  if (Threads < 1)
    Threads = 1;
  Workers.reserve(static_cast<size_t>(Threads));
  for (int I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService() { stop(); }

void CompileService::enqueue(models::ModelSpec Spec,
                             compiler::CompileOptions Opts, int64_t BatchSize,
                             Done OnReady) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopped)
      return;
    Queue.push_back(Job{std::move(Spec), Opts, BatchSize, std::move(OnReady)});
  }
  Cv.notify_one();
}

void CompileService::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [this] { return Stopped || !Queue.empty(); });
      if (Stopped)
        return; // stop() drops the pending jobs
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    // The cache's single-flight makes duplicate enqueues of one shape
    // class cost a single compile; distinct classes compile in parallel
    // across the pool.
    compiler::ProgramCache::ProgramPtr Prog =
        compiler::ProgramCache::instance().getOrCompile(J.Spec, J.Opts,
                                                        J.BatchSize);
    if (J.OnReady)
      J.OnReady(std::move(Prog));
  }
}

void CompileService::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stopped && Workers.empty())
      return;
    Stopped = true;
    Queue.clear();
  }
  Cv.notify_all();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  Workers.clear();
}
