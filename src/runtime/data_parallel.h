//===- runtime/data_parallel.h - Intra-node data parallelism --*- C++ -*-===//
///
/// \file
/// The first level of the Latte runtime's hierarchical data parallelism
/// (§6): several workers inside one process, each holding a replica of the
/// compiled network, splitting every global batch and synchronizing
/// gradients by summation. Two synchronization modes reproduce §3.1:
///
///  - Synchronized: per-worker gradients are reduced under a lock — the
///    deterministic default.
///  - Lossy: workers accumulate into the shared gradient buffers without
///    synchronization, racing as in Project Adam; the Figure 20 experiment
///    shows the resulting noise does not hurt accuracy.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_RUNTIME_DATA_PARALLEL_H
#define LATTE_RUNTIME_DATA_PARALLEL_H

#include "compiler/compiler.h"
#include "engine/executor.h"
#include "solvers/solvers.h"
#include "support/thread_pool.h"

#include <functional>
#include <memory>
#include <vector>

namespace latte {
namespace runtime {

struct DataParallelOptions {
  int NumWorkers = 2;
  bool LossyGradients = false;
  uint64_t Seed = 0x5eed;
  compiler::CompileOptions Compile;
};

/// Builds the model into \p Net (whose batch size is the per-worker
/// share).
using NetBuilder = std::function<void(core::Net &Net)>;

/// Replicated data-parallel trainer.
class DataParallelTrainer {
public:
  /// \p GlobalBatch must be divisible by the worker count.
  DataParallelTrainer(const NetBuilder &Builder, int64_t GlobalBatch,
                      DataParallelOptions Opts);

  int64_t globalBatch() const { return GlobalBatch; }
  int numWorkers() const { return static_cast<int>(Workers.size()); }
  engine::Executor &worker(int I) { return *Workers[I]; }

  /// One training step over a global batch: scatter, forward/backward on
  /// every worker in parallel, gradient summation, solver update on the
  /// master replica, parameter broadcast. Returns the mean loss.
  double trainStep(const Tensor &Data, const Tensor &Labels,
                   solvers::SgdSolver &S, int64_t Iter);

  /// Mean accuracy over the last step's forward passes.
  double lastAccuracy() const { return LastAccuracy; }

private:
  int64_t GlobalBatch;
  DataParallelOptions Opts;
  std::vector<std::unique_ptr<engine::Executor>> Workers;
  ThreadPool Pool;
  /// Shared gradient accumulators (one per parameter, master layout).
  std::vector<Tensor> SharedGrads;
  double LastAccuracy = 0.0;
};

} // namespace runtime
} // namespace latte

#endif // LATTE_RUNTIME_DATA_PARALLEL_H
