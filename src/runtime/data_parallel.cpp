//===- runtime/data_parallel.cpp ------------------------------*- C++ -*-===//

#include "runtime/data_parallel.h"

#include "kernels/elementwise.h"
#include "support/error.h"
#include "support/profile.h"

#include <optional>

using namespace latte;
using namespace latte::runtime;

DataParallelTrainer::DataParallelTrainer(const NetBuilder &Builder,
                                         int64_t GlobalBatch,
                                         DataParallelOptions Opts)
    : GlobalBatch(GlobalBatch), Opts(Opts), Pool(Opts.NumWorkers) {
  if (Opts.NumWorkers <= 0 || GlobalBatch % Opts.NumWorkers != 0)
    reportFatalError("global batch must divide evenly across workers");
  int64_t PerWorker = GlobalBatch / Opts.NumWorkers;
  for (int W = 0; W < Opts.NumWorkers; ++W) {
    core::Net Net(PerWorker);
    Builder(Net);
    engine::ExecOptions EO;
    EO.Seed = Opts.Seed;
    // Workers are the parallelism here; their internal loops stay serial.
    EO.Parallel = false;
    // With Opts.Compile.Jit on, every replica compiles the same per-worker
    // program, so all of them hash to the same JIT source and share one
    // loaded module through the content-hash registry (jit::JitModule::
    // getOrCreate): one compile + one dlopen for the whole pool.
    Workers.push_back(std::make_unique<engine::Executor>(
        compiler::compile(Net, Opts.Compile), EO));
  }
  // All replicas start from identical parameters.
  for (int W = 1; W < Opts.NumWorkers; ++W)
    for (const compiler::ParamBinding &B : Workers[0]->program().Params)
      Workers[W]->writeBuffer(B.Param, Workers[0]->readBuffer(B.Param));
  // Shared accumulators sized like the master's parameter gradients.
  for (const compiler::ParamBinding &B : Workers[0]->program().Params)
    SharedGrads.emplace_back(Workers[0]->shape(B.Grad));
}

double DataParallelTrainer::trainStep(const Tensor &Data,
                                      const Tensor &Labels,
                                      solvers::SgdSolver &S, int64_t Iter) {
  const int W = numWorkers();
  const int64_t PerWorker = GlobalBatch / W;
  const int64_t ItemSize = Data.numElements() / GlobalBatch;
  assert(Labels.numElements() == GlobalBatch && "one label per batch item");

  for (Tensor &G : SharedGrads)
    G.zero();

  // When profiling, each worker records its own replica span (separate
  // trace tracks — the per-worker timing that makes load imbalance across
  // the pool visible in Perfetto).
  const bool Prof = prof::enabled();
  std::optional<prof::ScopedPhase> Phase;
  std::optional<prof::ScopedTimer> StepSpan;
  if (Prof) {
    Phase.emplace("train_step");
    StepSpan.emplace("train_step");
  }

  std::vector<double> Losses(W, 0.0), Accs(W, 0.0);
  Pool.parallelRun([&](int Id) {
    if (Id >= W)
      return;
    std::optional<prof::ScopedTimer> WorkerSpan;
    if (Prof)
      WorkerSpan.emplace("worker:" + std::to_string(Id));
    engine::Executor &Ex = *Workers[Id];
    // Scatter this worker's slice of the global batch.
    Tensor Slice(Ex.shape(Ex.program().DataBuffer));
    kernels::copy(Slice.data(), Data.data() + Id * PerWorker * ItemSize,
                  PerWorker * ItemSize);
    Tensor SliceLabels(Shape{PerWorker});
    kernels::copy(SliceLabels.data(), Labels.data() + Id * PerWorker,
                  PerWorker);
    Ex.setInput(Slice);
    Ex.setLabels(SliceLabels);
    Ex.forward();
    Ex.backward();
    Losses[Id] = Ex.lossValue();
    Accs[Id] = Ex.accuracy();

    // Lossy gradient summation (§3.1, Project Adam-style): every worker
    // accumulates into the shared buffers with no synchronization at all,
    // racing by design. The synchronized mode instead reduces after the
    // parallel section, below, in deterministic worker order.
    if (Opts.LossyGradients) {
      const auto &Params = Ex.program().Params;
      for (size_t P = 0; P < Params.size(); ++P)
        kernels::addTo(SharedGrads[P].data(), Ex.data(Params[P].Grad),
                       SharedGrads[P].numElements());
    }
  });

  if (!Opts.LossyGradients) {
    // Synchronized reduction (§3.1's default): gradient summation in a
    // fixed worker order, so results are bit-deterministic.
    std::optional<prof::ScopedTimer> ReduceSpan;
    if (Prof)
      ReduceSpan.emplace("grad_reduce");
    const auto &Params = Workers[0]->program().Params;
    for (int Id = 0; Id < W; ++Id)
      for (size_t P = 0; P < Params.size(); ++P)
        kernels::addTo(SharedGrads[P].data(),
                       Workers[Id]->data(Params[P].Grad),
                       SharedGrads[P].numElements());
  }

  // Apply the update on the master replica using the summed gradients,
  // rescaled so the step equals a single-worker pass over the whole global
  // batch (each worker's loss gradient is a per-worker-batch mean), then
  // broadcast the new parameters.
  engine::Executor &Master = *Workers[0];
  const auto &Params = Master.program().Params;
  for (size_t P = 0; P < Params.size(); ++P) {
    kernels::scale(SharedGrads[P].data(), 1.0f / static_cast<float>(W),
                   SharedGrads[P].numElements());
    Master.writeBuffer(Params[P].Grad, SharedGrads[P]);
  }
  S.step(Master, Iter);
  for (int Id = 1; Id < W; ++Id)
    for (const compiler::ParamBinding &B : Params)
      Workers[Id]->writeBuffer(B.Param, Master.readBuffer(B.Param));

  double Loss = 0, Acc = 0;
  for (int Id = 0; Id < W; ++Id) {
    Loss += Losses[Id];
    Acc += Accs[Id];
  }
  LastAccuracy = Acc / W;
  return Loss / W;
}
