//===- tests/verify/parallel_backward_test.cpp ----------------*- C++ -*-===//
///
/// Synchronized backward runs in parallel and stays bitwise deterministic:
/// after a few SGD steps every parameter and parameter-gradient buffer is
/// byte-identical at 1, 2 and 4 OpenMP threads and to an executor with
/// ExecOptions::Parallel off (the serial synchronized order). LeNet covers
/// ragged row blocks (50 conv and 500 fc rows); AlexNet covers the
/// partitioned conv units and the row-blocked fully-connected dW GEMMs.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"
#include "engine/executor.h"
#include "models/models.h"
#include "solvers/solvers.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#ifdef LATTE_HAVE_OPENMP
#include <omp.h>
#endif

#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace latte;

namespace {

using Snapshot = std::vector<std::pair<std::string, Tensor>>;

/// Trains \p Steps SGD-with-momentum steps on seeded synthetic batches and
/// returns every Param and ParamGrad root.
Snapshot train(const models::ModelSpec &Spec, int64_t Batch, int Steps,
               int Threads, bool Parallel) {
#ifdef LATTE_HAVE_OPENMP
  const int SavedThreads = omp_get_max_threads();
  omp_set_num_threads(Threads);
#endif
  core::Net Net(Batch);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  engine::ExecOptions EO;
  EO.Parallel = Parallel;
  engine::Executor Ex(compiler::compile(Net, compiler::CompileOptions()), EO);
  Ex.initParams(3);
  const compiler::Program &P = Ex.program();
  const Shape DataShape = P.findBuffer(P.DataBuffer)->Dims;
  const int64_t Classes = P.findBuffer(P.ProbBuffer)->Dims[1];
  solvers::SolverParameters SP;
  SP.Lr = solvers::LRPolicy::fixed(0.01);
  SP.Momentum = solvers::MomPolicy::fixed(0.9);
  solvers::SgdSolver Solver(SP);
  for (int Step = 0; Step < Steps; ++Step) {
    Rng R(40 + Step);
    Tensor In(DataShape);
    R.fillGaussian(In, 0.0f, 1.0f);
    Tensor Labels(Shape{Batch});
    for (int64_t I = 0; I < Batch; ++I)
      Labels.at(I) = static_cast<float>((5 * I + Step) % Classes);
    Ex.setInput(In);
    Ex.setLabels(Labels);
    Ex.forward();
    Ex.backward();
    Solver.step(Ex, Step);
  }
  Snapshot Out;
  for (const compiler::BufferInfo &B : P.Buffers)
    if (B.AliasOf.empty() && (B.Role == compiler::BufferRole::Param ||
                              B.Role == compiler::BufferRole::ParamGrad))
      Out.emplace_back(B.Name, Ex.readBuffer(B.Name));
#ifdef LATTE_HAVE_OPENMP
  omp_set_num_threads(SavedThreads);
#endif
  return Out;
}

void expectBitwiseAcrossThreadCounts(const models::ModelSpec &Spec,
                                     int64_t Batch) {
  const Snapshot Serial = train(Spec, Batch, 3, 1, /*Parallel=*/false);
  ASSERT_FALSE(Serial.empty());
  for (int Threads : {1, 2, 4}) {
    const Snapshot Got = train(Spec, Batch, 3, Threads, /*Parallel=*/true);
    ASSERT_EQ(Got.size(), Serial.size());
    for (size_t I = 0; I < Got.size(); ++I) {
      const Tensor &A = Serial[I].second, &B = Got[I].second;
      ASSERT_EQ(A.numElements(), B.numElements()) << Got[I].first;
      EXPECT_EQ(std::memcmp(A.data(), B.data(),
                            sizeof(float) *
                                static_cast<size_t>(A.numElements())),
                0)
          << Got[I].first << " differs from the serial run at " << Threads
          << " threads";
    }
  }
}

} // namespace

TEST(ParallelBackwardTest, LeNetBitwiseAcrossThreadCounts) {
  expectBitwiseAcrossThreadCounts(models::lenet(), 4);
}

TEST(ParallelBackwardTest, AlexNetBitwiseAcrossThreadCounts) {
  expectBitwiseAcrossThreadCounts(models::alexNet(0.25), 4);
}
