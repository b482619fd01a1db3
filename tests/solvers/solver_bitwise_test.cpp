//===- tests/solvers/solver_bitwise_test.cpp ------------------*- C++ -*-===//
///
/// SgdSolver::step splits each parameter into contiguous chunks across the
/// OpenMP team when the executor forks (engine::forEachChunk). The update,
/// with and without weight decay, must leave parameters and history
/// byte-identical to an executor with ExecOptions::Parallel off, at 1, 2
/// and 4 threads, for nets below the fork floor, just above it, and with
/// sizes no chunk count divides.
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
using namespace latte::solvers;

namespace {

using Snapshot = std::vector<std::pair<std::string, Tensor>>;

/// Three solver steps over seeded gradients on an mlp(In, {Hidden}, 3);
/// returns every parameter and its history.
Snapshot stepNet(int64_t In, int64_t Hidden, double ReguCoef, int Threads,
                 bool Parallel) {
#ifdef LATTE_HAVE_OPENMP
  const int SavedThreads = omp_get_max_threads();
  omp_set_num_threads(Threads);
#endif
  core::Net Net(2);
  models::buildLatte(Net, models::mlp(In, {Hidden}, 3), /*WithLoss=*/true);
  engine::ExecOptions EO;
  EO.Parallel = Parallel;
  engine::Executor Ex(compiler::compile(Net), EO);
  Ex.initParams(7);
  SolverParameters P;
  P.Lr = LRPolicy::fixed(0.05);
  P.Momentum = MomPolicy::fixed(0.9);
  P.ReguCoef = ReguCoef;
  SgdSolver S(P);
  for (int Step = 0; Step < 3; ++Step) {
    uint64_t Seed = 90 + Step;
    for (const compiler::ParamBinding &B : Ex.program().Params) {
      Tensor G(Ex.shape(B.Grad));
      Rng(Seed++).fillGaussian(G, 0.0f, 1.0f);
      Ex.writeBuffer(B.Grad, G);
    }
    S.step(Ex, Step);
  }
  Snapshot Out;
  for (const compiler::ParamBinding &B : Ex.program().Params) {
    Out.emplace_back(B.Param, Ex.readBuffer(B.Param));
    if (const Tensor *T = S.history(B.Param))
      Out.emplace_back(B.Param + "/history", *T);
  }
#ifdef LATTE_HAVE_OPENMP
  omp_set_num_threads(SavedThreads);
#endif
  return Out;
}

/// Parameter floats of mlp(In, {Hidden}, 3), summed over every binding.
int64_t paramFloats(int64_t In, int64_t Hidden) {
  core::Net Net(2);
  models::buildLatte(Net, models::mlp(In, {Hidden}, 3), /*WithLoss=*/true);
  compiler::Program P = compiler::compile(Net);
  int64_t Total = 0;
  for (const compiler::ParamBinding &B : P.Params)
    Total += P.findBuffer(B.Param)->Dims.numElements();
  return Total;
}

void expectSameBytes(const Snapshot &Want, const Snapshot &Got,
                     const std::string &Where) {
  ASSERT_EQ(Want.size(), Got.size()) << Where;
  for (size_t I = 0; I < Want.size(); ++I) {
    const Tensor &A = Want[I].second, &B = Got[I].second;
    ASSERT_EQ(Want[I].first, Got[I].first) << Where;
    ASSERT_EQ(A.numElements(), B.numElements()) << Where << Got[I].first;
    EXPECT_EQ(std::memcmp(A.data(), B.data(),
                          sizeof(float) * static_cast<size_t>(A.numElements())),
              0)
        << Got[I].first << " differs from the serial run (" << Where << ")";
  }
}

} // namespace

TEST(SolverBitwiseTest, ChunksCoverEveryElementOnce) {
  const std::vector<int64_t> Sizes = {0, 1, 15, 17, 1000, 65537, 4099};
  for (int Threads : {1, 2, 3, 4}) {
#ifdef LATTE_HAVE_OPENMP
    const int SavedThreads = omp_get_max_threads();
    omp_set_num_threads(Threads);
#endif
    for (bool Fork : {false, true}) {
      std::vector<std::vector<int>> Hits(Sizes.size());
      for (size_t I = 0; I < Sizes.size(); ++I)
        Hits[I].assign(static_cast<size_t>(Sizes[I]), 0);
      engine::forEachChunk(Fork, Sizes,
                           [&](size_t I, int64_t Begin, int64_t End) {
                             ASSERT_LT(Begin, End);
                             for (int64_t J = Begin; J < End; ++J)
                               ++Hits[I][static_cast<size_t>(J)];
                           });
      for (size_t I = 0; I < Sizes.size(); ++I)
        for (int64_t J = 0; J < Sizes[I]; ++J)
          ASSERT_EQ(Hits[I][static_cast<size_t>(J)], 1)
              << "span " << I << " element " << J << " at " << Threads
              << " threads, fork " << Fork;
    }
#ifdef LATTE_HAVE_OPENMP
    omp_set_num_threads(SavedThreads);
#endif
  }
}

TEST(SolverBitwiseTest, EveryRuleMatchesSerialAcrossThreadCounts) {
  // Parameter floats in all: 1,158 (below engine::kMinForkedElements),
  // 66,566 (just above it) and 129,648; no chunk count divides the sizes.
  struct Net {
    int64_t In, Hidden;
  };
  const Net Nets[] = {{31, 33}, {255, 257}, {1001, 129}};
  ASSERT_EQ(paramFloats(31, 33), 1158);
  ASSERT_LT(paramFloats(31, 33), engine::kMinForkedElements);
  ASSERT_EQ(paramFloats(255, 257), 66566);
  ASSERT_GT(paramFloats(255, 257), engine::kMinForkedElements);
  for (const Net &N : Nets)
    for (double Regu : {0.0, 0.01}) {
      const std::string Where = "mlp(" + std::to_string(N.In) + ", " +
                                std::to_string(N.Hidden) + "), regu " +
                                std::to_string(Regu);
      const Snapshot Serial =
          stepNet(N.In, N.Hidden, Regu, 1, /*Parallel=*/false);
      ASSERT_FALSE(Serial.empty());
      for (int Threads : {1, 2, 4})
        expectSameBytes(
            Serial, stepNet(N.In, N.Hidden, Regu, Threads, /*Parallel=*/true),
            Where + ", " + std::to_string(Threads) + " threads");
    }
}
