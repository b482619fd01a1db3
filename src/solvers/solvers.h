//===- solvers/solvers.h - The training solver -----------------*- C++ -*-===//
///
/// \file
/// The solver coordinates the forward, backward, and weight-update phases
/// of training (paper §2.5, §3.4): SGD with momentum, the rule every
/// workload here trains with, under the learning-rate and momentum
/// policies of the Figure 7 example (LRPolicy.Inv, MomPolicy.Fixed) or a
/// fixed rate. `solve()` runs the training loop over an executor and a
/// data source.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SOLVERS_SOLVERS_H
#define LATTE_SOLVERS_SOLVERS_H

#include "engine/executor.h"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace latte {
namespace solvers {

/// Learning-rate schedule. `at(Iter)` returns the rate for an iteration.
struct LRPolicy {
  enum class Kind { Fixed, Inv };
  Kind K = Kind::Fixed;
  double Base = 0.01;
  double Gamma = 0.0001; ///< Inv decay
  double Power = 0.75;   ///< Inv exponent

  static LRPolicy fixed(double Base);
  /// base * (1 + gamma * iter)^-power (the Figure 7 policy).
  static LRPolicy inv(double Base, double Gamma, double Power);

  double at(int64_t Iter) const;
};

/// Momentum schedule (fixed, per the paper's MomPolicy.Fixed).
struct MomPolicy {
  double Value = 0.0;
  static MomPolicy fixed(double Value) { return MomPolicy{Value}; }
};

/// Hyper-parameters of the solver (Figure 7's SolverParameters).
struct SolverParameters {
  LRPolicy Lr = LRPolicy::fixed(0.01);
  MomPolicy Momentum = MomPolicy::fixed(0.9);
  double ReguCoef = 0.0; ///< L2 weight decay
  int64_t MaxIters = 100;
};

/// Stochastic gradient descent with momentum, the paper's `SGD`:
/// v = mom * v - lr * (g + regu * w); w += v. Owns each parameter's
/// momentum history.
class SgdSolver {
public:
  explicit SgdSolver(SolverParameters Params) : Params(Params) {}

  const SolverParameters &params() const { return Params; }

  /// Applies one update step to every parameter of \p Ex using the
  /// gradients accumulated by the last backward() call, at the binding's
  /// learning rate (the policy's times its LrMult). When \p Ex forks its
  /// parallel loops, each parameter is split into contiguous chunks
  /// across the OpenMP team (engine::forEachChunk; the weight-decay fold
  /// too), with the serial loop's bytes at every thread count. Fatal when
  /// a parameter's stored history has another size than the parameter.
  void step(engine::Executor &Ex, int64_t Iter);

  /// Momentum history of parameter \p Param; null before the first step.
  const Tensor *history(const std::string &Param) const;

private:
  SolverParameters Params;
  std::unordered_map<std::string, Tensor> History;
};

/// Supplies training batches: fills a data tensor (batch-major) and a label
/// vector for iteration \p Iter.
using BatchProvider =
    std::function<void(int64_t Iter, Tensor &Data, Tensor &Labels)>;

/// Per-iteration statistics passed to the progress callback.
struct TrainStats {
  int64_t Iter = 0;
  double Loss = 0.0;
  double Accuracy = 0.0;
  double LearningRate = 0.0;
};

using ProgressFn = std::function<void(const TrainStats &)>;

/// The training loop (paper's `solve(sgd, net)`): for MaxIters iterations,
/// fetch a batch, run forward/backward, and apply the solver. Returns the
/// final iteration's stats.
TrainStats solve(SgdSolver &S, engine::Executor &Ex,
                 const BatchProvider &Batches,
                 const ProgressFn &Progress = nullptr);

} // namespace solvers
} // namespace latte

#endif // LATTE_SOLVERS_SOLVERS_H
