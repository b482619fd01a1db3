//===- solvers/solvers.h - Training solvers --------------------*- C++ -*-===//
///
/// \file
/// Solvers coordinate the forward, backward, and weight-update phases of
/// training (paper §2.5, §3.4): SGD with momentum, RMSProp, AdaGrad, and
/// AdaDelta, with the learning-rate and momentum policies of the Figure 7
/// example (LRPolicy.Inv, MomPolicy.Fixed) plus Fixed/Step/Exp schedules.
/// `solve()` runs the training loop over an executor and a data source.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SOLVERS_SOLVERS_H
#define LATTE_SOLVERS_SOLVERS_H

#include "engine/executor.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace latte {
namespace solvers {

/// Learning-rate schedule. `at(Iter)` returns the rate for an iteration.
struct LRPolicy {
  enum class Kind { Fixed, Inv, Step, Exp };
  Kind K = Kind::Fixed;
  double Base = 0.01;
  double Gamma = 0.0001; ///< Inv/Step/Exp decay
  double Power = 0.75;   ///< Inv exponent
  int64_t StepSize = 1000;

  static LRPolicy fixed(double Base);
  /// base * (1 + gamma * iter)^-power (the Figure 7 policy).
  static LRPolicy inv(double Base, double Gamma, double Power);
  /// base * gamma^(iter / stepSize); at() is fatal for StepSize <= 0.
  static LRPolicy step(double Base, double Gamma, int64_t StepSize);
  /// base * gamma^iter.
  static LRPolicy exp(double Base, double Gamma);

  double at(int64_t Iter) const;
};

/// Momentum schedule (fixed, per the paper's MomPolicy.Fixed).
struct MomPolicy {
  double Value = 0.0;
  static MomPolicy fixed(double Value) { return MomPolicy{Value}; }
};

/// Hyper-parameters shared by all solvers (Figure 7's SolverParameters).
struct SolverParameters {
  LRPolicy Lr = LRPolicy::fixed(0.01);
  MomPolicy Momentum = MomPolicy::fixed(0.9);
  double ReguCoef = 0.0; ///< L2 weight decay
  int64_t MaxIters = 100;
};

/// Base solver: owns per-parameter history state and applies updates.
class Solver {
public:
  explicit Solver(SolverParameters Params) : Params(Params) {}
  virtual ~Solver();

  const SolverParameters &params() const { return Params; }

  /// Applies one update step to every parameter of \p Ex using the
  /// gradients accumulated by the last backward() call. When \p Ex forks
  /// its parallel loops, each parameter is split into contiguous chunks
  /// across the OpenMP team (engine::forEachChunk; the weight-decay fold
  /// too), with the serial loop's bytes at every thread count. Fatal when
  /// a parameter's stored history has another size than the parameter.
  void step(engine::Executor &Ex, int64_t Iter);

  /// History tensor \p Index (0 or 1) of parameter \p Param; null before
  /// the first step or when the rule keeps fewer tensors.
  const Tensor *history(const std::string &Param, int Index = 0) const;

protected:
  /// Per-parameter update rule over \p Count elements (a whole parameter
  /// or one contiguous chunk of it; threads may run chunks of one
  /// parameter at once). \p History is a lazily allocated state tensor of
  /// the same size (momentum/accumulator); \p History2 a second one
  /// (AdaDelta).
  virtual void update(float *Param, const float *Grad, float *History,
                      float *History2, int64_t Count, double Lr) = 0;

  /// How many history tensors this solver needs (0-2).
  virtual int historyCount() const { return 1; }

  SolverParameters Params;

private:
  std::unordered_map<std::string, Tensor> History, History2;
};

/// Stochastic gradient descent with momentum:
/// v = mom * v - lr * (g + regu * w); w += v.
class SgdSolver : public Solver {
public:
  explicit SgdSolver(SolverParameters P) : Solver(P) {}

protected:
  void update(float *Param, const float *Grad, float *History, float *,
              int64_t Count, double Lr) override;
};

/// RMSProp (Tieleman & Hinton): r = d*r + (1-d)*g^2; w -= lr*g/sqrt(r+eps).
class RmsPropSolver : public Solver {
public:
  RmsPropSolver(SolverParameters P, double Decay = 0.9, double Eps = 1e-8)
      : Solver(P), Decay(Decay), Eps(Eps) {}

protected:
  void update(float *Param, const float *Grad, float *History, float *,
              int64_t Count, double Lr) override;

private:
  double Decay, Eps;
};

/// AdaGrad (Duchi et al.): r += g^2; w -= lr*g/sqrt(r+eps).
class AdaGradSolver : public Solver {
public:
  AdaGradSolver(SolverParameters P, double Eps = 1e-8)
      : Solver(P), Eps(Eps) {}

protected:
  void update(float *Param, const float *Grad, float *History, float *,
              int64_t Count, double Lr) override;

private:
  double Eps;
};

/// AdaDelta (Zeiler): accumulates squared gradients and squared updates.
class AdaDeltaSolver : public Solver {
public:
  AdaDeltaSolver(SolverParameters P, double Decay = 0.95, double Eps = 1e-6)
      : Solver(P), Decay(Decay), Eps(Eps) {}

protected:
  void update(float *Param, const float *Grad, float *History,
              float *History2, int64_t Count, double Lr) override;
  int historyCount() const override { return 2; }

private:
  double Decay, Eps;
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
TrainStats solve(Solver &S, engine::Executor &Ex,
                 const BatchProvider &Batches,
                 const ProgressFn &Progress = nullptr);

} // namespace solvers
} // namespace latte

#endif // LATTE_SOLVERS_SOLVERS_H
