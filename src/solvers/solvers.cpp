//===- solvers/solvers.cpp ------------------------------------*- C++ -*-===//

#include "solvers/solvers.h"

#include "support/error.h"

#include <cmath>
#include <string>

using namespace latte;
using namespace latte::solvers;

LRPolicy LRPolicy::fixed(double Base) {
  LRPolicy P;
  P.K = Kind::Fixed;
  P.Base = Base;
  return P;
}

LRPolicy LRPolicy::inv(double Base, double Gamma, double Power) {
  LRPolicy P;
  P.K = Kind::Inv;
  P.Base = Base;
  P.Gamma = Gamma;
  P.Power = Power;
  return P;
}

LRPolicy LRPolicy::step(double Base, double Gamma, int64_t StepSize) {
  LRPolicy P;
  P.K = Kind::Step;
  P.Base = Base;
  P.Gamma = Gamma;
  P.StepSize = StepSize;
  return P;
}

LRPolicy LRPolicy::exp(double Base, double Gamma) {
  LRPolicy P;
  P.K = Kind::Exp;
  P.Base = Base;
  P.Gamma = Gamma;
  return P;
}

double LRPolicy::at(int64_t Iter) const {
  switch (K) {
  case Kind::Fixed:
    return Base;
  case Kind::Inv:
    return Base * std::pow(1.0 + Gamma * static_cast<double>(Iter), -Power);
  case Kind::Step:
    if (StepSize <= 0)
      reportFatalError("LRPolicy::step needs a positive StepSize (got " +
                       std::to_string(StepSize) + ")");
    return Base * std::pow(Gamma, static_cast<double>(Iter / StepSize));
  case Kind::Exp:
    return Base * std::pow(Gamma, static_cast<double>(Iter));
  }
  latteUnreachable("unknown LR policy kind");
}

Solver::~Solver() = default;

namespace {

/// \p Table's state tensor for parameter \p Name, allocated at \p Count
/// floats on first use; fatal when a stored one has another size (one
/// solver stepping two nets whose parameters share a name).
float *historyFor(std::unordered_map<std::string, Tensor> &Table,
                  const std::string &Name, int64_t Count) {
  auto It = Table.find(Name);
  if (It == Table.end())
    It = Table.emplace(Name, Tensor(Shape{Count})).first;
  else if (It->second.numElements() != Count)
    reportFatalError("Solver::step: parameter '" + Name + "' has " +
                     std::to_string(Count) +
                     " elements, but its stored history has " +
                     std::to_string(It->second.numElements()));
  return It->second.data();
}

} // namespace

const Tensor *Solver::history(const std::string &Param, int Index) const {
  const auto &Table = Index == 0 ? History : History2;
  auto It = Table.find(Param);
  return It == Table.end() ? nullptr : &It->second;
}

void Solver::step(engine::Executor &Ex, int64_t Iter) {
  const double Lr = Params.Lr.at(Iter);
  struct Slot {
    float *Param, *Grad, *H1, *H2;
    double Lr;
  };
  std::vector<Slot> Slots;
  std::vector<int64_t> Sizes;
  for (const compiler::ParamBinding &B : Ex.program().Params) {
    const int64_t Count = Ex.size(B.Param);
    Slots.push_back(
        {Ex.data(B.Param), Ex.data(B.Grad),
         historyCount() >= 1 ? historyFor(History, B.Param, Count) : nullptr,
         historyCount() >= 2 ? historyFor(History2, B.Param, Count) : nullptr,
         Lr * B.LrMult});
    Sizes.push_back(Count);
  }
  // Each element's update reads only its own entries, so contiguous chunks
  // across the team give the serial loop's bytes.
  const float Coef = static_cast<float>(Params.ReguCoef);
  engine::forEachChunk(
      Ex.forksParallelLoops(), Sizes,
      [&](size_t I, int64_t Begin, int64_t End) {
        const Slot &S = Slots[I];
        // L2 regularization folds into the gradient before the rule runs.
        if (Params.ReguCoef != 0.0)
          for (int64_t J = Begin; J < End; ++J)
            S.Grad[J] += Coef * S.Param[J];
        update(S.Param + Begin, S.Grad + Begin, S.H1 ? S.H1 + Begin : nullptr,
               S.H2 ? S.H2 + Begin : nullptr, End - Begin, S.Lr);
      });
}

void SgdSolver::update(float *Param, const float *Grad, float *History,
                       float *, int64_t Count, double Lr) {
  const float Mom = static_cast<float>(Params.Momentum.Value);
  const float Rate = static_cast<float>(Lr);
  for (int64_t I = 0; I < Count; ++I) {
    History[I] = Mom * History[I] - Rate * Grad[I];
    Param[I] += History[I];
  }
}

void RmsPropSolver::update(float *Param, const float *Grad, float *History,
                           float *, int64_t Count, double Lr) {
  const float D = static_cast<float>(Decay);
  const float E = static_cast<float>(Eps);
  const float Rate = static_cast<float>(Lr);
  for (int64_t I = 0; I < Count; ++I) {
    History[I] = D * History[I] + (1.0f - D) * Grad[I] * Grad[I];
    Param[I] -= Rate * Grad[I] / std::sqrt(History[I] + E);
  }
}

void AdaGradSolver::update(float *Param, const float *Grad, float *History,
                           float *, int64_t Count, double Lr) {
  const float E = static_cast<float>(Eps);
  const float Rate = static_cast<float>(Lr);
  for (int64_t I = 0; I < Count; ++I) {
    History[I] += Grad[I] * Grad[I];
    Param[I] -= Rate * Grad[I] / std::sqrt(History[I] + E);
  }
}

void AdaDeltaSolver::update(float *Param, const float *Grad, float *History,
                            float *History2, int64_t Count, double) {
  const float D = static_cast<float>(Decay);
  const float E = static_cast<float>(Eps);
  for (int64_t I = 0; I < Count; ++I) {
    History[I] = D * History[I] + (1.0f - D) * Grad[I] * Grad[I];
    float Update = -std::sqrt((History2[I] + E) / (History[I] + E)) * Grad[I];
    History2[I] = D * History2[I] + (1.0f - D) * Update * Update;
    Param[I] += Update;
  }
}

TrainStats solvers::solve(Solver &S, engine::Executor &Ex,
                          const BatchProvider &Batches,
                          const ProgressFn &Progress) {
  const compiler::Program &Prog = Ex.program();
  if (Prog.DataBuffer.empty() || Prog.LabelBuffer.empty())
    reportFatalError("solve() requires a network with data and label "
                     "ensembles");
  Tensor Data(Ex.shape(Prog.DataBuffer));
  Tensor Labels(Ex.shape(Prog.LabelBuffer));

  TrainStats Stats;
  for (int64_t Iter = 0; Iter < S.params().MaxIters; ++Iter) {
    Batches(Iter, Data, Labels);
    Ex.setInput(Data);
    Ex.setLabels(Labels);
    Ex.forward();
    Ex.backward();
    S.step(Ex, Iter);

    Stats.Iter = Iter;
    Stats.Loss = Ex.lossValue();
    Stats.Accuracy = Ex.accuracy();
    Stats.LearningRate = S.params().Lr.at(Iter);
    if (Progress)
      Progress(Stats);
  }
  return Stats;
}
