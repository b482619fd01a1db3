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

double LRPolicy::at(int64_t Iter) const {
  switch (K) {
  case Kind::Fixed:
    return Base;
  case Kind::Inv:
    return Base * std::pow(1.0 + Gamma * static_cast<double>(Iter), -Power);
  }
  latteUnreachable("unknown LR policy kind");
}

namespace {

/// \p Table's history tensor for parameter \p Name, allocated at \p Count
/// floats on first use; fatal when a stored one has another size (one
/// solver stepping two nets whose parameters share a name).
float *historyFor(std::unordered_map<std::string, Tensor> &Table,
                  const std::string &Name, int64_t Count) {
  auto It = Table.find(Name);
  if (It == Table.end())
    It = Table.emplace(Name, Tensor(Shape{Count})).first;
  else if (It->second.numElements() != Count)
    reportFatalError("SgdSolver::step: parameter '" + Name + "' has " +
                     std::to_string(Count) +
                     " elements, but its stored history has " +
                     std::to_string(It->second.numElements()));
  return It->second.data();
}

/// v = mom * v - lr * g; w += v over \p Count elements (a whole parameter
/// or one contiguous chunk of it; threads may run chunks of one parameter
/// at once).
void momentumUpdate(float *Param, const float *Grad, float *History,
                    int64_t Count, float Mom, float Rate) {
  for (int64_t I = 0; I < Count; ++I) {
    History[I] = Mom * History[I] - Rate * Grad[I];
    Param[I] += History[I];
  }
}

} // namespace

const Tensor *SgdSolver::history(const std::string &Param) const {
  auto It = History.find(Param);
  return It == History.end() ? nullptr : &It->second;
}

void SgdSolver::step(engine::Executor &Ex, int64_t Iter) {
  const double Lr = Params.Lr.at(Iter);
  struct Slot {
    float *Param, *Grad, *History;
    float Rate;
  };
  std::vector<Slot> Slots;
  std::vector<int64_t> Sizes;
  for (const compiler::ParamBinding &B : Ex.program().Params) {
    const int64_t Count = Ex.size(B.Param);
    Slots.push_back({Ex.data(B.Param), Ex.data(B.Grad),
                     historyFor(History, B.Param, Count),
                     static_cast<float>(Lr * B.LrMult)});
    Sizes.push_back(Count);
  }
  // Each element's update reads only its own entries, so contiguous chunks
  // across the team give the serial loop's bytes.
  const float Coef = static_cast<float>(Params.ReguCoef);
  const float Mom = static_cast<float>(Params.Momentum.Value);
  engine::forEachChunk(
      Ex.forksParallelLoops(), Sizes,
      [&](size_t I, int64_t Begin, int64_t End) {
        const Slot &S = Slots[I];
        // L2 regularization folds into the gradient before the update.
        if (Params.ReguCoef != 0.0)
          for (int64_t J = Begin; J < End; ++J)
            S.Grad[J] += Coef * S.Param[J];
        momentumUpdate(S.Param + Begin, S.Grad + Begin, S.History + Begin,
                       End - Begin, Mom, S.Rate);
      });
}

TrainStats solvers::solve(SgdSolver &S, engine::Executor &Ex,
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
