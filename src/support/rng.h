//===- support/rng.h - Deterministic random number generation -*- C++ -*-===//
///
/// \file
/// All randomness in Latte (parameter initialization, synthetic data)
/// flows through Rng so experiments are reproducible from a seed.
/// Includes the Xavier/Glorot initializer used by the standard library
/// layers (paper §4, Figure 4).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SUPPORT_RNG_H
#define LATTE_SUPPORT_RNG_H

#include "support/tensor.h"

#include <cstdint>

namespace latte {

class Rng {
public:
  explicit Rng(uint64_t Seed = 0x1a77e) : State(Seed ? Seed : 0x9e3779b9) {}

  /// Uniform 64-bit value (splitmix64).
  uint64_t next();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [Lo, Hi).
  double uniform(double Lo, double Hi);

  /// Uniform integer in [0, N).
  int64_t uniformInt(int64_t N);

  /// Standard normal via Box-Muller.
  double gaussian();

  double gaussian(double Mean, double Stddev) {
    return Mean + Stddev * gaussian();
  }

  /// Fills \p T with uniform values in [Lo, Hi).
  void fillUniform(Tensor &T, float Lo, float Hi);

  /// Fills \p T with N(Mean, Stddev) values.
  void fillGaussian(Tensor &T, float Mean, float Stddev);

  /// Xavier/Glorot uniform initialization: U(-a, a) with
  /// a = sqrt(3 / fanIn), matching the variance-preserving scheme the Latte
  /// standard library uses for weighted layers.
  void fillXavier(Tensor &T, int64_t FanIn);

private:
  uint64_t State;
  bool HasSpare = false;
  double Spare = 0.0;
};

} // namespace latte

#endif // LATTE_SUPPORT_RNG_H
