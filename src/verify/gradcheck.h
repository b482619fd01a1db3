//===- verify/gradcheck.h - Finite-difference gradient checking -*- C++ -*-===//
///
/// \file
/// Library-grade finite-difference gradient checking, promoted from the
/// ad-hoc loops the early tests carried around. Given an Executor whose
/// inputs and labels are already set, gradCheck compares every parameter
/// gradient (and the data gradient) produced by the compiled backward pass
/// against central differences of the loss, and reports each divergent
/// element by buffer name and index.
///
/// Precondition: the program must have a loss ensemble.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_VERIFY_GRADCHECK_H
#define LATTE_VERIFY_GRADCHECK_H

#include "engine/executor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace latte {
namespace verify {

struct GradCheckOptions {
  /// Central-difference step. Loss is float32 end to end, so this cannot
  /// be driven arbitrarily small; 1e-2 balances truncation against
  /// round-off for the unit-variance inputs the tests use.
  float Eps = 1e-2f;
  /// An element passes when |analytic - numeric| <=
  /// AbsTol + RelTol * max(|analytic|, |numeric|).
  double AbsTol = 2e-3;
  double RelTol = 2e-2;
  /// Elements are strided so at most this many are checked per buffer
  /// (every forward costs a full network evaluation).
  int64_t MaxChecksPerBuffer = 6;
  bool CheckParamGrads = true;
  bool CheckDataGrad = true;
  /// Not used by the checker itself; echoed in failure summaries so a
  /// failing fuzz case prints everything needed to reproduce it.
  uint64_t Seed = 0;
};

struct GradCheckFailure {
  std::string Buffer; ///< gradient buffer name (e.g. "conv_grad_weights")
  int64_t Index = 0;  ///< linear element index within the buffer
  double Analytic = 0.0;
  double Numeric = 0.0;
};

struct GradCheckReport {
  bool Passed = true;
  int64_t NumChecked = 0;
  std::vector<GradCheckFailure> Failures;
  uint64_t Seed = 0;
  /// Non-empty when the program could not be checked at all (e.g. an
  /// inference-compiled program with no backward pass); Passed is false and
  /// NumChecked is 0 in that case.
  std::string Diagnostic;

  /// One-line pass summary, or a per-failure listing with the seed needed
  /// to reproduce.
  std::string summary() const;
};

/// Checks all parameter gradients (via the program's solver bindings) and
/// the data-ensemble gradient of \p Ex against central differences of the
/// loss. The executor's parameters and buffers are restored afterwards and
/// a final forward/backward leaves it in a consistent state.
GradCheckReport gradCheck(engine::Executor &Ex,
                          const GradCheckOptions &Opts = {});

} // namespace verify
} // namespace latte

#endif // LATTE_VERIFY_GRADCHECK_H
