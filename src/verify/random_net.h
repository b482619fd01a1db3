//===- verify/random_net.h - Seeded random network generation -*- C++ -*-===//
///
/// \file
/// A seeded generator of randomized ensemble graphs for fuzzing the
/// compiler: conv / pooling / FC / activation / elementwise / recurrent
/// (unrolled LSTM/GRU) / attention blocks with randomized shapes, strides
/// and pads, shared (convolution filters, tied FC and recurrent gate
/// weights, per-ensemble scalars) and unshared fields,
/// plus a custom neuron type no pattern matcher recognizes — so the
/// optimization-lattice oracle exercises compiler paths (interpreted SoA
/// loops, partial matches, odd geometries) that hand-written tests never
/// reach. Every net ends in a softmax cross-entropy loss so gradients are
/// well-defined end to end.
///
/// The same seed always produces the same graph; failure reports print the
/// seed, which is all that is needed to rebuild the failing net.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_VERIFY_RANDOM_NET_H
#define LATTE_VERIFY_RANDOM_NET_H

#include "core/graph.h"

#include <cstdint>
#include <string>

namespace latte {
namespace verify {

struct RandomNetOptions {
  int MinBlocks = 2;
  int MaxBlocks = 5;
  /// Custom (pattern-matcher-opaque, interpreted) neuron ensembles.
  bool AllowCustom = true;
  /// Two-branch elementwise Add/Mul/Sub blocks.
  bool AllowBranches = true;
  /// Cross-ensemble weight tying (FullyConnectedLayerShared).
  bool AllowSharedFc = true;
  /// Unrolled shared-weight LSTM/GRU blocks over a broadcast sequence.
  bool AllowRecurrent = true;
  /// Single-head scaled dot-product attention blocks.
  bool AllowAttention = true;
};

/// A custom neuron layer the standard library does not know about:
/// value = gain * tanh(input), with a learnable scalar `gain` shared by
/// the whole ensemble. No pattern matches it, so it always lowers through
/// the interpreted SoA path — the fuzzer's stand-in for a
/// researcher-defined layer.
core::Ensemble *ScaledTanhLayer(core::Net &Net, const std::string &Name,
                                core::Ensemble *Input);

/// Assembles a random network on \p Net (whose batch size the caller
/// chose), ending in an FC classifier + "labels" ensemble + "loss"
/// SoftmaxLoss. The data ensemble is named "data". Returns a printable
/// one-line description of the generated architecture.
std::string randomNet(core::Net &Net, uint64_t Seed,
                      const RandomNetOptions &Opts = {});

/// Number of classes of the generated classifier for \p Seed (needed to
/// draw valid random labels). Matches what randomNet(Seed) builds.
int64_t randomNetClasses(uint64_t Seed, const RandomNetOptions &Opts = {});

} // namespace verify
} // namespace latte

#endif // LATTE_VERIFY_RANDOM_NET_H
