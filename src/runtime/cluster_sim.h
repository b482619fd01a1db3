//===- runtime/cluster_sim.h - Cluster-level scaling simulator -*- C++ -*-===//
///
/// \file
/// The second level of the runtime's data parallelism (§6): nodes of a
/// cluster exchanging gradients with asynchronous allreduce overlapped
/// with back-propagation (§5.3). Real multi-node hardware is unavailable
/// here, so this module is a discrete-event simulator of exactly that
/// protocol (see DESIGN.md): per-layer compute times (measured on the real
/// engine, apportioned by FLOPs) drive a timeline in which each layer's
/// gradient allreduce is issued the moment back-propagation produces it
/// and the network processes transfers one at a time. This reproduces the
/// strong-scaling (Figure 18) and weak-scaling (Figure 19) experiments.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_RUNTIME_CLUSTER_SIM_H
#define LATTE_RUNTIME_CLUSTER_SIM_H

#include "models/models.h"

#include <cstdint>
#include <string>
#include <vector>

namespace latte {
namespace runtime {

/// Network cost model for one ring allreduce of \p Bytes across \p Nodes.
struct NetworkModel {
  double LatencySec = 20e-6;          ///< per message
  double BandwidthBytesPerSec = 5e9;  ///< per link (e.g. ~40 Gb/s IB)

  double allreduceSeconds(int Nodes, int64_t Bytes) const;
};

/// One layer's contribution to an iteration.
struct LayerProfile {
  std::string Name;
  double FwdSeconds = 0.0;
  double BwdSeconds = 0.0;
  int64_t GradBytes = 0; ///< parameter gradient to synchronize (0 = none)
  /// Parallel loop iterations this layer exposes per batch item (the tile
  /// count of its collapsed batch x tile loop; 1 for FC layers, which
  /// parallelize over the batch only). Drives the load-balance model that
  /// reproduces the paper's small-batch efficiency loss (§7.2.1).
  int64_t TilesPerItem = 1;
};

/// Builds layer profiles for a model: forward/backward seconds are the
/// measured whole-network times apportioned by per-layer FLOP counts, and
/// GradBytes comes from the audit's parameter counts. \p MeasuredFwdSec /
/// \p MeasuredBwdSec are for one iteration at \p Batch items.
std::vector<LayerProfile> estimateLayerProfiles(const models::ModelSpec &Spec,
                                                int64_t Batch,
                                                double MeasuredFwdSec,
                                                double MeasuredBwdSec);

/// Per-layer FLOPs for one item (forward; backward is modeled as 2x).
std::vector<double> layerFlops(const models::ModelSpec &Spec);

struct ClusterConfig {
  int Nodes = 1;
  NetworkModel Network;
  /// Overlap communication with back-propagation (§5.3). When false every
  /// allreduce waits for the full backward pass (the naive schedule).
  bool OverlapComm = true;
  /// Cores per node (the paper's Cori nodes have 32; the evaluation
  /// machine 36). Parallel efficiency of a layer with U work units on C
  /// cores is U / (ceil(U/C) * C) — small per-node batches under-fill the
  /// machine, the cause the paper gives for the Figure 18 efficiency drop.
  int CoresPerNode = 32;
};

struct ClusterResult {
  double IterSeconds = 0.0;    ///< wall time of one training iteration
  double ComputeSeconds = 0.0; ///< per-node compute (fwd+bwd)
  double CommSeconds = 0.0;    ///< total allreduce time on the wire
  double ExposedCommSeconds = 0.0; ///< comm not hidden behind compute
};

/// Simulates one data-parallel training iteration where each node
/// processes \p PerNodeBatch items and the profiles were measured at
/// \p ProfileBatch items. Layer compute scales by the batch ratio divided
/// by the layer's load-balance factor on CoresPerNode cores.
ClusterResult simulateIteration(const std::vector<LayerProfile> &Layers,
                                const ClusterConfig &Config,
                                int64_t PerNodeBatch, int64_t ProfileBatch);

} // namespace runtime
} // namespace latte

#endif // LATTE_RUNTIME_CLUSTER_SIM_H
