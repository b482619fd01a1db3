//===- runtime/cluster_sim.cpp --------------------------------*- C++ -*-===//

#include "runtime/cluster_sim.h"

#include "support/error.h"

#include <algorithm>

using namespace latte;
using namespace latte::models;
using namespace latte::runtime;

double NetworkModel::allreduceSeconds(int Nodes, int64_t Bytes) const {
  if (Nodes <= 1 || Bytes == 0)
    return 0.0;
  // Ring allreduce: 2(N-1) steps, each moving Bytes/N per link.
  double Steps = 2.0 * (Nodes - 1);
  return Steps * (LatencySec +
                  static_cast<double>(Bytes) / Nodes /
                      BandwidthBytesPerSec);
}

std::vector<double> runtime::layerFlops(const ModelSpec &Spec) {
  std::vector<double> Flops;
  Shape Cur = Spec.InputDims;
  std::vector<LayerAudit> Audit = auditSpec(Spec);
  for (size_t I = 0; I < Spec.Layers.size(); ++I) {
    const LayerSpec &L = Spec.Layers[I];
    const Shape &Out = Audit[I].OutDims;
    double F = 0;
    switch (L.K) {
    case LayerSpec::Kind::Conv:
      // 2 * output elements * window size MACs.
      F = 2.0 * Out.numElements() * Cur[0] * L.Kernel * L.Kernel;
      break;
    case LayerSpec::Kind::Fc:
      F = 2.0 * Out.numElements() * Cur.numElements();
      break;
    case LayerSpec::Kind::MaxPool:
    case LayerSpec::Kind::AvgPool:
      F = static_cast<double>(Out.numElements()) * L.Kernel * L.Kernel;
      break;
    case LayerSpec::Kind::Relu:
    case LayerSpec::Kind::Tanh:
    case LayerSpec::Kind::Sigmoid:
    case LayerSpec::Kind::Dropout:
    case LayerSpec::Kind::Add:
    case LayerSpec::Kind::Mul:
    case LayerSpec::Kind::Sub:
    case LayerSpec::Kind::Slice:
    case LayerSpec::Kind::Stack:
      F = static_cast<double>(Out.numElements());
      break;
    case LayerSpec::Kind::Lstm:
    case LayerSpec::Kind::Gru:
      // 2 MACs per tied parameter per timestep (number of inputs).
      F = 2.0 * Audit[I].Params *
          std::max<size_t>(size_t{1}, L.Inputs.size());
      break;
    case LayerSpec::Kind::Attention:
      // Q/K/V projections per timestep plus the T x T score and readout
      // interactions.
      F = 2.0 * Audit[I].Params * Out[0] +
          4.0 * Out[0] * Out[0] * Out[1];
      break;
    }
    Flops.push_back(F);
    Cur = Out;
  }
  // Classifier FC.
  Flops.push_back(2.0 * Spec.NumClasses * Cur.numElements());
  return Flops;
}

std::vector<LayerProfile>
runtime::estimateLayerProfiles(const ModelSpec &Spec, int64_t Batch,
                               double MeasuredFwdSec,
                               double MeasuredBwdSec) {
  (void)Batch; // times are already per iteration at this batch
  std::vector<double> Flops = layerFlops(Spec);
  std::vector<LayerAudit> Audit = auditSpec(Spec);
  double Total = 0;
  for (double F : Flops)
    Total += F;
  if (Total <= 0)
    reportFatalError("model has no measurable compute");

  const int64_t TileSize = 8; // the compiler's default tile extent
  std::vector<LayerProfile> Profiles;
  for (size_t I = 0; I < Flops.size(); ++I) {
    LayerProfile P;
    P.Name = Audit[I].Name;
    double Share = Flops[I] / Total;
    P.FwdSeconds = MeasuredFwdSec * Share;
    P.BwdSeconds = MeasuredBwdSec * Share;
    P.GradBytes = Audit[I].Params * static_cast<int64_t>(sizeof(float));
    // Spatial layers expose batch x tile parallelism; FC layers batch only.
    const Shape &Out = Audit[I].OutDims;
    P.TilesPerItem =
        Out.rank() >= 3 ? std::max<int64_t>(1, Out[1] / TileSize) : 1;
    Profiles.push_back(std::move(P));
  }
  return Profiles;
}

namespace {

/// Fraction of the machine kept busy by U parallel units on C cores under
/// a static schedule.
double loadBalance(int64_t Units, int Cores) {
  if (Units <= 0 || Cores <= 1)
    return 1.0;
  int64_t Rounds = (Units + Cores - 1) / Cores;
  return static_cast<double>(Units) /
         static_cast<double>(Rounds * Cores);
}

} // namespace

ClusterResult runtime::simulateIteration(
    const std::vector<LayerProfile> &Layers, const ClusterConfig &Config,
    int64_t PerNodeBatch, int64_t ProfileBatch) {
  assert(PerNodeBatch > 0 && ProfileBatch > 0 && "batches must be positive");
  double BatchRatio =
      static_cast<double>(PerNodeBatch) / static_cast<double>(ProfileBatch);
  auto LayerScale = [&](const LayerProfile &L) {
    return BatchRatio /
           loadBalance(PerNodeBatch * L.TilesPerItem, Config.CoresPerNode);
  };
  ClusterResult R;
  // Forward: pure compute.
  double T = 0;
  for (const LayerProfile &L : Layers)
    T += L.FwdSeconds * LayerScale(L);
  R.ComputeSeconds = T;

  // Backward: layers in reverse; each gradient's allreduce is issued when
  // its layer finishes and the (single, serialized) network channel is
  // free (MPI Iallreduce progressing one collective at a time).
  double NetFreeAt = 0.0;
  double LastCommEnd = 0.0;
  for (auto It = Layers.rbegin(); It != Layers.rend(); ++It) {
    T += It->BwdSeconds * LayerScale(*It);
    if (It->GradBytes == 0)
      continue;
    double Comm =
        Config.Network.allreduceSeconds(Config.Nodes, It->GradBytes);
    R.CommSeconds += Comm;
    double Start = Config.OverlapComm ? std::max(T, NetFreeAt)
                                      : 0.0; // collected below if not
    if (Config.OverlapComm) {
      NetFreeAt = Start + Comm;
      LastCommEnd = NetFreeAt;
    }
  }
  R.ComputeSeconds = T;

  if (Config.OverlapComm) {
    R.IterSeconds = std::max(T, LastCommEnd);
    R.ExposedCommSeconds = R.IterSeconds - T;
  } else {
    // Without overlap every allreduce serializes after backward.
    R.IterSeconds = T + R.CommSeconds;
    R.ExposedCommSeconds = R.CommSeconds;
  }
  return R;
}
