//===- core/graph.h - Ensembles, connections, and the Net -----*- C++ -*-===//
///
/// \file
/// The paper's core language objects (§3): Ensemble (a homogeneous array of
/// neurons), Connection (a mapping function from a sink neuron's index to a
/// box of source neurons), and Net (the collection of connected ensembles).
///
/// Connections are *implicit adjacency lists* (§5.1): the graph never
/// materializes per-neuron edges; the compiler probes the mapping function
/// to recover structure (shared inputs, windows, one-to-one maps).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_CORE_GRAPH_H
#define LATTE_CORE_GRAPH_H

#include "core/neuron_type.h"
#include "support/shape.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace latte {
namespace core {

/// Half-open index range [Begin, End) in one source dimension. Ranges may
/// extend outside the source extent; out-of-bounds positions read as zero
/// (convolution padding, Figure 5).
struct Range {
  int64_t Begin = 0;
  int64_t End = 0;

  int64_t size() const { return End - Begin; }
  bool operator==(const Range &O) const {
    return Begin == O.Begin && End == O.End;
  }
};

/// A mapping function: sink neuron index -> box of source indices
/// (one Range per source dimension). Must be pure; the compiler evaluates
/// it repeatedly during analysis.
using MappingFn =
    std::function<std::vector<Range>(const std::vector<int64_t> &)>;

class Ensemble;

/// A directed edge between ensembles.
struct Connection {
  Ensemble *Source = nullptr;
  MappingFn Mapping;
  bool Recurrent = false; ///< reads the previous timestep (excluded from
                          ///< topological ordering)
};

/// What kind of ensemble this is; drives synthesis decisions.
enum class EnsembleKind {
  Data,          ///< values provided externally (input images, labels)
  Standard,      ///< ordinary neuron ensemble
  Activation,    ///< in-place one-to-one activation (§3.2)
  Normalization, ///< array-level op; fusion barrier (§3.2, §5.5)
  Loss,          ///< produces the training loss (a Normalization variant)
};

/// Array-level operations a NormalizationEnsemble may perform.
enum class NormOpKind {
  None,
  Softmax,     ///< softmax over the feature dimension
  SoftmaxLoss, ///< fused softmax + cross-entropy against a label ensemble
};

/// Parameter-initialization policy for a field.
enum class FieldInitKind { Zero, Constant, Xavier, Gaussian };

/// Per-ensemble storage description of one neuron field. Weight sharing
/// (convolution filters) is expressed by Map: several neurons whose Map
/// yields the same storage index share the same field memory — the
/// shared-variable analysis discovers along which dimensions this happens.
struct FieldStorage {
  Shape StorageDims; ///< neuron-index part of the storage shape
  Shape ElemDims;    ///< per-neuron element shape of the field
  /// neuron index -> storage index (size = StorageDims.rank()); identity
  /// when null.
  std::function<std::vector<int64_t>(const std::vector<int64_t> &)> Map;
  FieldInitKind Init = FieldInitKind::Zero;
  float InitValue = 0.0f; ///< for Constant / Gaussian stddev
  int64_t FanIn = 0;      ///< for Xavier
  float LrMult = 1.0f;
  /// When non-empty, this field's storage (and its gradient) aliases the
  /// same-named field of the given ensemble — cross-timestep weight tying
  /// for unrolled recurrent networks. The owning ensemble holds the solver
  /// binding; gradients accumulate across all sharers.
  std::string ShareWithEnsemble;
};

/// A homogeneous collection of neurons (§3.2).
class Ensemble {
public:
  Ensemble(std::string Name, Shape Dims, const NeuronType *Type,
           EnsembleKind Kind)
      : Name(std::move(Name)), Dims(std::move(Dims)), Type(Type), Kind(Kind) {
  }

  const std::string &name() const { return Name; }
  const Shape &dims() const { return Dims; }
  int64_t numNeurons() const { return Dims.numElements(); }
  const NeuronType *type() const { return Type; }
  EnsembleKind kind() const { return Kind; }

  const std::vector<Connection> &inputs() const { return Inputs; }
  std::vector<Connection> &inputs() { return Inputs; }

  /// Declares storage for field \p FieldName (must exist on the neuron
  /// type, unless it is an auto-declared grad_ field).
  void setFieldStorage(const std::string &FieldName, FieldStorage Storage) {
    FieldStorages[FieldName] = std::move(Storage);
  }
  const FieldStorage *findFieldStorage(const std::string &FieldName) const {
    auto It = FieldStorages.find(FieldName);
    return It == FieldStorages.end() ? nullptr : &It->second;
  }
  const std::unordered_map<std::string, FieldStorage> &fieldStorages() const {
    return FieldStorages;
  }

  // Normalization configuration (meaningful when Kind is Normalization or
  // Loss).
  NormOpKind normOp() const { return NormOp; }
  void setNormOp(NormOpKind Op) { NormOp = Op; }
  /// Label source for SoftmaxLoss.
  Ensemble *labelSource() const { return LabelSource; }
  void setLabelSource(Ensemble *E) { LabelSource = E; }

  // Buffer naming scheme used by the compiler and engine.
  std::string valueBuffer() const { return Name + "_value"; }
  std::string gradBuffer() const { return Name + "_grad"; }
  std::string inputBuffer(int K) const {
    return Name + "_inputs" + std::to_string(K);
  }
  std::string gradInputBuffer(int K) const {
    return Name + "_grad_inputs" + std::to_string(K);
  }
  std::string fieldBuffer(const std::string &FieldName) const {
    return Name + "_" + FieldName;
  }

private:
  std::string Name;
  Shape Dims;
  const NeuronType *Type;
  EnsembleKind Kind;
  std::vector<Connection> Inputs;
  std::unordered_map<std::string, FieldStorage> FieldStorages;
  NormOpKind NormOp = NormOpKind::None;
  Ensemble *LabelSource = nullptr;
};

/// The network: owns neuron types and ensembles; records connections
/// (paper's add_connections, §3.3).
class Net {
public:
  explicit Net(int64_t BatchSize) : BatchSize(BatchSize) {
    assert(BatchSize > 0 && "batch size must be positive");
  }

  int64_t batchSize() const { return BatchSize; }

  /// Takes ownership of a neuron type; returns a stable pointer.
  const NeuronType *registerType(NeuronType Type);

  /// Returns an already registered type by name, or null.
  const NeuronType *findType(const std::string &Name) const;

  /// Creates an ensemble. Names must be unique within the net.
  Ensemble *addEnsemble(std::string Name, Shape Dims, const NeuronType *Type,
                        EnsembleKind Kind = EnsembleKind::Standard);

  Ensemble *findEnsemble(const std::string &Name) const;

  /// Connects \p Source to \p Sink with \p Mapping (paper §3.3). Recurrent
  /// connections feed the previous timestep and do not create ordering
  /// constraints.
  void addConnections(Ensemble *Source, Ensemble *Sink, MappingFn Mapping,
                      bool Recurrent = false);

  const std::vector<std::unique_ptr<Ensemble>> &ensembles() const {
    return Ensembles;
  }

  /// Ensembles in dependency order (ignoring recurrent edges). Fatal error
  /// on a non-recurrent cycle.
  std::vector<Ensemble *> topologicalOrder() const;

private:
  int64_t BatchSize;
  std::vector<std::unique_ptr<NeuronType>> Types;
  std::vector<std::unique_ptr<Ensemble>> Ensembles;
};

/// Convenience mappings.
/// All-to-all: every sink neuron sees the whole source (FC layers).
MappingFn fullyConnectedMapping(const Shape &SourceDims);
/// One-to-one: sink neuron (i...) reads source neuron (i...). Shapes must
/// match; the window has a single element.
MappingFn oneToOneMapping();
/// Spatial window over a CHW source for sink index (c_out, y, x):
/// all channels x KernelH x KernelW window at stride/pad (Figure 5).
MappingFn convWindowMapping(int64_t Channels, int64_t Kernel, int64_t Stride,
                            int64_t Pad);
/// Non-overlapping (or strided) pooling window over a CHW source for sink
/// index (c, y, x): single channel c, KernelxKernel window.
MappingFn poolWindowMapping(int64_t Kernel, int64_t Stride, int64_t Pad);

} // namespace core
} // namespace latte

#endif // LATTE_CORE_GRAPH_H
