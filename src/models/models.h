//===- models/models.h - Evaluation network architectures -----*- C++ -*-===//
///
/// \file
/// The network topologies of the paper's evaluation (§7): AlexNet
/// (Krizhevsky et al.), VGG model A (Simonyan & Zisserman; the
/// convnet-benchmarks configuration the paper cites, whose groups 1-4 the
/// Figure 15 breakdown refers to), OverFeat (fast model), plus VGG-16, a
/// LeNet-style MNIST net, and MLPs. A ModelSpec is a front-end-neutral
/// description that builders lower onto Latte, the Caffe baseline, or the
/// Mocha baseline — guaranteeing all three systems run the *same* network.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_MODELS_MODELS_H
#define LATTE_MODELS_MODELS_H

#include "baselines/caffe/caffe.h"
#include "core/graph.h"

#include <cstdint>
#include <string>
#include <vector>

namespace latte {
namespace models {

/// One node of a graph-structured model description. The historical flat
/// CNN/MLP form is the degenerate graph: every node leaves \p Inputs empty
/// and implicitly consumes the previous node's output. Graph nodes name
/// their inputs explicitly ("data" is the network input), which admits
/// multi-input nodes (elementwise combine, recurrent cells over per-
/// timestep slices) and weight-sharing groups (\p ShareWith).
struct LayerSpec {
  enum class Kind {
    // Flat CNN/MLP kinds (both baselines lower these).
    Conv,
    MaxPool,
    AvgPool,
    Relu,
    Tanh,
    Fc,
    // Graph-structured kinds (Latte only; baselines reject them).
    Sigmoid,
    Add,       ///< elementwise sum of all Inputs
    Mul,       ///< elementwise product of two Inputs
    Sub,       ///< elementwise difference of two Inputs
    Slice,     ///< row TimeIndex of a (T, F) sequence input -> {F}
    Stack,     ///< broadcast a {F} input into a (Filters, F) sequence
    Lstm,      ///< unrolled LSTM over per-timestep Inputs; Filters = hidden
    Gru,       ///< unrolled GRU over per-timestep Inputs; Filters = hidden
    Attention, ///< single-head attention over a (T, F) input; Filters = D
  };
  Kind K = Kind::Conv;
  std::string Name;
  /// Named inputs (graph edges). Empty means "the previous node's output"
  /// — flat specs never set this. "data" names the network input.
  std::vector<std::string> Inputs;
  /// Fc only: tie weights and bias to the same-named fields of this
  /// earlier Fc node (an explicit weight-sharing group). Shared layers
  /// contribute no parameters of their own.
  std::string ShareWith;
  int64_t Filters = 0; ///< Conv channels; Fc outputs; Lstm/Gru hidden
                       ///< width; Attention model dim; Stack timesteps
  int64_t Kernel = 0;
  int64_t Stride = 1;
  int64_t Pad = 0;
  int64_t TimeIndex = 0; ///< Slice: which timestep row to extract
};

struct ModelSpec {
  std::string Name;
  Shape InputDims; ///< per item, e.g. (3, 227, 227) or (T, F) sequences
  int64_t NumClasses = 1000;
  /// Nodes in topological order (inputs precede consumers).
  std::vector<LayerSpec> Layers;
};

/// One row of the shape/parameter audit.
struct LayerAudit {
  std::string Name;
  Shape OutDims;
  int64_t Params = 0;
};

/// Computes per-layer output shapes and parameter counts (including the
/// final classifier FC layer) without building any network.
std::vector<LayerAudit> auditSpec(const ModelSpec &Spec);

/// Total learnable parameters of the spec.
int64_t countParams(const ModelSpec &Spec);

// --- the paper's models ---------------------------------------------------

/// AlexNet, standard single-tower configuration (227x227 input; LRN
/// omitted as in the convnet-benchmarks configurations the paper used).
/// \p SpatialScale shrinks the input resolution for benchmarking on small
/// machines (1.0 = full size).
ModelSpec alexNet(double SpatialScale = 1.0);

/// VGG model A / VGG-11 (the "VGG" of the paper's evaluation).
ModelSpec vggA(double SpatialScale = 1.0);

/// VGG-16 (model D), provided for completeness.
ModelSpec vgg16(double SpatialScale = 1.0);

/// OverFeat fast model (231x231 input).
ModelSpec overfeat(double SpatialScale = 1.0);

/// The Figure 13 microbenchmark: the first three layers of VGG
/// (conv3-64 + ReLU + 2x2 max pool).
ModelSpec vggFirstThreeLayers(double SpatialScale = 1.0,
                              int64_t InputChannels = 3);

/// Group \p G (1-4) of VGG model A: its convolutions + ReLUs + pool, taking
/// the group's natural input shape (Figure 15).
ModelSpec vggGroup(int G, double SpatialScale = 1.0);

/// LeNet-style MNIST network (28x28 grayscale, 10 classes) used for the
/// Figure 20 accuracy experiment.
ModelSpec lenet();

/// Multi-layer perceptron over flat inputs (Figure 7 uses 2 FC layers).
ModelSpec mlp(int64_t InputSize, std::vector<int64_t> HiddenWidths,
              int64_t NumClasses);

// --- sequence models (graph-structured specs) -----------------------------

/// Time-unrolled LSTM classifier over a (Timesteps, Features) sequence
/// input: per-timestep Slice nodes feed one LSTM block whose gate weights
/// are tied across timesteps; the final hidden state is classified.
ModelSpec lstmClassifier(int64_t Timesteps = 3, int64_t Features = 6,
                         int64_t Hidden = 5, int64_t NumClasses = 4);

/// GRU variant of lstmClassifier.
ModelSpec gruClassifier(int64_t Timesteps = 3, int64_t Features = 6,
                        int64_t Hidden = 5, int64_t NumClasses = 4);

/// Single-head scaled dot-product attention over a (Timesteps, Features)
/// sequence: shared Q/K/V projections, softmax over keys, weighted-sum
/// readout, then a classifier over the flattened (T, ModelDim) context.
ModelSpec attentionClassifier(int64_t Timesteps = 4, int64_t Features = 6,
                              int64_t ModelDim = 5, int64_t NumClasses = 4);

// --- builders ---------------------------------------------------------------

/// Builds the spec as a Latte network. When \p WithLoss is true, appends
/// label + SoftmaxLoss ensembles; otherwise the last layer's ensemble is
/// the network output. Returns the output ensemble.
core::Ensemble *buildLatte(core::Net &Net, const ModelSpec &Spec,
                           bool WithLoss);

/// Builds the spec in the Caffe baseline (optimized layer library).
/// Graph-structured nodes (explicit Inputs, ShareWith, sequence kinds)
/// are rejected with a fatal error — the baselines exist for same-network
/// comparison of the flat CNN/MLP suite only.
void buildCaffe(caffe::CaffeNet &Net, const ModelSpec &Spec, bool WithLoss);

/// Builds the spec in the Mocha baseline (naive layers). Tanh and average
/// pooling specs are unsupported there and rejected, as are all
/// graph-structured nodes (see buildCaffe).
void buildMocha(caffe::CaffeNet &Net, const ModelSpec &Spec, bool WithLoss);

} // namespace models
} // namespace latte

#endif // LATTE_MODELS_MODELS_H
