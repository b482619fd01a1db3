//===- core/layers/layers.h - The Latte standard library -------*- C++ -*-===//
///
/// \file
/// Layer constructors (paper §4): each builds an ensemble of neurons with
/// the right connection structure and parameter storage, exactly as the
/// Julia standard library's FullyConnectedLayer / ConvolutionLayer / ...
/// do (Figures 4-7). All constructors return the created ensemble so
/// layers compose by chaining.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_CORE_LAYERS_LAYERS_H
#define LATTE_CORE_LAYERS_LAYERS_H

#include "core/graph.h"

namespace latte {
namespace layers {

/// Input ensemble whose values are supplied by the caller each batch
/// (images, features). \p Dims excludes the batch dimension.
core::Ensemble *DataLayer(core::Net &Net, const std::string &Name,
                          Shape Dims);

/// Label ensemble (one class index per batch item).
core::Ensemble *LabelLayer(core::Net &Net, const std::string &Name);

/// Fully connected layer of WeightedNeurons (Figure 4). Weights are
/// Xavier-initialized; bias zero.
core::Ensemble *FullyConnectedLayer(core::Net &Net, const std::string &Name,
                                    core::Ensemble *Input,
                                    int64_t NumOutputs);

/// Fully connected layer whose weights and bias are tied to (share
/// storage with) the same-named fields of \p ShareWith — the recurrent
/// weight sharing of unrolled LSTM/GRU cells.
core::Ensemble *FullyConnectedLayerShared(core::Net &Net,
                                          const std::string &Name,
                                          core::Ensemble *Input,
                                          int64_t NumOutputs,
                                          const std::string &ShareWith);

/// Alias used by the paper's MLP example (Figure 7).
inline core::Ensemble *InnerProductLayer(core::Net &Net,
                                         const std::string &Name,
                                         core::Ensemble *Input,
                                         int64_t NumOutputs) {
  return FullyConnectedLayer(Net, Name, Input, NumOutputs);
}

/// Convolution layer: WeightedNeurons on a sliding window with weights
/// shared per output channel (Figure 5). Input must be (C, H, W).
core::Ensemble *ConvolutionLayer(core::Net &Net, const std::string &Name,
                                 core::Ensemble *Input, int64_t NumFilters,
                                 int64_t Kernel, int64_t Stride,
                                 int64_t Pad);

/// Max / average pooling over (C, H, W) inputs.
core::Ensemble *MaxPoolingLayer(core::Net &Net, const std::string &Name,
                                core::Ensemble *Input, int64_t Kernel,
                                int64_t Stride, int64_t Pad = 0);
core::Ensemble *AvgPoolingLayer(core::Net &Net, const std::string &Name,
                                core::Ensemble *Input, int64_t Kernel,
                                int64_t Stride, int64_t Pad = 0);

/// Activation ensembles, in place by default (§3.2). Pass InPlace=false
/// (the paper's `copy=true`, Figure 6) when the input's values must
/// survive — e.g. the LSTM cell state feeding the next timestep.
core::Ensemble *ReluLayer(core::Net &Net, const std::string &Name,
                          core::Ensemble *Input, bool InPlace = true);
core::Ensemble *SigmoidLayer(core::Net &Net, const std::string &Name,
                             core::Ensemble *Input, bool InPlace = true);
core::Ensemble *TanhLayer(core::Net &Net, const std::string &Name,
                          core::Ensemble *Input, bool InPlace = true);

/// PReLU with a single learnable slope shared across the ensemble (He et
/// al.; the paper's example of a researcher-defined layer). Not in-place.
core::Ensemble *PReluLayer(core::Net &Net, const std::string &Name,
                           core::Ensemble *Input);

/// Softmax normalization over a rank-1 ensemble.
core::Ensemble *SoftmaxLayer(core::Net &Net, const std::string &Name,
                             core::Ensemble *Input);

/// Fused softmax + cross-entropy loss against \p Labels.
core::Ensemble *SoftmaxLossLayer(core::Net &Net, const std::string &Name,
                                 core::Ensemble *Input,
                                 core::Ensemble *Labels);

/// Elementwise sum of same-shaped ensembles (SumNeuron).
core::Ensemble *AddLayer(core::Net &Net, const std::string &Name,
                         std::vector<core::Ensemble *> Inputs);

/// Elementwise product of two same-shaped ensembles (MulNeuron).
core::Ensemble *MulLayer(core::Net &Net, const std::string &Name,
                         core::Ensemble *A, core::Ensemble *B);

/// Elementwise difference A - B (SubNeuron).
core::Ensemble *SubLayer(core::Net &Net, const std::string &Name,
                         core::Ensemble *A, core::Ensemble *B);

/// Returns (and lazily registers) the standard neuron type \p Name on
/// \p Net ("WeightedNeuron", "MaxNeuron", ...).
const core::NeuronType *standardType(core::Net &Net, const std::string &Name);

} // namespace layers
} // namespace latte

#endif // LATTE_CORE_LAYERS_LAYERS_H
