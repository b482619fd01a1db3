//===- core/layers/layers.cpp ---------------------------------*- C++ -*-===//

#include "core/layers/layers.h"

#include "kernels/im2col.h"
#include "support/error.h"

using namespace latte;
using namespace latte::core;
using namespace latte::layers;

const NeuronType *layers::standardType(Net &Net, const std::string &Name) {
  if (const NeuronType *T = Net.findType(Name))
    return T;
  if (Name == "WeightedNeuron")
    return Net.registerType(makeWeightedNeuronType());
  if (Name == "MaxNeuron")
    return Net.registerType(makeMaxNeuronType());
  if (Name == "AvgNeuron")
    return Net.registerType(makeAvgNeuronType());
  if (Name == "ReluNeuron")
    return Net.registerType(makeReluNeuronType());
  if (Name == "SigmoidNeuron")
    return Net.registerType(makeSigmoidNeuronType());
  if (Name == "TanhNeuron")
    return Net.registerType(makeTanhNeuronType());
  if (Name == "SumNeuron")
    return Net.registerType(makeSumNeuronType());
  if (Name == "MulNeuron")
    return Net.registerType(makeMulNeuronType());
  if (Name == "SubNeuron")
    return Net.registerType(makeSubNeuronType());
  if (Name == "PReluNeuron")
    return Net.registerType(makePReluNeuronType());
  reportFatalError("unknown standard neuron type '" + Name + "'");
}

Ensemble *layers::DataLayer(Net &Net, const std::string &Name, Shape Dims) {
  return Net.addEnsemble(Name, std::move(Dims), nullptr, EnsembleKind::Data);
}

Ensemble *layers::LabelLayer(Net &Net, const std::string &Name) {
  return Net.addEnsemble(Name, Shape{1}, nullptr, EnsembleKind::Data);
}

Ensemble *layers::FullyConnectedLayer(Net &Net, const std::string &Name,
                                      Ensemble *Input, int64_t NumOutputs) {
  assert(Input && NumOutputs > 0 && "invalid FC configuration");
  const NeuronType *T = standardType(Net, "WeightedNeuron");
  Ensemble *Fc = Net.addEnsemble(Name, Shape{NumOutputs}, T);
  int64_t NumInputs = Input->numNeurons();

  FieldStorage Weights;
  Weights.StorageDims = Shape{NumOutputs};
  Weights.ElemDims = Shape{NumInputs};
  Weights.Init = FieldInitKind::Xavier;
  Weights.FanIn = NumInputs;
  Fc->setFieldStorage("weights", std::move(Weights));

  FieldStorage Bias;
  Bias.StorageDims = Shape{NumOutputs};
  Bias.ElemDims = Shape{1};
  Bias.Init = FieldInitKind::Zero;
  Fc->setFieldStorage("bias", std::move(Bias));

  // Connect every source neuron to each sink neuron (Figure 4, line 17).
  Net.addConnections(Input, Fc, fullyConnectedMapping(Input->dims()));
  return Fc;
}

Ensemble *layers::FullyConnectedLayerShared(Net &Net,
                                            const std::string &Name,
                                            Ensemble *Input,
                                            int64_t NumOutputs,
                                            const std::string &ShareWith) {
  Ensemble *Fc = FullyConnectedLayer(Net, Name, Input, NumOutputs);
  // Rebind both parameter fields onto the owner ensemble's storage.
  for (const char *Field : {"weights", "bias"}) {
    FieldStorage S = *Fc->findFieldStorage(Field);
    S.ShareWithEnsemble = ShareWith;
    Fc->setFieldStorage(Field, std::move(S));
  }
  return Fc;
}

Ensemble *layers::ConvolutionLayer(Net &Net, const std::string &Name,
                                   Ensemble *Input, int64_t NumFilters,
                                   int64_t Kernel, int64_t Stride,
                                   int64_t Pad) {
  assert(Input && "convolution needs an input ensemble");
  const Shape &In = Input->dims();
  if (In.rank() != 3)
    reportFatalError("convolution input '" + Input->name() +
                     "' must be (channels, height, width)");
  kernels::checkWindow("convolution '" + Name + "'", Kernel, Stride);
  int64_t C = In[0], H = In[1], W = In[2];
  int64_t OutH = (H + 2 * Pad - Kernel) / Stride + 1;
  int64_t OutW = (W + 2 * Pad - Kernel) / Stride + 1;
  if (OutH <= 0 || OutW <= 0)
    reportFatalError("convolution '" + Name + "' has empty output");

  const NeuronType *T = standardType(Net, "WeightedNeuron");
  Ensemble *Conv = Net.addEnsemble(Name, Shape{NumFilters, OutH, OutW}, T);
  int64_t WindowLen = C * Kernel * Kernel;

  // Weights shared across the spatial dims: one filter per output channel.
  FieldStorage Weights;
  Weights.StorageDims = Shape{NumFilters};
  Weights.ElemDims = Shape{WindowLen};
  Weights.Map = [](const std::vector<int64_t> &Sink) {
    return std::vector<int64_t>{Sink[0]};
  };
  Weights.Init = FieldInitKind::Xavier;
  Weights.FanIn = WindowLen;
  Conv->setFieldStorage("weights", std::move(Weights));

  FieldStorage Bias;
  Bias.StorageDims = Shape{NumFilters};
  Bias.ElemDims = Shape{1};
  Bias.Map = [](const std::vector<int64_t> &Sink) {
    return std::vector<int64_t>{Sink[0]};
  };
  Bias.Init = FieldInitKind::Zero;
  Conv->setFieldStorage("bias", std::move(Bias));

  Net.addConnections(Input, Conv, convWindowMapping(C, Kernel, Stride, Pad));
  return Conv;
}

namespace {

Ensemble *poolingLayer(Net &Net, const std::string &Name, Ensemble *Input,
                       int64_t Kernel, int64_t Stride, int64_t Pad,
                       const char *TypeName) {
  assert(Input && "pooling needs an input ensemble");
  const Shape &In = Input->dims();
  if (In.rank() != 3)
    reportFatalError("pooling input '" + Input->name() +
                     "' must be (channels, height, width)");
  kernels::checkWindow("pooling '" + Name + "'", Kernel, Stride);
  int64_t C = In[0], H = In[1], W = In[2];
  int64_t OutH = (H + 2 * Pad - Kernel) / Stride + 1;
  int64_t OutW = (W + 2 * Pad - Kernel) / Stride + 1;
  if (OutH <= 0 || OutW <= 0)
    reportFatalError("pooling '" + Name + "' has empty output");

  const NeuronType *T = standardType(Net, TypeName);
  Ensemble *Pool = Net.addEnsemble(Name, Shape{C, OutH, OutW}, T);
  Net.addConnections(Input, Pool, poolWindowMapping(Kernel, Stride, Pad));
  return Pool;
}

Ensemble *activationLayer(Net &Net, const std::string &Name, Ensemble *Input,
                          const char *TypeName, bool InPlace) {
  const NeuronType *T = standardType(Net, TypeName);
  Ensemble *Act = Net.addEnsemble(Name, Input->dims(), T,
                                  InPlace ? EnsembleKind::Activation
                                          : EnsembleKind::Standard);
  Net.addConnections(Input, Act, oneToOneMapping());
  return Act;
}

} // namespace

Ensemble *layers::MaxPoolingLayer(Net &Net, const std::string &Name,
                                  Ensemble *Input, int64_t Kernel,
                                  int64_t Stride, int64_t Pad) {
  return poolingLayer(Net, Name, Input, Kernel, Stride, Pad, "MaxNeuron");
}

Ensemble *layers::AvgPoolingLayer(Net &Net, const std::string &Name,
                                  Ensemble *Input, int64_t Kernel,
                                  int64_t Stride, int64_t Pad) {
  return poolingLayer(Net, Name, Input, Kernel, Stride, Pad, "AvgNeuron");
}

Ensemble *layers::ReluLayer(Net &Net, const std::string &Name,
                            Ensemble *Input, bool InPlace) {
  return activationLayer(Net, Name, Input, "ReluNeuron", InPlace);
}

Ensemble *layers::SigmoidLayer(Net &Net, const std::string &Name,
                               Ensemble *Input, bool InPlace) {
  return activationLayer(Net, Name, Input, "SigmoidNeuron", InPlace);
}

Ensemble *layers::TanhLayer(Net &Net, const std::string &Name,
                            Ensemble *Input, bool InPlace) {
  return activationLayer(Net, Name, Input, "TanhNeuron", InPlace);
}

Ensemble *layers::PReluLayer(Net &Net, const std::string &Name,
                             Ensemble *Input) {
  const NeuronType *T = standardType(Net, "PReluNeuron");
  // Not in place: the backward function reads the pre-activation inputs.
  Ensemble *Act = Net.addEnsemble(Name, Input->dims(), T);
  // One slope parameter shared by the whole ensemble.
  FieldStorage Slope;
  Slope.StorageDims = Shape{1};
  Slope.ElemDims = Shape{1};
  Slope.Map = [](const std::vector<int64_t> &) {
    return std::vector<int64_t>{0};
  };
  Slope.Init = FieldInitKind::Constant;
  Slope.InitValue = 0.25f;
  Act->setFieldStorage("slope", std::move(Slope));
  Net.addConnections(Input, Act, oneToOneMapping());
  return Act;
}

Ensemble *layers::SoftmaxLayer(Net &Net, const std::string &Name,
                               Ensemble *Input) {
  Ensemble *Sm = Net.addEnsemble(Name, Input->dims(), nullptr,
                                 EnsembleKind::Normalization);
  Sm->setNormOp(NormOpKind::Softmax);
  Net.addConnections(Input, Sm, oneToOneMapping());
  return Sm;
}

Ensemble *layers::SoftmaxLossLayer(Net &Net, const std::string &Name,
                                   Ensemble *Input, Ensemble *Labels) {
  assert(Labels && "softmax loss needs a label ensemble");
  Ensemble *Loss =
      Net.addEnsemble(Name, Input->dims(), nullptr, EnsembleKind::Loss);
  Loss->setNormOp(NormOpKind::SoftmaxLoss);
  Loss->setLabelSource(Labels);
  Net.addConnections(Input, Loss, oneToOneMapping());
  return Loss;
}

Ensemble *layers::AddLayer(Net &Net, const std::string &Name,
                           std::vector<Ensemble *> Inputs) {
  assert(!Inputs.empty() && "AddLayer needs at least one input");
  const NeuronType *T = standardType(Net, "SumNeuron");
  Ensemble *Sum = Net.addEnsemble(Name, Inputs[0]->dims(), T);
  for (Ensemble *In : Inputs) {
    if (In->dims() != Inputs[0]->dims())
      reportFatalError("AddLayer '" + Name + "' inputs must share a shape");
    Net.addConnections(In, Sum, oneToOneMapping());
  }
  return Sum;
}

Ensemble *layers::MulLayer(Net &Net, const std::string &Name, Ensemble *A,
                           Ensemble *B) {
  assert(A && B && "MulLayer needs two inputs");
  if (A->dims() != B->dims())
    reportFatalError("MulLayer '" + Name + "' inputs must share a shape");
  const NeuronType *T = standardType(Net, "MulNeuron");
  Ensemble *Mul = Net.addEnsemble(Name, A->dims(), T);
  Net.addConnections(A, Mul, oneToOneMapping());
  Net.addConnections(B, Mul, oneToOneMapping());
  return Mul;
}

Ensemble *layers::SubLayer(Net &Net, const std::string &Name, Ensemble *A,
                           Ensemble *B) {
  assert(A && B && "SubLayer needs two inputs");
  if (A->dims() != B->dims())
    reportFatalError("SubLayer '" + Name + "' inputs must share a shape");
  const NeuronType *T = standardType(Net, "SubNeuron");
  Ensemble *Sub = Net.addEnsemble(Name, A->dims(), T);
  Net.addConnections(A, Sub, oneToOneMapping());
  Net.addConnections(B, Sub, oneToOneMapping());
  return Sub;
}
