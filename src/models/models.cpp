//===- models/models.cpp --------------------------------------*- C++ -*-===//

#include "models/models.h"

#include "baselines/mocha/mocha.h"
#include "core/layers/attention.h"
#include "core/layers/layers.h"
#include "core/layers/recurrent.h"
#include "support/error.h"

#include <cmath>
#include <unordered_map>

using namespace latte;
using namespace latte::models;

namespace {

LayerSpec conv(std::string Name, int64_t Filters, int64_t Kernel,
               int64_t Stride, int64_t Pad) {
  LayerSpec L;
  L.K = LayerSpec::Kind::Conv;
  L.Name = std::move(Name);
  L.Filters = Filters;
  L.Kernel = Kernel;
  L.Stride = Stride;
  L.Pad = Pad;
  return L;
}

LayerSpec pool(std::string Name, int64_t Kernel, int64_t Stride,
               int64_t Pad = 0) {
  LayerSpec L;
  L.K = LayerSpec::Kind::MaxPool;
  L.Name = std::move(Name);
  L.Kernel = Kernel;
  L.Stride = Stride;
  L.Pad = Pad;
  return L;
}

LayerSpec relu(std::string Name) {
  LayerSpec L;
  L.K = LayerSpec::Kind::Relu;
  L.Name = std::move(Name);
  return L;
}

LayerSpec tanhL(std::string Name) {
  LayerSpec L;
  L.K = LayerSpec::Kind::Tanh;
  L.Name = std::move(Name);
  return L;
}

LayerSpec fc(std::string Name, int64_t Outputs) {
  LayerSpec L;
  L.K = LayerSpec::Kind::Fc;
  L.Name = std::move(Name);
  L.Filters = Outputs;
  return L;
}

int64_t scaled(int64_t Extent, double Scale) {
  int64_t S = static_cast<int64_t>(std::llround(Extent * Scale));
  return S < 1 ? 1 : S;
}

LayerSpec slice(std::string Name, std::string Input, int64_t T) {
  LayerSpec L;
  L.K = LayerSpec::Kind::Slice;
  L.Name = std::move(Name);
  L.Inputs = {std::move(Input)};
  L.TimeIndex = T;
  return L;
}

/// True for nodes only the Latte builder can lower: explicit graph edges,
/// weight-sharing groups, and the sequence kinds.
bool isGraphOnly(const LayerSpec &L) {
  if (!L.Inputs.empty() || !L.ShareWith.empty())
    return true;
  switch (L.K) {
  case LayerSpec::Kind::Conv:
  case LayerSpec::Kind::MaxPool:
  case LayerSpec::Kind::AvgPool:
  case LayerSpec::Kind::Relu:
  case LayerSpec::Kind::Tanh:
  case LayerSpec::Kind::Fc:
    return false;
  case LayerSpec::Kind::Sigmoid:
  case LayerSpec::Kind::Add:
  case LayerSpec::Kind::Mul:
  case LayerSpec::Kind::Sub:
  case LayerSpec::Kind::Slice:
  case LayerSpec::Kind::Stack:
  case LayerSpec::Kind::Lstm:
  case LayerSpec::Kind::Gru:
  case LayerSpec::Kind::Attention:
    return true;
  }
  latteUnreachable("unknown layer kind");
}

} // namespace

std::vector<LayerAudit> models::auditSpec(const ModelSpec &Spec) {
  std::vector<LayerAudit> Audit;
  auto OutSpatial = [](int64_t In, int64_t K, int64_t S, int64_t P) {
    int64_t Out = (In + 2 * P - K) / S + 1;
    if (Out <= 0)
      reportFatalError("layer output collapses to zero; the spatial scale "
                       "is too small for this architecture");
    return Out;
  };

  // Graph walk: shapes by node name; a node with no explicit Inputs
  // consumes the previous node's output ("data" before any node exists).
  std::unordered_map<std::string, Shape> Shapes;
  Shapes["data"] = Spec.InputDims;
  std::string Prev = "data";
  auto ShapeOf = [&](const std::string &Name) -> const Shape & {
    auto It = Shapes.find(Name);
    if (It == Shapes.end())
      reportFatalError("spec references unknown node '" + Name + "'");
    return It->second;
  };
  auto InputShapes = [&](const LayerSpec &L) {
    std::vector<Shape> In;
    if (L.Inputs.empty())
      In.push_back(ShapeOf(Prev));
    else
      for (const std::string &Name : L.Inputs)
        In.push_back(ShapeOf(Name));
    return In;
  };

  for (const LayerSpec &L : Spec.Layers) {
    LayerAudit Row;
    Row.Name = L.Name;
    std::vector<Shape> In = InputShapes(L);
    const Shape &Cur = In[0];
    Shape Out = Cur;
    switch (L.K) {
    case LayerSpec::Kind::Conv: {
      if (Cur.rank() != 3)
        reportFatalError("conv '" + L.Name + "' input must be (C, H, W)");
      int64_t OutH = OutSpatial(Cur[1], L.Kernel, L.Stride, L.Pad);
      int64_t OutW = OutSpatial(Cur[2], L.Kernel, L.Stride, L.Pad);
      Row.Params = L.Filters * (Cur[0] * L.Kernel * L.Kernel + 1);
      Out = Shape{L.Filters, OutH, OutW};
      break;
    }
    case LayerSpec::Kind::MaxPool:
    case LayerSpec::Kind::AvgPool: {
      int64_t OutH = OutSpatial(Cur[1], L.Kernel, L.Stride, L.Pad);
      int64_t OutW = OutSpatial(Cur[2], L.Kernel, L.Stride, L.Pad);
      Out = Shape{Cur[0], OutH, OutW};
      break;
    }
    case LayerSpec::Kind::Relu:
    case LayerSpec::Kind::Tanh:
    case LayerSpec::Kind::Sigmoid:
      case LayerSpec::Kind::Add:
    case LayerSpec::Kind::Mul:
    case LayerSpec::Kind::Sub:
      break; // shape-preserving, no parameters
    case LayerSpec::Kind::Fc:
      // Tied layers share the owner's storage: no parameters of their own.
      Row.Params = L.ShareWith.empty() ? L.Filters * (Cur.numElements() + 1)
                                       : 0;
      Out = Shape{L.Filters};
      break;
    case LayerSpec::Kind::Slice:
      if (Cur.rank() != 2)
        reportFatalError("slice '" + L.Name + "' input must be (T, F)");
      if (L.TimeIndex < 0 || L.TimeIndex >= Cur[0])
        reportFatalError("slice '" + L.Name + "' timestep out of range");
      Out = Shape{Cur[1]};
      break;
    case LayerSpec::Kind::Stack:
      if (Cur.rank() != 1)
        reportFatalError("stack '" + L.Name + "' input must be rank 1");
      Out = Shape{L.Filters, Cur[0]};
      break;
    case LayerSpec::Kind::Lstm: {
      // 4 gates, each with an input projection {H x F}, a recurrent
      // projection {H x H}, and biases — tied across all timesteps.
      int64_t H = L.Filters, F = Cur.numElements();
      Row.Params = 4 * (H * F + H) + 4 * (H * H + H);
      Out = Shape{H};
      break;
    }
    case LayerSpec::Kind::Gru: {
      int64_t H = L.Filters, F = Cur.numElements();
      Row.Params = 3 * (H * F + H) + 3 * (H * H + H);
      Out = Shape{H};
      break;
    }
    case LayerSpec::Kind::Attention: {
      if (Cur.rank() != 2)
        reportFatalError("attention '" + L.Name + "' input must be (T, F)");
      // Q/K/V projections, each {D x F} + bias, shared across timesteps.
      int64_t D = L.Filters, F = Cur[1];
      Row.Params = 3 * (D * F + D);
      Out = Shape{Cur[0], D};
      break;
    }
    }
    Row.OutDims = Out;
    Shapes[L.Name] = Out;
    Prev = L.Name;
    Audit.push_back(std::move(Row));
  }

  // Final classifier over the last node (zero-layer specs classify the
  // input directly: the audit is then just this row).
  const Shape &Last = ShapeOf(Prev);
  LayerAudit Cls;
  Cls.Name = "classifier";
  Cls.Params = Spec.NumClasses * (Last.numElements() + 1);
  Cls.OutDims = Shape{Spec.NumClasses};
  Audit.push_back(std::move(Cls));
  return Audit;
}

int64_t models::countParams(const ModelSpec &Spec) {
  int64_t Total = 0;
  for (const LayerAudit &Row : auditSpec(Spec))
    Total += Row.Params;
  return Total;
}

ModelSpec models::alexNet(double Scale) {
  ModelSpec Spec;
  Spec.Name = "AlexNet";
  Spec.InputDims = Shape{3, scaled(227, Scale), scaled(227, Scale)};
  Spec.NumClasses = 1000;
  Spec.Layers = {
      conv("conv1", 96, 11, 4, 0), relu("relu1"), pool("pool1", 3, 2),
      conv("conv2", 256, 5, 1, 2), relu("relu2"), pool("pool2", 3, 2),
      conv("conv3", 384, 3, 1, 1), relu("relu3"),
      conv("conv4", 384, 3, 1, 1), relu("relu4"),
      conv("conv5", 256, 3, 1, 1), relu("relu5"), pool("pool5", 3, 2),
      fc("fc6", 4096),             relu("relu6"),
      fc("fc7", 4096),             relu("relu7"),
  };
  return Spec;
}

ModelSpec models::vggA(double Scale) {
  ModelSpec Spec;
  Spec.Name = "VGG";
  Spec.InputDims = Shape{3, scaled(224, Scale), scaled(224, Scale)};
  Spec.NumClasses = 1000;
  Spec.Layers = {
      // Group 1
      conv("conv1_1", 64, 3, 1, 1), relu("relu1_1"), pool("pool1", 2, 2),
      // Group 2
      conv("conv2_1", 128, 3, 1, 1), relu("relu2_1"), pool("pool2", 2, 2),
      // Group 3 (two convolutions)
      conv("conv3_1", 256, 3, 1, 1), relu("relu3_1"),
      conv("conv3_2", 256, 3, 1, 1), relu("relu3_2"), pool("pool3", 2, 2),
      // Group 4 (two convolutions; the paper's fusion-limited case)
      conv("conv4_1", 512, 3, 1, 1), relu("relu4_1"),
      conv("conv4_2", 512, 3, 1, 1), relu("relu4_2"), pool("pool4", 2, 2),
      // Group 5
      conv("conv5_1", 512, 3, 1, 1), relu("relu5_1"),
      conv("conv5_2", 512, 3, 1, 1), relu("relu5_2"), pool("pool5", 2, 2),
      fc("fc6", 4096), relu("relu6"),
      fc("fc7", 4096), relu("relu7"),
  };
  return Spec;
}

ModelSpec models::vgg16(double Scale) {
  ModelSpec Spec;
  Spec.Name = "VGG-16";
  Spec.InputDims = Shape{3, scaled(224, Scale), scaled(224, Scale)};
  Spec.NumClasses = 1000;
  auto Block = [&](int G, int Convs, int64_t Filters) {
    for (int I = 1; I <= Convs; ++I) {
      std::string N =
          "conv" + std::to_string(G) + "_" + std::to_string(I);
      Spec.Layers.push_back(conv(N, Filters, 3, 1, 1));
      Spec.Layers.push_back(relu("relu" + std::to_string(G) + "_" +
                                 std::to_string(I)));
    }
    Spec.Layers.push_back(pool("pool" + std::to_string(G), 2, 2));
  };
  Block(1, 2, 64);
  Block(2, 2, 128);
  Block(3, 3, 256);
  Block(4, 3, 512);
  Block(5, 3, 512);
  Spec.Layers.push_back(fc("fc6", 4096));
  Spec.Layers.push_back(relu("relu6"));
  Spec.Layers.push_back(fc("fc7", 4096));
  Spec.Layers.push_back(relu("relu7"));
  return Spec;
}

ModelSpec models::overfeat(double Scale) {
  ModelSpec Spec;
  Spec.Name = "OverFeat";
  Spec.InputDims = Shape{3, scaled(231, Scale), scaled(231, Scale)};
  Spec.NumClasses = 1000;
  Spec.Layers = {
      conv("conv1", 96, 11, 4, 0),   relu("relu1"), pool("pool1", 2, 2),
      conv("conv2", 256, 5, 1, 0),   relu("relu2"), pool("pool2", 2, 2),
      conv("conv3", 512, 3, 1, 1),   relu("relu3"),
      conv("conv4", 1024, 3, 1, 1),  relu("relu4"),
      conv("conv5", 1024, 3, 1, 1),  relu("relu5"), pool("pool5", 2, 2),
      fc("fc6", 3072),               relu("relu6"),
      fc("fc7", 4096),               relu("relu7"),
  };
  return Spec;
}

ModelSpec models::vggFirstThreeLayers(double Scale, int64_t InputChannels) {
  ModelSpec Spec;
  Spec.Name = "VGG-first-3";
  Spec.InputDims =
      Shape{InputChannels, scaled(224, Scale), scaled(224, Scale)};
  Spec.NumClasses = 10;
  Spec.Layers = {conv("conv1_1", 64, 3, 1, 1), relu("relu1_1"),
                 pool("pool1", 2, 2)};
  return Spec;
}

ModelSpec models::vggGroup(int G, double Scale) {
  assert(G >= 1 && G <= 4 && "VGG group index must be 1-4");
  // Natural input of group G of VGG model A at 224 input.
  static const int64_t Channels[] = {3, 64, 128, 256};
  static const int64_t Spatial[] = {224, 112, 56, 28};
  static const int64_t Filters[] = {64, 128, 256, 512};
  ModelSpec Spec;
  Spec.Name = "VGG-group" + std::to_string(G);
  Spec.InputDims = Shape{Channels[G - 1], scaled(Spatial[G - 1], Scale),
                         scaled(Spatial[G - 1], Scale)};
  Spec.NumClasses = 10;
  int Convs = G >= 3 ? 2 : 1;
  for (int I = 1; I <= Convs; ++I) {
    std::string N = "conv" + std::to_string(G) + "_" + std::to_string(I);
    Spec.Layers.push_back(conv(N, Filters[G - 1], 3, 1, 1));
    Spec.Layers.push_back(relu("relu" + std::to_string(G) + "_" +
                               std::to_string(I)));
  }
  Spec.Layers.push_back(pool("pool" + std::to_string(G), 2, 2));
  return Spec;
}

ModelSpec models::lenet() {
  ModelSpec Spec;
  Spec.Name = "LeNet";
  Spec.InputDims = Shape{1, 28, 28};
  Spec.NumClasses = 10;
  Spec.Layers = {
      conv("conv1", 20, 5, 1, 0), pool("pool1", 2, 2),
      conv("conv2", 50, 5, 1, 0), pool("pool2", 2, 2),
      fc("fc1", 500),             relu("relu1"),
  };
  return Spec;
}

ModelSpec models::mlp(int64_t InputSize, std::vector<int64_t> HiddenWidths,
                      int64_t NumClasses) {
  ModelSpec Spec;
  Spec.Name = "MLP";
  Spec.InputDims = Shape{InputSize};
  Spec.NumClasses = NumClasses;
  for (size_t I = 0; I < HiddenWidths.size(); ++I) {
    Spec.Layers.push_back(
        fc("ip" + std::to_string(I + 1), HiddenWidths[I]));
    Spec.Layers.push_back(tanhL("tanh" + std::to_string(I + 1)));
  }
  return Spec;
}

ModelSpec models::lstmClassifier(int64_t Timesteps, int64_t Features,
                                 int64_t Hidden, int64_t NumClasses) {
  assert(Timesteps > 0 && Features > 0 && Hidden > 0 && NumClasses > 1);
  ModelSpec Spec;
  Spec.Name = "LSTM-cls";
  Spec.InputDims = Shape{Timesteps, Features};
  Spec.NumClasses = NumClasses;
  LayerSpec Cell;
  Cell.K = LayerSpec::Kind::Lstm;
  Cell.Name = "lstm";
  Cell.Filters = Hidden;
  for (int64_t T = 0; T < Timesteps; ++T) {
    std::string SliceName = "x" + std::to_string(T);
    Spec.Layers.push_back(slice(SliceName, "data", T));
    Cell.Inputs.push_back(SliceName);
  }
  Spec.Layers.push_back(std::move(Cell));
  return Spec;
}

ModelSpec models::gruClassifier(int64_t Timesteps, int64_t Features,
                                int64_t Hidden, int64_t NumClasses) {
  ModelSpec Spec = lstmClassifier(Timesteps, Features, Hidden, NumClasses);
  Spec.Name = "GRU-cls";
  Spec.Layers.back().K = LayerSpec::Kind::Gru;
  Spec.Layers.back().Name = "gru";
  return Spec;
}

ModelSpec models::attentionClassifier(int64_t Timesteps, int64_t Features,
                                      int64_t ModelDim, int64_t NumClasses) {
  assert(Timesteps > 0 && Features > 0 && ModelDim > 0 && NumClasses > 1);
  ModelSpec Spec;
  Spec.Name = "Attn-cls";
  Spec.InputDims = Shape{Timesteps, Features};
  Spec.NumClasses = NumClasses;
  LayerSpec Attn;
  Attn.K = LayerSpec::Kind::Attention;
  Attn.Name = "attn";
  Attn.Inputs = {"data"};
  Attn.Filters = ModelDim;
  Spec.Layers.push_back(std::move(Attn));
  return Spec;
}

core::Ensemble *models::buildLatte(core::Net &Net, const ModelSpec &Spec,
                                   bool WithLoss) {
  using namespace latte::layers;
  // Graph walk mirroring auditSpec: ensembles by node name; empty Inputs
  // means the previous node's output.
  std::unordered_map<std::string, core::Ensemble *> Nodes;
  core::Ensemble *Cur = DataLayer(Net, "data", Spec.InputDims);
  Nodes["data"] = Cur;
  auto NodeOf = [&](const std::string &Name) -> core::Ensemble * {
    auto It = Nodes.find(Name);
    if (It == Nodes.end())
      reportFatalError("spec references unknown node '" + Name + "'");
    return It->second;
  };
  auto InputsOf = [&](const LayerSpec &L) {
    std::vector<core::Ensemble *> In;
    if (L.Inputs.empty())
      In.push_back(Cur);
    else
      for (const std::string &Name : L.Inputs)
        In.push_back(NodeOf(Name));
    return In;
  };

  for (const LayerSpec &L : Spec.Layers) {
    std::vector<core::Ensemble *> In = InputsOf(L);
    core::Ensemble *Out = nullptr;
    switch (L.K) {
    case LayerSpec::Kind::Conv:
      Out = ConvolutionLayer(Net, L.Name, In[0], L.Filters, L.Kernel,
                             L.Stride, L.Pad);
      break;
    case LayerSpec::Kind::MaxPool:
      Out = MaxPoolingLayer(Net, L.Name, In[0], L.Kernel, L.Stride, L.Pad);
      break;
    case LayerSpec::Kind::AvgPool:
      Out = AvgPoolingLayer(Net, L.Name, In[0], L.Kernel, L.Stride, L.Pad);
      break;
    case LayerSpec::Kind::Relu:
      Out = ReluLayer(Net, L.Name, In[0]);
      break;
    case LayerSpec::Kind::Tanh:
      Out = TanhLayer(Net, L.Name, In[0]);
      break;
    case LayerSpec::Kind::Sigmoid:
      Out = SigmoidLayer(Net, L.Name, In[0]);
      break;
    case LayerSpec::Kind::Fc:
      Out = L.ShareWith.empty()
                ? FullyConnectedLayer(Net, L.Name, In[0], L.Filters)
                : FullyConnectedLayerShared(Net, L.Name, In[0], L.Filters,
                                            L.ShareWith);
      break;
    case LayerSpec::Kind::Add:
      Out = AddLayer(Net, L.Name, In);
      break;
    case LayerSpec::Kind::Mul:
      if (In.size() != 2)
        reportFatalError("mul '" + L.Name + "' needs exactly two inputs");
      Out = MulLayer(Net, L.Name, In[0], In[1]);
      break;
    case LayerSpec::Kind::Sub:
      if (In.size() != 2)
        reportFatalError("sub '" + L.Name + "' needs exactly two inputs");
      Out = SubLayer(Net, L.Name, In[0], In[1]);
      break;
    case LayerSpec::Kind::Slice:
      Out = SliceLayer(Net, L.Name, In[0], L.TimeIndex);
      break;
    case LayerSpec::Kind::Stack:
      Out = StackLayer(Net, L.Name, In[0], L.Filters);
      break;
    case LayerSpec::Kind::Lstm:
      Out = LstmLayer(Net, L.Name, In, L.Filters).Hidden.back();
      break;
    case LayerSpec::Kind::Gru:
      Out = GruLayer(Net, L.Name, In, L.Filters).Hidden.back();
      break;
    case LayerSpec::Kind::Attention:
      Out = AttentionLayer(Net, L.Name, In[0], L.Filters);
      break;
    }
    // Register the block's output under the node name (recurrent and
    // attention blocks name their internal ensembles "<name>_...", so the
    // node name itself stays free).
    Nodes[L.Name] = Out;
    Cur = Out;
  }
  Cur = FullyConnectedLayer(Net, "classifier", Cur, Spec.NumClasses);
  if (!WithLoss)
    return Cur;
  core::Ensemble *Labels = LabelLayer(Net, "labels");
  return SoftmaxLossLayer(Net, "loss", Cur, Labels);
}

void models::buildCaffe(caffe::CaffeNet &Net, const ModelSpec &Spec,
                        bool WithLoss) {
  using namespace latte::caffe;
  Net.setInputShape(Spec.InputDims);
  for (const LayerSpec &L : Spec.Layers) {
    if (isGraphOnly(L))
      reportFatalError("graph-structured node '" + L.Name +
                       "' unsupported by the Caffe baseline; baselines "
                       "compare the flat CNN/MLP suite only");
    switch (L.K) {
    case LayerSpec::Kind::Conv:
      Net.addLayer(std::make_unique<ConvolutionLayer>(L.Name, L.Filters,
                                                      L.Kernel, L.Stride,
                                                      L.Pad));
      break;
    case LayerSpec::Kind::MaxPool:
      Net.addLayer(std::make_unique<PoolingLayer>(
          L.Name, PoolingLayer::Mode::Max, L.Kernel, L.Stride, L.Pad));
      break;
    case LayerSpec::Kind::AvgPool:
      Net.addLayer(std::make_unique<PoolingLayer>(
          L.Name, PoolingLayer::Mode::Avg, L.Kernel, L.Stride, L.Pad));
      break;
    case LayerSpec::Kind::Relu:
      Net.addLayer(std::make_unique<ReluLayer>(L.Name));
      break;
    case LayerSpec::Kind::Tanh:
      case LayerSpec::Kind::Sigmoid:
    case LayerSpec::Kind::Add:
    case LayerSpec::Kind::Mul:
    case LayerSpec::Kind::Sub:
    case LayerSpec::Kind::Slice:
    case LayerSpec::Kind::Stack:
    case LayerSpec::Kind::Lstm:
    case LayerSpec::Kind::Gru:
    case LayerSpec::Kind::Attention:
      reportFatalError("layer kind unsupported by the Caffe baseline: " +
                       L.Name);
    case LayerSpec::Kind::Fc:
      Net.addLayer(std::make_unique<InnerProductLayer>(L.Name, L.Filters));
      break;
    }
  }
  Net.addLayer(
      std::make_unique<InnerProductLayer>("classifier", Spec.NumClasses));
  if (WithLoss) {
    Net.enableLabels();
    Net.addLayer(std::make_unique<SoftmaxLossLayer>("loss"));
  }
}

void models::buildMocha(caffe::CaffeNet &Net, const ModelSpec &Spec,
                        bool WithLoss) {
  using namespace latte::mocha;
  Net.setInputShape(Spec.InputDims);
  for (const LayerSpec &L : Spec.Layers) {
    if (isGraphOnly(L))
      reportFatalError("graph-structured node '" + L.Name +
                       "' unsupported by the Mocha baseline; baselines "
                       "compare the flat CNN/MLP suite only");
    switch (L.K) {
    case LayerSpec::Kind::Conv:
      Net.addLayer(std::make_unique<NaiveConvolutionLayer>(
          L.Name, L.Filters, L.Kernel, L.Stride, L.Pad));
      break;
    case LayerSpec::Kind::MaxPool:
      Net.addLayer(std::make_unique<NaiveMaxPoolingLayer>(L.Name, L.Kernel,
                                                          L.Stride, L.Pad));
      break;
    case LayerSpec::Kind::Relu:
      Net.addLayer(std::make_unique<NaiveReluLayer>(L.Name));
      break;
    case LayerSpec::Kind::Fc:
      Net.addLayer(
          std::make_unique<NaiveInnerProductLayer>(L.Name, L.Filters));
      break;
    case LayerSpec::Kind::AvgPool:
    case LayerSpec::Kind::Tanh:
      case LayerSpec::Kind::Sigmoid:
    case LayerSpec::Kind::Add:
    case LayerSpec::Kind::Mul:
    case LayerSpec::Kind::Sub:
    case LayerSpec::Kind::Slice:
    case LayerSpec::Kind::Stack:
    case LayerSpec::Kind::Lstm:
    case LayerSpec::Kind::Gru:
    case LayerSpec::Kind::Attention:
      reportFatalError("layer kind unsupported by the Mocha baseline: " +
                       L.Name);
    }
  }
  Net.addLayer(
      std::make_unique<NaiveInnerProductLayer>("classifier",
                                               Spec.NumClasses));
  if (WithLoss) {
    Net.enableLabels();
    Net.addLayer(std::make_unique<caffe::SoftmaxLossLayer>("loss"));
  }
}
