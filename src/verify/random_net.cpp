//===- verify/random_net.cpp ----------------------------------*- C++ -*-===//

#include "verify/random_net.h"

#include "core/layers/attention.h"
#include "core/layers/layers.h"
#include "core/layers/recurrent.h"
#include "support/rng.h"

#include <sstream>

using namespace latte;
using namespace latte::verify;
using namespace latte::core;
using namespace latte::layers;

namespace {

const NeuronType *scaledTanhType(Net &Net) {
  if (const NeuronType *T = Net.findType("ScaledTanhNeuron"))
    return T;
  using namespace core::dsl;
  using namespace ir;
  std::vector<FieldSpec> Fields = {
      {"gain", Shape{1}, /*IsParam=*/true, /*HasGrad=*/true, 1.0f},
  };
  // value = gain * tanh(in). The backward recomputes tanh(in) instead of
  // declaring a local so the body stays a pure expression tree.
  NeuronBodyFn Fwd = [](const NeuronContext &) {
    return setValue(mul(field("gain", indexList(intConst(0))),
                        ir::tanh(input(0, intConst(0)))));
  };
  NeuronBodyFn Bwd = [](const NeuronContext &) {
    std::vector<StmtPtr> Stmts;
    // d/din = gain * (1 - tanh(in)^2)
    Stmts.push_back(accumGradInput(
        0, intConst(0),
        mul(grad(),
            mul(field("gain", indexList(intConst(0))),
                sub(floatConst(1.0),
                    mul(ir::tanh(input(0, intConst(0))),
                        ir::tanh(input(0, intConst(0)))))))));
    // d/dgain = tanh(in)
    Stmts.push_back(accumField("grad_gain", indexList(intConst(0)),
                               mul(grad(),
                                   ir::tanh(input(0, intConst(0))))));
    return block(std::move(Stmts));
  };
  return Net.registerType(NeuronType("ScaledTanhNeuron", std::move(Fields),
                                     std::move(Fwd), std::move(Bwd)));
}

} // namespace

Ensemble *verify::ScaledTanhLayer(Net &Net, const std::string &Name,
                                  Ensemble *Input) {
  const NeuronType *T = scaledTanhType(Net);
  Ensemble *E = Net.addEnsemble(Name, Input->dims(), T);
  FieldStorage Gain;
  Gain.StorageDims = Shape{1};
  Gain.ElemDims = Shape{1};
  Gain.Map = [](const std::vector<int64_t> &) {
    return std::vector<int64_t>{0};
  };
  Gain.Init = FieldInitKind::Constant;
  Gain.InitValue = 0.75f;
  E->setFieldStorage("gain", std::move(Gain));
  Net.addConnections(Input, E, oneToOneMapping());
  return E;
}

int64_t verify::randomNetClasses(uint64_t Seed, const RandomNetOptions &) {
  Rng R(Seed ^ 0xc1a55e5);
  return 2 + R.uniformInt(3);
}

std::string verify::randomNet(Net &Net, uint64_t Seed,
                              const RandomNetOptions &O) {
  Rng R(Seed ^ 0x5eedf00d);
  int64_t Classes = randomNetClasses(Seed, O);
  std::ostringstream Desc;
  Desc << "randomNet(seed=0x" << std::hex << Seed << std::dec << "): ";

  int Id = 0;
  auto Name = [&](const char *Base) {
    return std::string(Base) + "_" + std::to_string(Id++);
  };

  bool Image = R.uniform() < 0.5;
  Ensemble *Cur;
  if (Image) {
    int64_t C = 1 + R.uniformInt(3);
    int64_t H = 5 + R.uniformInt(4);
    Cur = DataLayer(Net, "data", Shape{C, H, H});
  } else {
    int64_t F = 4 + R.uniformInt(9);
    Cur = DataLayer(Net, "data", Shape{F});
  }
  Desc << "data" << Cur->dims().str();

  // Exact zeros (ReLU) survive injective elementwise maps and create
  // argmax ties in max pooling, whose gradient routing legitimately
  // differs between the interpreted MaxNeuron (ties share the gradient)
  // and the matched kernel (first argmax wins). While ties are possible,
  // only average pooling is generated.
  bool TieRisk = false;

  auto Activation = [&]() {
    int Which = static_cast<int>(R.uniformInt(3));
    bool InPlace = R.uniform() < 0.5;
    const char *Tag = Which == 0 ? "relu" : Which == 1 ? "sigmoid" : "tanh";
    std::string N = Name(Tag);
    if (Which == 0) {
      Cur = ReluLayer(Net, N, Cur, InPlace);
      TieRisk = true;
    } else if (Which == 1) {
      Cur = SigmoidLayer(Net, N, Cur, InPlace);
    } else {
      Cur = TanhLayer(Net, N, Cur, InPlace);
    }
    Desc << " -> " << Tag << (InPlace ? "(inplace)" : "");
  };

  int Blocks =
      O.MinBlocks + static_cast<int>(R.uniformInt(O.MaxBlocks - O.MinBlocks + 1));
  for (int B = 0; B < Blocks; ++B) {
    if (Image) {
      const Shape &D = Cur->dims();
      int64_t H = D.dim(1);
      switch (R.uniformInt(8)) {
      case 0:
      case 1: { // convolution (shared filter fields)
        int64_t Filters = 2 + R.uniformInt(3);
        int64_t Kernel = 1 + R.uniformInt(3);
        int64_t Stride = 1 + R.uniformInt(2);
        int64_t Pad = Kernel > 1 ? R.uniformInt(2) : 0;
        int64_t Out = (H + 2 * Pad - Kernel) / Stride + 1;
        if (Out < 2) {
          Activation();
          break;
        }
        Cur = ConvolutionLayer(Net, Name("conv"), Cur, Filters, Kernel,
                               Stride, Pad);
        TieRisk = false;
        Desc << " -> conv(k" << Kernel << ",s" << Stride << ",p" << Pad
             << ")" << Cur->dims().str();
        break;
      }
      case 2: { // pooling
        int64_t Kernel = 2 + R.uniformInt(2);
        int64_t Stride = 2;
        int64_t Out = (H - Kernel) / Stride + 1;
        if (Out < 1) {
          Activation();
          break;
        }
        // Max pooling only when no upstream op manufactured exact ties;
        // pad stays 0 for max pooling (the interpreted MaxNeuron reads
        // out-of-bounds as 0.0, the kernel skips padding entirely).
        bool Max = !TieRisk && R.uniform() < 0.5;
        if (Max) {
          Cur = MaxPoolingLayer(Net, Name("maxpool"), Cur, Kernel, Stride);
        } else {
          Cur = AvgPoolingLayer(Net, Name("avgpool"), Cur, Kernel, Stride);
          TieRisk = false;
        }
        Desc << " -> " << (Max ? "maxpool" : "avgpool") << "(k" << Kernel
             << ",s" << Stride << ")" << Cur->dims().str();
        break;
      }
      case 3:
      case 5:
        Activation();
        break;
      case 4:
        Cur = PReluLayer(Net, Name("prelu"), Cur);
        Desc << " -> prelu";
        break;
      case 6:
        if (O.AllowCustom) {
          Cur = ScaledTanhLayer(Net, Name("stanh"), Cur);
          Desc << " -> scaledtanh";
        } else {
          Activation();
        }
        break;
      case 7: { // flatten into FC, switch to flat mode
        int64_t Outs = 4 + R.uniformInt(6);
        Cur = FullyConnectedLayer(Net, Name("fc"), Cur, Outs);
        TieRisk = false;
        Image = false;
        Desc << " -> fc(" << Outs << ")";
        break;
      }
      }
    } else {
      switch (R.uniformInt(10)) {
      case 0:
      case 1: { // fully connected (unshared fields)
        int64_t Outs = 3 + R.uniformInt(8);
        Cur = FullyConnectedLayer(Net, Name("fc"), Cur, Outs);
        TieRisk = false;
        Desc << " -> fc(" << Outs << ")";
        break;
      }
      case 2:
      case 4:
        Activation();
        break;
      case 3:
        Cur = PReluLayer(Net, Name("prelu"), Cur);
        Desc << " -> prelu";
        break;
      case 5:
        if (O.AllowCustom) {
          Cur = ScaledTanhLayer(Net, Name("stanh"), Cur);
          Desc << " -> scaledtanh";
        } else {
          Activation();
        }
        break;
      case 6:
        if (O.AllowBranches) { // two-branch elementwise block
          int64_t K = 3 + R.uniformInt(6);
          Ensemble *A = FullyConnectedLayer(Net, Name("bra"), Cur, K);
          Ensemble *Bb = FullyConnectedLayer(Net, Name("brb"), Cur, K);
          int Op = static_cast<int>(R.uniformInt(3));
          if (Op == 0)
            Cur = AddLayer(Net, Name("add"), {A, Bb});
          else if (Op == 1)
            Cur = MulLayer(Net, Name("mul"), A, Bb);
          else
            Cur = SubLayer(Net, Name("sub"), A, Bb);
          TieRisk = false;
          Desc << " -> branch(" << K << ","
               << (Op == 0 ? "add" : Op == 1 ? "mul" : "sub") << ")";
        } else {
          Activation();
        }
        break;
      case 7:
        if (O.AllowSharedFc && Cur->numNeurons() <= 12) {
          // Weight tying: two stacked FCs sharing one parameter set.
          int64_t N = Cur->numNeurons();
          std::string Owner = Name("tied");
          Ensemble *A = FullyConnectedLayer(Net, Owner, Cur, N);
          Cur = FullyConnectedLayerShared(Net, Name("tied"), A, N, Owner);
          TieRisk = false;
          Desc << " -> tied-fc(" << N << ")x2";
        } else {
          Activation();
        }
        break;
      case 8:
        if (O.AllowRecurrent && Cur->dims().rank() == 1) {
          // Broadcast the activation into a short sequence and run an
          // unrolled recurrent cell over it: tied gate weights across
          // timesteps, BPTT accumulation through the whole chain.
          int T = 2 + static_cast<int>(R.uniformInt(2));
          int64_t Hidden = 3 + R.uniformInt(3);
          bool Gru = R.uniform() < 0.5;
          std::string Base = Name(Gru ? "gru" : "lstm");
          Ensemble *Seq = StackLayer(Net, Base + "_seq", Cur, T);
          std::vector<Ensemble *> Xs;
          for (int S = 0; S < T; ++S)
            Xs.push_back(
                SliceLayer(Net, Base + "_x" + std::to_string(S), Seq, S));
          RecurrentOutputs RO = Gru ? GruLayer(Net, Base, Xs, Hidden)
                                    : LstmLayer(Net, Base, Xs, Hidden);
          Cur = RO.Hidden.back();
          TieRisk = false;
          Desc << " -> " << (Gru ? "gru" : "lstm") << "(t" << T << ",h"
               << Hidden << ")";
        } else {
          Activation();
        }
        break;
      case 9:
        if (O.AllowAttention && Cur->dims().rank() == 1) {
          // Single-head attention over a broadcast sequence: shared Q/K/V
          // projections, dot-product scores, softmax over keys, readout.
          int64_t T = 2 + R.uniformInt(2);
          int64_t D = 2 + R.uniformInt(3);
          std::string Base = Name("attn");
          Ensemble *Seq = StackLayer(Net, Base + "_seq", Cur, T);
          Cur = AttentionLayer(Net, Base, Seq, D);
          TieRisk = false;
          Desc << " -> attention(t" << T << ",d" << D << ")";
        } else {
          Activation();
        }
        break;
      }
    }
  }

  // Classifier head. Works from image shapes too (FC flattens).
  Ensemble *Logits = FullyConnectedLayer(Net, Name("logits"), Cur, Classes);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Logits, Labels);
  Desc << " -> logits(" << Classes << ") -> softmaxloss";
  return Desc.str();
}
