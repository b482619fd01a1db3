//===- tests/core/graph_test.cpp ------------------------------*- C++ -*-===//
///
/// Tests of the language core: Net/Ensemble/Connection graph structure,
/// topological ordering, neuron type definitions, and the surface DSL.
///
//===----------------------------------------------------------------------===//

#include "core/layers/layers.h"
#include "ir/printer.h"
#include "ir/visitor.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::core;
using namespace latte::layers;

TEST(NetTest, EnsembleRegistration) {
  Net Net(4);
  EXPECT_EQ(Net.batchSize(), 4);
  Ensemble *Data = DataLayer(Net, "data", Shape{3});
  EXPECT_EQ(Net.findEnsemble("data"), Data);
  EXPECT_EQ(Net.findEnsemble("missing"), nullptr);
  EXPECT_EQ(Data->numNeurons(), 3);
  EXPECT_EQ(Data->kind(), EnsembleKind::Data);
}

TEST(NetDeathTest, DuplicateEnsembleNameIsFatal) {
  Net Net(1);
  DataLayer(Net, "data", Shape{3});
  EXPECT_DEATH(DataLayer(Net, "data", Shape{3}), "already exists");
}

TEST(NetTest, TopologicalOrderRespectsDependencies) {
  Net Net(1);
  Ensemble *Data = DataLayer(Net, "data", Shape{4});
  Ensemble *Fc1 = FullyConnectedLayer(Net, "fc1", Data, 4);
  Ensemble *Fc2 = FullyConnectedLayer(Net, "fc2", Fc1, 4);
  std::vector<Ensemble *> Order = Net.topologicalOrder();
  ASSERT_EQ(Order.size(), 3u);
  auto Pos = [&](Ensemble *E) {
    for (size_t I = 0; I < Order.size(); ++I)
      if (Order[I] == E)
        return I;
    return Order.size();
  };
  EXPECT_LT(Pos(Data), Pos(Fc1));
  EXPECT_LT(Pos(Fc1), Pos(Fc2));
}

TEST(NetDeathTest, NonRecurrentCycleIsFatal) {
  Net Net(1);
  Ensemble *A = DataLayer(Net, "a", Shape{2});
  Ensemble *B = FullyConnectedLayer(Net, "b", A, 2);
  // Feed b back into a forward connection of b: a cycle.
  Net.addConnections(B, B, oneToOneMapping());
  EXPECT_DEATH(Net.topologicalOrder(), "cycle");
}

TEST(NetTest, RecurrentEdgesDoNotOrder) {
  Net Net(1);
  Ensemble *A = DataLayer(Net, "a", Shape{2});
  Ensemble *B = FullyConnectedLayer(Net, "b", A, 2);
  Net.addConnections(B, B, oneToOneMapping(), /*Recurrent=*/true);
  EXPECT_EQ(Net.topologicalOrder().size(), 2u); // no fatal error
}

TEST(NeuronTypeTest, WeightedNeuronAccumulates) {
  NeuronType T = makeWeightedNeuronType();
  NeuronContext Ctx;
  Ctx.InputLengths = {5};
  EXPECT_TRUE(T.forwardAccumulates(Ctx));
  EXPECT_TRUE(T.hasBackward());
  EXPECT_NE(T.findField("weights"), nullptr);
  EXPECT_NE(T.findField("bias"), nullptr);
  EXPECT_EQ(T.findField("nope"), nullptr);
  EXPECT_EQ(T.findField("bias")->LrMult, 2.0f);
}

TEST(NeuronTypeTest, ReluDoesNotAccumulate) {
  NeuronType T = makeReluNeuronType();
  NeuronContext Ctx;
  Ctx.InputLengths = {1};
  EXPECT_FALSE(T.forwardAccumulates(Ctx));
}

TEST(NeuronTypeTest, ForwardBodyShape) {
  NeuronType T = makeWeightedNeuronType();
  NeuronContext Ctx;
  Ctx.InputLengths = {3};
  ir::StmtPtr Fwd = T.makeForward(Ctx);
  std::string Text = ir::printStmt(Fwd.get());
  // Figure 3 structure: MAC loop plus bias add on the surface buffers.
  EXPECT_NE(Text.find("for i in 0:+3"), std::string::npos);
  EXPECT_NE(Text.find("@value[] += (@field:weights[i] * @input0[i])"),
            std::string::npos);
  EXPECT_NE(Text.find("@value[] += @field:bias[0]"), std::string::npos);
}

TEST(NeuronTypeTest, CustomTypesAreAlphaEquivalentToCanonical) {
  // A user writing the same computation with different variable names is
  // still recognized by the pattern matcher's equivalence test.
  using namespace core::dsl;
  using namespace ir;
  NeuronBodyFn Fwd = [](const NeuronContext &Ctx) {
    std::vector<StmtPtr> Stmts;
    Stmts.push_back(forLoop(
        "k", Ctx.inputLength(0),
        accumValue(mul(field("weights", indexList(var("k"))),
                       input(0, var("k"))))));
    Stmts.push_back(accumValue(field("bias", indexList(intConst(0)))));
    return block(std::move(Stmts));
  };
  NeuronType Canon = makeWeightedNeuronType();
  NeuronContext Ctx;
  Ctx.InputLengths = {7};
  StmtPtr A = Fwd(Ctx);
  StmtPtr B = Canon.makeForward(Ctx);
  EXPECT_TRUE(ir::stmtEquivalent(A.get(), B.get()));
}

TEST(NeuronTypeTest, DifferentComputationIsNotEquivalent) {
  NeuronType Max = makeMaxNeuronType();
  NeuronType Avg = makeAvgNeuronType();
  NeuronContext Ctx;
  Ctx.InputLengths = {4};
  ir::StmtPtr A = Max.makeForward(Ctx);
  ir::StmtPtr B = Avg.makeForward(Ctx);
  EXPECT_FALSE(ir::stmtEquivalent(A.get(), B.get()));
}

TEST(DslTest, BufferNameHelpers) {
  using namespace core::dsl;
  EXPECT_EQ(valueBuf(), "@value");
  EXPECT_EQ(inputBuf(2), "@input2");
  EXPECT_EQ(gradInputBuf(0), "@gradinput0");
  EXPECT_EQ(fieldBuf("slope"), "@field:slope");

  std::string Field;
  EXPECT_TRUE(isFieldBuf("@field:weights", Field));
  EXPECT_EQ(Field, "weights");
  EXPECT_FALSE(isFieldBuf("@value", Field));

  int K = -1;
  EXPECT_TRUE(isInputBuf("@input3", K));
  EXPECT_EQ(K, 3);
  EXPECT_FALSE(isInputBuf("@gradinput3", K));
  EXPECT_TRUE(isGradInputBuf("@gradinput12", K));
  EXPECT_EQ(K, 12);
}

TEST(EnsembleTest, BufferNamingScheme) {
  Net Net(1);
  Ensemble *E = DataLayer(Net, "conv1", Shape{2, 3, 3});
  EXPECT_EQ(E->valueBuffer(), "conv1_value");
  EXPECT_EQ(E->gradBuffer(), "conv1_grad");
  EXPECT_EQ(E->inputBuffer(1), "conv1_inputs1");
  EXPECT_EQ(E->gradInputBuffer(0), "conv1_grad_inputs0");
  EXPECT_EQ(E->fieldBuffer("weights"), "conv1_weights");
}

TEST(MappingTest, FullyConnectedCoversSource) {
  MappingFn M = fullyConnectedMapping(Shape{4, 5});
  std::vector<Range> Box = M({2});
  ASSERT_EQ(Box.size(), 2u);
  EXPECT_EQ(Box[0], (Range{0, 4}));
  EXPECT_EQ(Box[1], (Range{0, 5}));
}

TEST(MappingTest, ConvWindowFigure5Semantics) {
  // Figure 5: in_x = (x-1)*stride - pad in 1-based Julia; our 0-based
  // equivalent is x*stride - pad.
  MappingFn M = convWindowMapping(/*Channels=*/3, /*Kernel=*/3,
                                  /*Stride=*/2, /*Pad=*/1);
  std::vector<Range> Box = M({5, 0, 4});
  EXPECT_EQ(Box[0], (Range{0, 3}));      // all input channels
  EXPECT_EQ(Box[1], (Range{-1, 2}));     // y window at y=0 reaches padding
  EXPECT_EQ(Box[2], (Range{7, 10}));     // x window at x=4: 4*2-1 = 7
}

TEST(MappingTest, PoolWindowTracksChannel) {
  MappingFn M = poolWindowMapping(2, 2, 0);
  std::vector<Range> Box = M({3, 1, 2});
  EXPECT_EQ(Box[0], (Range{3, 4}));
  EXPECT_EQ(Box[1], (Range{2, 4}));
  EXPECT_EQ(Box[2], (Range{4, 6}));
}

TEST(LayerDeathTest, WindowBelowOneTapOrStrideIsFatal) {
  // The output extents divide by the stride, so a window layer rejects a
  // kernel or stride below 1 before computing them.
  Net Net(1);
  Ensemble *Data = DataLayer(Net, "data", Shape{3, 8, 8});
  EXPECT_DEATH(ConvolutionLayer(Net, "conv", Data, 4, 3, 0, 1),
               "convolution 'conv' has kernel 3 and stride 0");
  EXPECT_DEATH(ConvolutionLayer(Net, "conv", Data, 4, 0, 1, 1),
               "convolution 'conv' has kernel 0 and stride 1");
  EXPECT_DEATH(MaxPoolingLayer(Net, "pool", Data, 2, 0),
               "pooling 'pool' has kernel 2 and stride 0");
  EXPECT_DEATH(AvgPoolingLayer(Net, "pool", Data, 0, 2),
               "pooling 'pool' has kernel 0 and stride 2");
}
