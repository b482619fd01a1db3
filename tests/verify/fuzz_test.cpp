//===- tests/verify/fuzz_test.cpp -----------------------------*- C++ -*-===//
///
/// Random-network fuzzing of the whole compiler: seeded generator graphs
/// (conv/pool/FC/activation/branch/custom blocks with randomized
/// geometry) are swept through the tier's optimization-lattice masks
/// (verify::sweepMasks — all 2^7 at the deep tier, JIT bit included). Every
/// failure message carries the generator seed and the flag combination —
/// that pair reproduces the exact net and compile.
///
//===----------------------------------------------------------------------===//

#include "verify/lattice.h"
#include "verify/random_net.h"

#include <gtest/gtest.h>

using namespace latte;
using namespace latte::core;

namespace {

/// One lattice sweep over the net grown from \p Seed.
void fuzzOne(uint64_t Seed, const verify::RandomNetOptions &O = {}) {
  Net Net(2);
  std::string Desc = verify::randomNet(Net, Seed, O);
  verify::LatticeOptions LO;
  // Derive data/params from the net seed so the printed seed alone
  // reproduces everything.
  LO.ParamSeed = Seed * 2654435761u + 1;
  LO.DataSeed = Seed * 2246822519u + 7;
  verify::LatticeReport R = verify::runLattice(Net, LO, Desc);
  EXPECT_TRUE(R.Passed) << R.summary();
  EXPECT_EQ(R.PointsRun, static_cast<int>(verify::sweepMasks().size()))
      << Desc;
}

} // namespace

TEST(FuzzTest, GeneratorIsDeterministic) {
  Net A(2), B(2);
  std::string DescA = verify::randomNet(A, 42);
  std::string DescB = verify::randomNet(B, 42);
  EXPECT_EQ(DescA, DescB);
  ASSERT_EQ(A.ensembles().size(), B.ensembles().size());
  for (size_t I = 0; I < A.ensembles().size(); ++I) {
    EXPECT_EQ(A.ensembles()[I]->name(), B.ensembles()[I]->name());
    EXPECT_EQ(A.ensembles()[I]->dims(), B.ensembles()[I]->dims());
  }
  // Different seeds give different architectures (overwhelmingly likely;
  // these two seeds are checked in).
  Net C(2);
  EXPECT_NE(verify::randomNet(C, 43), DescA);
}

TEST(FuzzTest, DescriptionPrintsSeed) {
  Net Net(2);
  std::string Desc = verify::randomNet(Net, 0xBEEF);
  EXPECT_NE(Desc.find("0xbeef"), std::string::npos) << Desc;
  EXPECT_NE(Desc.find("softmaxloss"), std::string::npos) << Desc;
}

TEST(FuzzTest, ClassesMatchGeneratedHead) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Net Net(2);
    verify::randomNet(Net, Seed);
    Ensemble *Loss = Net.findEnsemble("loss");
    ASSERT_NE(Loss, nullptr);
    // The loss ensemble mirrors the logits shape; its last dim is the
    // class count the label helper must match.
    const Shape &D = Loss->dims();
    EXPECT_EQ(D.dim(D.rank() - 1), verify::randomNetClasses(Seed));
  }
}

// Ten seeded nets through the swept lattice points each. Seeds are fixed so
// failures are reproducible; they were chosen sequentially, not filtered.
TEST(FuzzTest, LatticeSeed1) { fuzzOne(1); }
TEST(FuzzTest, LatticeSeed2) { fuzzOne(2); }
TEST(FuzzTest, LatticeSeed3) { fuzzOne(3); }
TEST(FuzzTest, LatticeSeed4) { fuzzOne(4); }
TEST(FuzzTest, LatticeSeed5) { fuzzOne(5); }
TEST(FuzzTest, LatticeSeed6) { fuzzOne(6); }
TEST(FuzzTest, LatticeSeed7) { fuzzOne(7); }
TEST(FuzzTest, LatticeSeed8) { fuzzOne(8); }
TEST(FuzzTest, LatticeSeed9) { fuzzOne(9); }
TEST(FuzzTest, LatticeSeed10) { fuzzOne(10); }

TEST(FuzzTest, GeneratorGrowsSequenceGenomes) {
  // The genome pool must actually contain recurrent and attention blocks;
  // the toggles prune them deterministically.
  int Recurrent = 0, Attention = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    Net Net(2);
    std::string D = verify::randomNet(Net, Seed);
    Recurrent += D.find("lstm") != std::string::npos ||
                 D.find("gru") != std::string::npos;
    Attention += D.find("attention") != std::string::npos;
  }
  EXPECT_GT(Recurrent, 0);
  EXPECT_GT(Attention, 0);

  verify::RandomNetOptions NoSeq;
  NoSeq.AllowRecurrent = false;
  NoSeq.AllowAttention = false;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    Net Net(2);
    std::string D = verify::randomNet(Net, Seed, NoSeq);
    EXPECT_EQ(D.find("lstm"), std::string::npos) << D;
    EXPECT_EQ(D.find("gru"), std::string::npos) << D;
    EXPECT_EQ(D.find("attention"), std::string::npos) << D;
  }
}

// Chained sequence genomes (checked against the generator: seed 18 grows
// lstm -> gru, seed 22 grows lstm -> attention) through the full sweep.
TEST(FuzzTest, LatticeStackedRecurrent) { fuzzOne(18); }
TEST(FuzzTest, LatticeRecurrentIntoAttention) { fuzzOne(22); }

TEST(FuzzTest, LatticeDeepNet) {
  // A deeper configuration than the default block budget allows.
  verify::RandomNetOptions O;
  O.MinBlocks = 6;
  O.MaxBlocks = 8;
  fuzzOne(77, O);
}
