//===- tests/compiler/codegen_test.cpp ------------------------*- C++ -*-===//
///
/// Code-generation tests: the standalone program is the JIT translation
/// unit plus a driver, carries the paper's parallel / vector pragmas,
/// compiles with the host compiler, rejects malformed input, and matches
/// the in-process engine within the standalone tolerance.
///
//===----------------------------------------------------------------------===//

#include "../codegen_harness.h"

#include "compiler/codegen_cpp.h"
#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "engine/executor.h"
#include "support/ltd_format.h"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <iterator>

using namespace latte;
using namespace latte::codegen_harness;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::layers;

namespace {

CompileOptions tiledOptions() {
  CompileOptions Opts;
  Opts.TileSize = 2;
  Opts.MinRowsToTile = 2;
  return Opts;
}

/// Seeds \p Ex with parameters, a Gaussian input and fixed labels.
void seedConvNet(engine::Executor &Ex) {
  Ex.initParams(2024);
  Rng R(55);
  const Program &P = Ex.program();
  Tensor In(P.findBuffer(P.DataBuffer)->Dims);
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Tensor Labels(P.findBuffer(P.LabelBuffer)->Dims);
  for (int64_t I = 0; I < Labels.numElements(); ++I)
    Labels.at(I) = static_cast<float>((2 * I + 1) % 5);
  Ex.setLabels(Labels);
}

/// True when \p Src declares a tile variable (t0, t1, ...).
bool hasTileLoop(const std::string &Src) {
  const std::string Decl = "int64_t t";
  for (size_t P = Src.find(Decl); P != std::string::npos;
       P = Src.find(Decl, P + 1))
    if (std::isdigit(static_cast<unsigned char>(Src[P + Decl.size()])))
      return true;
  return false;
}

/// True when a parallel-for pragma sits directly on a loop whose header
/// starts with \p Loop.
bool pragmaOnLoop(const std::string &Src, const std::string &Loop) {
  const std::string Pragma = "#pragma omp parallel for schedule(static, 1)\n";
  for (size_t P = Src.find(Pragma); P != std::string::npos;
       P = Src.find(Pragma, P + 1)) {
    size_t Next = Src.find_first_not_of(' ', P + Pragma.size());
    if (Next != std::string::npos &&
        Src.compare(Next, Loop.size(), Loop) == 0)
      return true;
  }
  return false;
}

} // namespace

TEST(CodegenTest, EmitsParallelAndVectorPragmas) {
  std::unique_ptr<Net> N(makeConvNet(4));
  std::string Src = generateCpp(compile(*N, tiledOptions()));
  // The §5.4.3 parallelization construct: batch x tile flattened into one
  // parallel loop.
  EXPECT_TRUE(pragmaOnLoop(Src, "for (int64_t _lf"));
  // Vectorized kernel inner loops.
  EXPECT_NE(Src.find("#pragma omp simd"), std::string::npos);
  // The matched library kernel.
  EXPECT_NE(Src.find("k_gemm("), std::string::npos);
  // Buffer aliasing from shared-variable analysis shows up.
  EXPECT_NE(Src.find("alias of"), std::string::npos);
  // The driver entry points.
  EXPECT_NE(Src.find("void latte_forward()"), std::string::npos);
  EXPECT_NE(Src.find("void latte_backward()"), std::string::npos);
}

TEST(CodegenTest, SerialProgramHasNoParallelPragma) {
  std::unique_ptr<Net> N(makeConvNet(2));
  CompileOptions Opts;
  Opts.Parallelize = false;
  std::string Src = generateCpp(compile(*N, Opts));
  EXPECT_EQ(Src.find("#pragma omp parallel for"), std::string::npos);
}

TEST(CodegenTest, StandaloneIsTheJitSourcePlusADriver) {
  // Every unit of the conv net is jittable, so the standalone program is
  // the JIT translation unit byte for byte, followed by the driver.
  std::unique_ptr<Net> N(makeConvNet(2));
  Program P = compile(*N, tiledOptions());
  JitSource JS = generateJitSource(P);
  for (const std::vector<JitTaskInfo> *Tasks : {&JS.Forward, &JS.Backward})
    for (const JitTaskInfo &T : *Tasks)
      ASSERT_TRUE(T.Jittable);
  std::string Src = generateCpp(P);
  ASSERT_GT(Src.size(), JS.Source.size());
  EXPECT_EQ(Src.compare(0, JS.Source.size(), JS.Source), 0);
}

TEST(CodegenTest, StandaloneEmitsUnitsTheJitDeclines) {
  // Dropout draws from the engine's RNG, so the JIT leaves its unit to the
  // interpreter; the standalone has no interpreter and runs every unit.
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{8});
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Data, 6);
  Ensemble *Drop = DropoutLayer(Net, "drop", Fc, 0.5);
  Ensemble *Out = FullyConnectedLayer(Net, "out", Drop, 3);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Out, Labels);
  Program P = compile(Net);
  JitSource JS = generateJitSource(P);
  int Declined = 0;
  for (const std::vector<JitTaskInfo> *Tasks : {&JS.Forward, &JS.Backward})
    for (const JitTaskInfo &T : *Tasks)
      Declined += !T.Jittable;
  EXPECT_GT(Declined, 0);

  std::string Src = generateCpp(P);
  auto Units = [](const ir::Stmt *Root) {
    return cast<ir::BlockStmt>(Root)->stmts().size();
  };
  for (size_t I = 0; I < Units(P.Forward.get()); ++I)
    EXPECT_NE(Src.find("extern \"C\" void latte_task_f" + std::to_string(I) +
                       "(LatteJitCtx *LJ)"),
              std::string::npos)
        << "forward unit " << I;
  for (size_t I = 0; I < Units(P.Backward.get()); ++I)
    EXPECT_NE(Src.find("extern \"C\" void latte_task_b" + std::to_string(I) +
                       "(LatteJitCtx *LJ)"),
              std::string::npos)
        << "backward unit " << I;
}

TEST(CodegenTest, GeneratedProgramMatchesEngine) {
  // Compile the network, run it in process, then build the generated C++
  // with the host compiler and check outputs and gradients agree.
  std::unique_ptr<Net> N(makeConvNet(2));
  engine::Executor Ex(compile(*N, tiledOptions()));
  seedConvNet(Ex);
  NamedTensors Inputs = engineInputs(Ex);
  Ex.forward();
  Ex.backward();

  StandaloneProgram Gen(compile(*N, tiledOptions()), "latte_gen");
  NamedTensors Outputs = Gen.run(Inputs);
  for (const char *Buf :
       {"pool1_value", "fc1_value", "loss_loss", "conv1_grad_weights",
        "fc1_grad_weights", "conv1_grad_bias"})
    expectMatchesEngine(Ex, Outputs, Buf);
}

TEST(CodegenTest, RejectsMalformedInput) {
  // A short read or a known buffer of the wrong size must fail the run
  // instead of computing from partly loaded parameters.
  std::unique_ptr<Net> N(makeConvNet(2));
  engine::Executor Ex(compile(*N));
  seedConvNet(Ex);
  StandaloneProgram Gen(compile(*N), "latte_malformed");
  ASSERT_TRUE(Gen.built());
  NamedTensors Inputs = engineInputs(Ex);
  const std::string InPath = Gen.path("_in.ltd");
  ASSERT_TRUE(writeLtdFile(InPath, Inputs));
  EXPECT_EQ(Gen.runOn(InPath), 0);

  std::string Bytes;
  {
    std::ifstream In(InPath, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In), {});
  }
  ASSERT_GT(Bytes.size(), 300u);
  {
    std::ofstream Out(InPath, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), 300);
  }
  EXPECT_NE(Gen.runOn(InPath), 0) << "truncated input accepted";

  for (auto &[Name, T] : Inputs)
    if (Name == "fc1_weights")
      T = Tensor(Shape{T.numElements() - 1});
  ASSERT_TRUE(writeLtdFile(InPath, Inputs));
  EXPECT_NE(Gen.runOn(InPath), 0) << "wrong-size fc1_weights accepted";
}

TEST(CodegenTest, InterpretedNeuronsMatchEngine) {
  // A PReLU (no pattern matches it) goes through the synthesized SoA loop
  // nests; the C++ backend must emit those loops and agree with the
  // engine.
  Net Net(2);
  Ensemble *Data = DataLayer(Net, "data", Shape{5});
  Ensemble *Fc = FullyConnectedLayer(Net, "fc", Data, 6);
  Ensemble *Act = PReluLayer(Net, "prelu", Fc);
  Ensemble *Out = FullyConnectedLayer(Net, "out", Act, 3);
  Ensemble *Labels = LabelLayer(Net, "labels");
  SoftmaxLossLayer(Net, "loss", Out, Labels);
  Program P = compile(Net);
  ASSERT_FALSE(P.Report.InterpretedEnsembles.empty());

  engine::Executor Ex(compile(Net));
  Ex.initParams(99);
  Rng R(3);
  Tensor In(Shape{2, 5});
  R.fillGaussian(In, 0.0f, 1.0f);
  Ex.setInput(In);
  Tensor L(Shape{2, 1});
  L.at(0) = 2.0f;
  Ex.setLabels(L);
  NamedTensors Inputs = engineInputs(Ex);
  Ex.forward();
  Ex.backward();

  StandaloneProgram Gen(P, "latte_interp");
  NamedTensors Outputs = Gen.run(Inputs);
  for (const char *Buf : {"prelu_value", "prelu_grad_slope",
                          "fc_grad_weights", "loss_loss"})
    expectMatchesEngine(Ex, Outputs, Buf);
}

TEST(CodegenTest, EmissionIsByteStable) {
  // The JIT backend keys its shared-object cache on a content hash of the
  // generated source, so emission must be byte-identical run to run:
  // separate compilations of the same net — fresh Program objects, fresh
  // allocator layouts — have to produce the same bytes from both the
  // standalone generator and the JIT task generator. Any iteration over a
  // pointer- or hash-ordered container in either output breaks this.
  std::unique_ptr<Net> N(makeConvNet(2));
  CompileOptions Opts = tiledOptions();
  Opts.Jit = true;
  Program P1 = compile(*N, Opts);
  Program P2 = compile(*N, Opts);
  EXPECT_EQ(generateCpp(P1), generateCpp(P2));
  JitSource J1 = generateJitSource(P1);
  JitSource J2 = generateJitSource(P2);
  EXPECT_EQ(J1.Source, J2.Source);
  ASSERT_EQ(J1.Forward.size(), J2.Forward.size());
  for (size_t I = 0; I < J1.Forward.size(); ++I) {
    EXPECT_EQ(J1.Forward[I].Symbol, J2.Forward[I].Symbol);
    EXPECT_EQ(J1.Forward[I].Jittable, J2.Forward[I].Jittable);
  }
}

TEST(CodegenTest, TiledLoopsAppearInSource) {
  // Tile loops are emitted exactly when the compiler tiled something.
  std::unique_ptr<Net> N(makeConvNet(2));
  Program Tiled = compile(*N, tiledOptions());
  ASSERT_GT(Tiled.Report.NumTiledLoops, 0);
  EXPECT_TRUE(hasTileLoop(generateCpp(Tiled)));
  CompileOptions NoTiling;
  NoTiling.Tiling = false;
  Program Untiled = compile(*N, NoTiling);
  ASSERT_EQ(Untiled.Report.NumTiledLoops, 0);
  EXPECT_FALSE(hasTileLoop(generateCpp(Untiled)));
}
