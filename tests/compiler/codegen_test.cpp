//===- tests/compiler/codegen_test.cpp ------------------------*- C++ -*-===//
///
/// Code-generation tests: units that render alike share one class
/// function behind per-pass task tables, the standalone program is the JIT
/// translation unit plus a driver that plants the library's kernel
/// dispatch, carries the paper's parallel pragma, builds against
/// liblatte.a, rejects malformed input and labels, and equals the
/// in-process engine bitwise.
///
//===----------------------------------------------------------------------===//

#include "../codegen_harness.h"

#include "compiler/codegen_cpp.h"
#include "compiler/compiler.h"
#include "core/layers/layers.h"
#include "engine/executor.h"
#include "ir/builder.h"
#include "jit/jit_backend.h"
#include "models/models.h"
#include "support/ltd_format.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

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

/// The one form of a parallel loop's pragma: the team forks only when the
/// engine would (LJ->par).
const std::string kParallelPragma =
    "#pragma omp parallel for schedule(static, 1) if (LJ->par != 0)";

/// True when the parallel-for pragma sits directly on a loop whose header
/// starts with \p Loop.
bool pragmaOnLoop(const std::string &Src, const std::string &Loop) {
  const std::string Pragma = kParallelPragma + "\n";
  for (size_t P = Src.find(Pragma); P != std::string::npos;
       P = Src.find(Pragma, P + 1)) {
    size_t Next = Src.find_first_not_of(' ', P + Pragma.size());
    if (Next != std::string::npos &&
        Src.compare(Next, Loop.size(), Loop) == 0)
      return true;
  }
  return false;
}

/// The class index of each entry of \p Src's task table \p Table, in
/// order; stops at the table's null entry.
std::vector<int> tableClasses(const std::string &Src, const char *Table) {
  std::vector<int> Classes;
  const std::string Head =
      std::string("extern \"C\" const LatteJitTask ") + Table + "[] = {\n";
  size_t P = Src.find(Head);
  if (P == std::string::npos)
    return Classes;
  std::istringstream Lines(Src.substr(P + Head.size()));
  const std::string Entry = "  {latte_class_";
  for (std::string L; std::getline(Lines, L) && L.rfind(Entry, 0) == 0;)
    Classes.push_back(std::stoi(L.substr(Entry.size())));
  return Classes;
}

/// fc -> tanh -> fc -> softmax loss over 8 inputs and 3 classes.
void buildMlpNet(Net &N) {
  Ensemble *Data = DataLayer(N, "data", Shape{8});
  Ensemble *Fc = FullyConnectedLayer(N, "fc", Data, 6);
  Ensemble *Act = TanhLayer(N, "act", Fc, /*InPlace=*/false);
  Ensemble *Out = FullyConnectedLayer(N, "out", Act, 3);
  Ensemble *Labels = LabelLayer(N, "labels");
  SoftmaxLossLayer(N, "loss", Out, Labels);
}

} // namespace

TEST(CodegenTest, UnitsThatRenderAlikeShareOneClass) {
  // y = a + b and z = c + d differ only in their buffers: one class
  // function, two slot arrays. w = a + a reads one buffer in two roles,
  // so it has two slots, not three, and a class of its own.
  using namespace ir;
  Program P;
  for (const char *Name : {"a", "b", "c", "d", "y", "z", "w"}) {
    BufferInfo B;
    B.Name = Name;
    B.Dims = Shape{4};
    P.Buffers.push_back(std::move(B));
  }
  auto Sum = [](const char *Out, const char *L, const char *R) {
    return forLoop("i", 4,
                   storeAssign(Out, indexList(var("i")),
                               add(load(L, indexList(var("i"))),
                                   load(R, indexList(var("i"))))));
  };
  std::vector<StmtPtr> Units;
  Units.push_back(Sum("y", "a", "b"));
  Units.push_back(Sum("z", "c", "d"));
  Units.push_back(Sum("w", "a", "a"));
  P.BatchSize = 1;
  P.Forward = block(std::move(Units));
  P.Backward = block();
  P.Jit = true;

  JitSource JS = generateJitSource(P);
  EXPECT_EQ(JS.Classes, 2);
  ASSERT_EQ(JS.Forward.size(), 3u);
  EXPECT_EQ(JS.Forward[0].Class, 0);
  EXPECT_EQ(JS.Forward[1].Class, 0);
  EXPECT_EQ(JS.Forward[2].Class, 1);
  EXPECT_EQ(tableClasses(JS.Source, jit::kForwardTasksSymbol),
            (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(tableClasses(JS.Source, jit::kBackwardTasksSymbol),
            std::vector<int>{});
  // Slots in first-use order (the stored buffer first), as Program
  // indices, with the buffer names alongside.
  for (const char *Line :
       {"static const int32_t latte_slots_f0[] = {4, 0, 1}; // y a b\n",
        "static const int32_t latte_slots_f1[] = {5, 2, 3}; // z c d\n",
        "static const int32_t latte_slots_f2[] = {6, 0}; // w a\n"})
    EXPECT_NE(JS.Source.find(Line), std::string::npos) << Line;
  EXPECT_EQ(JS.Source.find("static void latte_class_2("), std::string::npos);

  // Run through the shared class, every output is the interpreter's.
  if (!jit::available())
    GTEST_SKIP() << "JIT backend unavailable";
  engine::Executor Jitted(P.clone());
  ASSERT_TRUE(Jitted.jitActive()) << Jitted.jitDiagnostic();
  EXPECT_EQ(Jitted.jitTaskCount(), 3);
  engine::ExecOptions NoJit;
  NoJit.NoJit = true;
  engine::Executor Interpreted(std::move(P), NoJit);
  Rng R(11);
  for (const char *Name : {"a", "b", "c", "d"}) {
    Tensor T(Shape{4});
    R.fillGaussian(T, 0.0f, 1.0f);
    Jitted.writeBuffer(Name, T);
    Interpreted.writeBuffer(Name, T);
  }
  Jitted.forward();
  Interpreted.forward();
  for (const char *Name : {"y", "z", "w"}) {
    Tensor TJ = Jitted.readBuffer(Name);
    Tensor TI = Interpreted.readBuffer(Name);
    EXPECT_EQ(std::memcmp(TJ.data(), TI.data(), sizeof(float) * 4), 0)
        << Name;
  }
}

TEST(CodegenTest, EmitsParallelPragmaAndPlantsLibraryDispatch) {
  std::unique_ptr<Net> N(makeConvNet(4));
  Program P = compile(*N, tiledOptions());
  std::string Src = generateCpp(P);
  // The §5.4.3 parallelization construct: batch x tile flattened into one
  // parallel loop, emitted once (no serial twin behind a runtime branch).
  EXPECT_TRUE(pragmaOnLoop(Src, "for (int64_t _lf"));
  EXPECT_EQ(Src.find("if (LJ->par != 0) {"), std::string::npos);
  for (size_t P = Src.find("#pragma omp parallel for"); P != std::string::npos;
       P = Src.find("#pragma omp parallel for", P + 1))
    EXPECT_EQ(Src.substr(P, Src.find('\n', P) - P), kParallelPragma);
  // The driver emits no kernel body: the tasks' trampoline is the
  // library's kernels::dispatch, the interpreter's and the JIT's.
  const std::string Driver = Src.substr(generateJitSource(P).Source.size());
  EXPECT_EQ(Driver.find("switch ("), std::string::npos);
  EXPECT_EQ(Driver.find("latte_kernel"), std::string::npos);
  EXPECT_NE(Driver.find("#include \"kernels/dispatch.h\""), std::string::npos);
  EXPECT_NE(Driver.find("latte::kernels::dispatch};"), std::string::npos);
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
  // The standalone program is the JIT translation unit byte for byte,
  // followed by the driver.
  std::unique_ptr<Net> N(makeConvNet(2));
  Program P = compile(*N, tiledOptions());
  JitSource JS = generateJitSource(P);
  std::string Src = generateCpp(P);
  ASSERT_GT(Src.size(), JS.Source.size());
  EXPECT_EQ(Src.compare(0, JS.Source.size(), JS.Source), 0);
}

TEST(CodegenTest, JitSourceEmitsEveryUnit) {
  // Each pass's task table has an entry for every unit, naming a class
  // function the source defines; kernels are trampoline calls; and the
  // standalone program is that source plus a driver.
  Net Net(2);
  buildMlpNet(Net);
  Program P = compile(Net);
  JitSource JS = generateJitSource(P);
  auto ExpectEveryUnit = [&](const ir::Stmt *Root,
                             const std::vector<JitTaskInfo> &Tasks,
                             const char *Table) {
    ASSERT_EQ(Tasks.size(), cast<ir::BlockStmt>(Root)->stmts().size());
    std::vector<int> Listed = tableClasses(JS.Source, Table);
    ASSERT_EQ(Listed.size(), Tasks.size()) << Table;
    for (size_t I = 0; I < Tasks.size(); ++I) {
      EXPECT_EQ(Listed[I], Tasks[I].Class) << Table << " entry " << I;
      ASSERT_GE(Tasks[I].Class, 0);
      ASSERT_LT(Tasks[I].Class, JS.Classes);
    }
  };
  ExpectEveryUnit(P.Forward.get(), JS.Forward, jit::kForwardTasksSymbol);
  ExpectEveryUnit(P.Backward.get(), JS.Backward, jit::kBackwardTasksSymbol);
  for (int C = 0; C < JS.Classes; ++C)
    EXPECT_NE(JS.Source.find("static void latte_class_" + std::to_string(C) +
                             "(LatteJitCtx *LJ, const int32_t *S) {"),
              std::string::npos)
        << "class " << C;
  EXPECT_EQ(JS.Source.find("latte_task_"), std::string::npos);
  EXPECT_NE(JS.Source.find(
                "LJ->kernel(" +
                std::to_string(static_cast<int64_t>(ir::KernelKind::Sgemm)) +
                ", FB, IB, IA_, FA_, EA_);"),
            std::string::npos);
  std::string Src = generateCpp(P);
  EXPECT_EQ(Src.compare(0, JS.Source.size(), JS.Source), 0);
}

TEST(CodegenTest, EveryKernelCallIsTheTrampoline) {
  // One kernel implementation: every kernel call of the benchmark
  // programs' JIT sources goes through the ctx trampoline into
  // kernels::dispatch, and the only functions a source defines are its
  // class functions.
  struct Case {
    models::ModelSpec Spec;
    int64_t Batch;
    bool Train;
  };
  const Case Cases[] = {
      {models::alexNet(0.5), 8, true},
      {models::vggFirstThreeLayers(0.25), 16, false},
      {models::lstmClassifier(16, 64, 64, 10), 32, true},
      {models::attentionClassifier(16, 64, 64, 10), 32, true},
  };
  auto Count = [](const std::string &Src, const std::string &Needle) {
    size_t N = 0;
    for (size_t P = Src.find(Needle); P != std::string::npos;
         P = Src.find(Needle, P + 1))
      ++N;
    return N;
  };
  for (const Case &C : Cases) {
    Net N(C.Batch);
    models::buildLatte(N, C.Spec, C.Train);
    std::string Src =
        generateJitSource(C.Train ? compile(N) : compileForward(N)).Source;
    SCOPED_TRACE(C.Spec.Name);
    EXPECT_EQ(Src.find("latte_jit_spec_"), std::string::npos);
    const size_t Calls = Count(Src, "LJ->kernel(");
    EXPECT_GT(Calls, 0u);
    EXPECT_EQ(Count(Src, "float *FB["), Calls);
    EXPECT_EQ(Count(Src, "static void "),
              Count(Src, "static void latte_class_"));
  }
}

TEST(CodegenTest, GeneratedProgramMatchesEngine) {
  // Compile the network, run it in process, then build the generated C++
  // against the library and check every buffer it writes is the engine's.
  std::unique_ptr<Net> N(makeConvNet(2));
  engine::Executor Ex(compile(*N, tiledOptions()));
  seedConvNet(Ex);
  NamedTensors Inputs = engineInputs(Ex);
  Ex.forward();
  Ex.backward();

  StandaloneProgram Gen(compile(*N, tiledOptions()), "latte_gen");
  expectMatchesEngine(Ex, Gen.run(Inputs));
}

TEST(CodegenTest, RejectsMalformedInput) {
  // A short read or a known buffer of the wrong size must fail the run
  // instead of computing from partly loaded parameters, and a label that
  // names no class must fail it instead of indexing past a probability
  // row.
  std::unique_ptr<Net> N(makeConvNet(2));
  engine::Executor Ex(compile(*N));
  seedConvNet(Ex);
  StandaloneProgram Gen(compile(*N), "latte_malformed");
  ASSERT_TRUE(Gen.built());
  NamedTensors Inputs = engineInputs(Ex);
  const std::string InPath = Gen.path("_in.ltd");
  ASSERT_TRUE(writeLtdFile(InPath, {Inputs.begin(), Inputs.end()}));
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

  // makeConvNet classifies into 5 classes.
  for (float Bad : {5.0f, std::nanf("")}) {
    NamedTensors Labelled = engineInputs(Ex);
    for (auto &[Name, T] : Labelled)
      if (Name == Ex.program().LabelBuffer)
        T.at(0) = Bad;
    ASSERT_TRUE(writeLtdFile(InPath, {Labelled.begin(), Labelled.end()}));
    EXPECT_NE(Gen.runOn(InPath), 0) << "label " << Bad << " accepted";
  }

  for (auto &[Name, T] : Inputs)
    if (Name == "fc1_weights")
      T = Tensor(Shape{T.numElements() - 1});
  ASSERT_TRUE(writeLtdFile(InPath, {Inputs.begin(), Inputs.end()}));
  EXPECT_NE(Gen.runOn(InPath), 0) << "wrong-size fc1_weights accepted";
}

TEST(CodegenTest, InterpretedNeuronsMatchEngine) {
  // A PReLU (no pattern matches it) goes through the synthesized SoA loop
  // nests; the C++ backend must emit those loops and equal the engine.
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
  expectMatchesEngine(Ex, Gen.run(Inputs));
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
  EXPECT_EQ(J1.Classes, J2.Classes);
  ASSERT_EQ(J1.Forward.size(), J2.Forward.size());
  for (size_t I = 0; I < J1.Forward.size(); ++I)
    EXPECT_EQ(J1.Forward[I].Class, J2.Forward[I].Class);
  ASSERT_EQ(J1.Backward.size(), J2.Backward.size());
  for (size_t I = 0; I < J1.Backward.size(); ++I)
    EXPECT_EQ(J1.Backward[I].Class, J2.Backward[I].Class);
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
