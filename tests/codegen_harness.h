//===- tests/codegen_harness.h - Build and run emitted programs -*- C++ -*-===//
///
/// \file
/// Shared by the tests of the C++ backend: a small fused conv net, and a
/// harness that writes compiler::generateCpp's standalone program to the
/// test's temp directory, builds it with `g++ -O2 -fopenmp`, runs it on
/// .ltd inputs taken from the engine, and reads its outputs back.
///
/// The standalone's loop nests come from the same printer as the JIT's,
/// but its GEMM, softmax and other reassociation-sensitive kernel bodies
/// are its own, so it is held to the engine within 1e-4 absolute / 1e-3
/// relative, not bitwise.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_TESTS_CODEGEN_HARNESS_H
#define LATTE_TESTS_CODEGEN_HARNESS_H

#include "compiler/codegen_cpp.h"
#include "core/layers/layers.h"
#include "engine/executor.h"
#include "support/ltd_format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace latte {
namespace codegen_harness {

using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// conv 3x3 (pad 1) -> ReLU -> 2x2 max pool -> fc -> softmax loss over
/// {2, 8, 8} inputs. The default pipeline fuses conv + ReLU + pool into
/// one batch loop.
inline std::unique_ptr<core::Net> makeConvNet(int64_t Batch) {
  using namespace layers;
  auto Net = std::make_unique<core::Net>(Batch);
  core::Ensemble *Data = DataLayer(*Net, "data", Shape{2, 8, 8});
  core::Ensemble *Conv = ConvolutionLayer(*Net, "conv1", Data, 4, 3, 1, 1);
  core::Ensemble *Relu = ReluLayer(*Net, "relu1", Conv);
  core::Ensemble *Pool = MaxPoolingLayer(*Net, "pool1", Relu, 2, 2);
  core::Ensemble *Fc = FullyConnectedLayer(*Net, "fc1", Pool, 5);
  core::Ensemble *Labels = LabelLayer(*Net, "labels");
  SoftmaxLossLayer(*Net, "loss", Fc, Labels);
  return Net;
}

/// What a standalone program needs to replay \p Ex's passes: the data and
/// label buffers and every parameter. Read it before running \p Ex.
inline NamedTensors engineInputs(const engine::Executor &Ex) {
  const compiler::Program &P = Ex.program();
  NamedTensors In;
  In.emplace_back(P.DataBuffer, Ex.readBuffer(P.DataBuffer));
  In.emplace_back(P.LabelBuffer, Ex.readBuffer(P.LabelBuffer));
  for (const compiler::BufferInfo &B : P.Buffers)
    if (B.Role == compiler::BufferRole::Param)
      In.emplace_back(B.Name, Ex.readBuffer(B.Name));
  return In;
}

/// \p Name's tensor in \p Outputs, or nullptr.
inline const Tensor *findOutput(const NamedTensors &Outputs,
                                const std::string &Name) {
  for (const auto &[N, T] : Outputs)
    if (N == Name)
      return &T;
  return nullptr;
}

/// Expects the standalone's \p Name to match the engine's within the
/// standalone tolerance.
inline void expectMatchesEngine(const engine::Executor &Ex,
                                const NamedTensors &Outputs,
                                const std::string &Name) {
  const Tensor *Gen = findOutput(Outputs, Name);
  ASSERT_NE(Gen, nullptr) << Name << " missing from the program's output";
  EXPECT_EQ(Ex.readBuffer(Name).firstMismatch(*Gen, 1e-4f, 1e-3f), -1)
      << "mismatch in " << Name;
}

/// One emitted program, built under the test's temp directory as
/// `<Tag>.cpp` / `<Tag>_bin`. Its files go away with the object.
class StandaloneProgram {
public:
  StandaloneProgram(const compiler::Program &Prog, const std::string &Tag)
      : Base(::testing::TempDir() + "/" + Tag) {
    if (!compiler::writeGeneratedProgram(Prog, path(".cpp")))
      return;
    std::string Cmd = "g++ -O2 -fopenmp -o " + path("_bin") + " " +
                      path(".cpp") + " 2>" + path("_err.txt");
    Built = std::system(Cmd.c_str()) == 0;
  }
  StandaloneProgram(const StandaloneProgram &) = delete;
  StandaloneProgram &operator=(const StandaloneProgram &) = delete;
  ~StandaloneProgram() {
    for (const char *Suffix : {".cpp", "_bin", "_in.ltd", "_out.ltd"})
      std::remove(path(Suffix).c_str());
    if (Built)
      std::remove(path("_err.txt").c_str());
  }

  bool built() const { return Built; }
  std::string path(const std::string &Suffix) const { return Base + Suffix; }

  /// Runs the program on the .ltd file \p InPath; returns the exit status.
  int runOn(const std::string &InPath,
            const std::string &Mode = "fwdbwd") const {
    return std::system((path("_bin") + " " + InPath + " " +
                        path("_out.ltd") + " " + Mode)
                           .c_str());
  }

  /// Runs the program on \p Inputs and returns every buffer it wrote back
  /// (empty, with a test failure recorded, if any step fails).
  NamedTensors run(const NamedTensors &Inputs,
                   const std::string &Mode = "fwdbwd") const {
    EXPECT_TRUE(Built) << "generated source failed to compile; see "
                       << path("_err.txt");
    if (!Built || !writeLtdFile(path("_in.ltd"), Inputs))
      return {};
    int Status = runOn(path("_in.ltd"), Mode);
    EXPECT_EQ(Status, 0) << "generated program failed";
    if (Status != 0)
      return {};
    return readLtdFile(path("_out.ltd"));
  }

private:
  std::string Base;
  bool Built = false;
};

} // namespace codegen_harness
} // namespace latte

#endif // LATTE_TESTS_CODEGEN_HARNESS_H
