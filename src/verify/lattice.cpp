//===- verify/lattice.cpp -------------------------------------*- C++ -*-===//

#include "verify/lattice.h"

#include "engine/executor.h"
#include "support/error.h"
#include "support/rng.h"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>

using namespace latte;
using namespace latte::verify;
using namespace latte::compiler;
using namespace latte::engine;

namespace {

/// The buffers a comparison covers: every ensemble value, every parameter
/// gradient, every ensemble gradient, and the loss vector. Input-gather and
/// scratch buffers are variant-specific (a GEMM-matched layer materializes
/// im2col windows the interpreter never allocates) and are skipped.
std::vector<std::string> comparisonBuffers(const Program &Prog,
                                           bool CheckGradients) {
  std::vector<std::string> Names;
  for (const BufferInfo &B : Prog.Buffers) {
    bool Take = B.Role == BufferRole::Value;
    if (CheckGradients)
      Take |= B.Role == BufferRole::ParamGrad || B.Role == BufferRole::Grad;
    if (Take)
      Names.push_back(B.Name);
  }
  if (!Prog.LossBuffer.empty())
    Names.push_back(Prog.LossBuffer);
  return Names;
}

ExecOptions execOptionsFor(const CompileOptions &Opts, uint64_t EngineSeed) {
  ExecOptions E;
  E.VectorKernels = Opts.VectorKernels;
  E.Parallel = Opts.Parallelize;
  E.Deterministic = true;
  // The oracle inspects every Value/Grad/ParamGrad buffer after the run;
  // interval-allocated gradients' bytes are legitimately reused under the
  // memory plan, so verification keeps the eager per-buffer layout (full
  // observability). The plan itself is proven equivalent by the dedicated
  // planned-vs-eager differential suite.
  E.NoMemPlan = true;
  E.Seed = EngineSeed;
  return E;
}

/// Runs one compiled variant on the shared inputs. Returns the executor so
/// the caller can read buffers.
std::unique_ptr<Executor> runVariant(Program Prog, const CompileOptions &Opts,
                                     const LatticeOptions &O,
                                     const Tensor &Input,
                                     const Tensor &Labels,
                                     bool CheckGradients) {
  auto Ex = std::make_unique<Executor>(std::move(Prog),
                                       execOptionsFor(Opts, O.DataSeed));
  Ex->initParams(O.ParamSeed);
  if (!Input.empty())
    Ex->setInput(Input);
  if (!Labels.empty() && !Ex->program().LabelBuffer.empty())
    Ex->setLabels(Labels);
  Ex->forward();
  if (CheckGradients)
    Ex->backward();
  return Ex;
}

/// Compares \p Names between the two executors; returns the first divergent
/// buffer, or nullopt when everything agrees.
std::optional<BufferDivergence>
firstDivergence(const Executor &Ref, const Executor &Got,
                const std::vector<std::string> &Names, float AbsTol,
                float RelTol) {
  for (const std::string &Name : Names) {
    if (!Got.program().findBuffer(Name)) {
      BufferDivergence D;
      D.Buffer = Name + " (missing in optimized program)";
      return D;
    }
    Tensor R = Ref.readBuffer(Name);
    Tensor G = Got.readBuffer(Name);
    if (R.numElements() != G.numElements()) {
      BufferDivergence D;
      D.Buffer = Name + " (element count mismatch)";
      return D;
    }
    BufferDivergence D;
    D.Buffer = Name;
    bool Diverged = false;
    for (int64_t I = 0; I < R.numElements(); ++I) {
      double Abs = std::fabs(static_cast<double>(R.at(I)) - G.at(I));
      double Scale = std::max(std::fabs(R.at(I)), std::fabs(G.at(I)));
      D.MaxAbsErr = std::max(D.MaxAbsErr, Abs);
      if (Scale > 0)
        D.MaxRelErr = std::max(D.MaxRelErr, Abs / Scale);
      if (!Diverged && Abs > AbsTol + RelTol * Scale) {
        Diverged = true;
        D.Index = I;
        D.Ref = R.at(I);
        D.Got = G.at(I);
      }
    }
    if (Diverged)
      return D;
  }
  return std::nullopt;
}

/// Draws the shared input/label tensors from the reference program.
void makeInputs(const Program &Prog, const LatticeOptions &O, Tensor &Input,
                Tensor &Labels) {
  Rng R(O.DataSeed ^ 0x1a77ce);
  if (const BufferInfo *B = Prog.findBuffer(Prog.DataBuffer)) {
    Input = Tensor(B->Dims);
    R.fillGaussian(Input, 0.0f, 1.0f);
  }
  if (const BufferInfo *B = Prog.findBuffer(Prog.LabelBuffer)) {
    Labels = Tensor(B->Dims);
    int64_t Classes = 2;
    if (const BufferInfo *P = Prog.findBuffer(Prog.ProbBuffer))
      Classes = P->Dims.dim(P->Dims.rank() - 1);
    for (int64_t I = 0; I < Labels.numElements(); ++I)
      Labels.at(I) = static_cast<float>(R.uniformInt(Classes));
  }
}

} // namespace

bool verify::deepTier() {
  const char *Env = std::getenv("LATTE_DEEP");
  return Env && Env[0] != '0';
}

std::vector<unsigned> verify::sweepMasks() {
  std::vector<unsigned> Masks;
  Masks.push_back(0); // the reference point, always first
  if (deepTier()) {
    for (unsigned M = 1; M < (1u << kNumLatticeSwitches); ++M)
      Masks.push_back(M);
    return Masks;
  }
  // Per-PR tier: the full Recompute-on sub-lattice (the shipping default
  // for every switch combination underneath it) plus the everything-but-
  // recompute point — 66 masks, about the cost of the old 2^6 sweep — and
  // three JIT probes (JIT alone, JIT over the recompute default,
  // everything on). The full JIT sub-lattice is deep-tier only; the
  // dedicated jit_diff_test sweeps all 64 base masks per PR.
  for (unsigned M = 64; M < 128; ++M)
    Masks.push_back(M);
  Masks.push_back(0x3f);
  Masks.push_back(0x80);
  Masks.push_back(0xC0);
  Masks.push_back(0xFF);
  return Masks;
}

CompileOptions verify::optionsForMask(unsigned Mask,
                                      const LatticeOptions &O) {
  assert(Mask < (1u << kNumLatticeSwitches) && "mask out of lattice range");
  CompileOptions C;
  C.PatternMatchGemm = (Mask & 1u) != 0;
  C.PatternMatchKernels = (Mask & 2u) != 0;
  C.Tiling = (Mask & 4u) != 0;
  C.Fusion = (Mask & 8u) != 0;
  C.Parallelize = (Mask & 16u) != 0;
  C.VectorKernels = (Mask & 32u) != 0;
  C.Recompute = (Mask & 64u) != 0;
  C.Jit = (Mask & 128u) != 0;
  C.TileSize = O.TileSize;
  C.MinRowsToTile = O.MinRowsToTile;
  C.VerifyEach = O.VerifyEach;
  return C;
}

std::string verify::flagString(const CompileOptions &Opts) {
  std::ostringstream Os;
  Os << "gemm=" << Opts.PatternMatchGemm
     << " kernels=" << Opts.PatternMatchKernels << " tiling=" << Opts.Tiling
     << " fusion=" << Opts.Fusion << " parallel=" << Opts.Parallelize
     << " vector=" << Opts.VectorKernels << " recompute=" << Opts.Recompute
     << " jit=" << Opts.Jit;
  return Os.str();
}

std::string LatticeReport::summary() const {
  std::ostringstream Os;
  Os << "lattice oracle: " << (Passed ? "PASSED" : "FAILED") << ", "
     << PointsRun << " points x " << BuffersCompared << " buffers";
  if (!NetDescription.empty())
    Os << "\n  net: " << NetDescription;
  Os << "\n  seeds: params=0x" << std::hex << ParamSeed << " data=0x"
     << DataSeed << std::dec;
  for (const LatticePointResult &F : Failures) {
    Os << "\n  FAIL [mask 0x" << std::hex << F.Mask << std::dec << ": "
       << flagString(F.Opts) << "] first divergent buffer '"
       << F.First.Buffer << "'";
    if (F.First.Index >= 0)
      Os << " at [" << F.First.Index << "] ref=" << F.First.Ref
         << " got=" << F.First.Got;
    Os << " maxAbsErr=" << F.First.MaxAbsErr
       << " maxRelErr=" << F.First.MaxRelErr
       << "; reproduce: compile(net, verify::optionsForMask(0x" << std::hex
       << F.Mask << std::dec << ")) with the seeds above";
  }
  return Os.str();
}

LatticeReport verify::runLattice(const core::Net &Net,
                                 const LatticeOptions &O,
                                 const std::string &NetDescription) {
  LatticeReport Report;
  Report.NetDescription = NetDescription;
  Report.ParamSeed = O.ParamSeed;
  Report.DataSeed = O.DataSeed;

  // Reference: the fully-unoptimized interpreter (mask 0).
  CompileOptions RefOpts = optionsForMask(0, O);
  Program RefProg = compile(Net, RefOpts);
  bool CheckGradients = O.CheckGradients && !RefProg.LossBuffer.empty();
  std::vector<std::string> Names =
      comparisonBuffers(RefProg, CheckGradients);
  Report.BuffersCompared = static_cast<int64_t>(Names.size());

  Tensor Input, Labels;
  makeInputs(RefProg, O, Input, Labels);
  std::unique_ptr<Executor> Ref = runVariant(
      std::move(RefProg), RefOpts, O, Input, Labels, CheckGradients);
  ++Report.PointsRun;

  for (unsigned Mask : sweepMasks()) {
    if (Mask == 0)
      continue; // already run as the reference
    CompileOptions Opts = optionsForMask(Mask, O);
    std::unique_ptr<Executor> Got = runVariant(
        compile(Net, Opts), Opts, O, Input, Labels, CheckGradients);
    ++Report.PointsRun;
    if (std::optional<BufferDivergence> D =
            firstDivergence(*Ref, *Got, Names, O.AbsTol, O.RelTol)) {
      Report.Passed = false;
      LatticePointResult P;
      P.Mask = Mask;
      P.Opts = Opts;
      P.Passed = false;
      P.First = *D;
      Report.Failures.push_back(std::move(P));
    }
  }
  return Report;
}

StageDivergence verify::localizeDivergence(const core::Net &Net,
                                           const CompileOptions &BadOpts,
                                           const LatticeOptions &O) {
  CompileOptions Staged = BadOpts;
  Staged.TileSize = O.TileSize;
  Staged.MinRowsToTile = O.MinRowsToTile;
  std::vector<PassStage> Stages = compileStaged(Net, Staged);

  bool CheckGradients =
      O.CheckGradients && !Stages.front().Prog.LossBuffer.empty();
  std::vector<std::string> Names =
      comparisonBuffers(Stages.front().Prog, CheckGradients);
  Tensor Input, Labels;
  makeInputs(Stages.front().Prog, O, Input, Labels);

  StageDivergence Result;
  std::unique_ptr<Executor> Ref =
      runVariant(std::move(Stages.front().Prog), Stages.front().Opts, O,
                 Input, Labels, CheckGradients);
  for (size_t I = 1; I < Stages.size(); ++I) {
    std::unique_ptr<Executor> Got =
        runVariant(std::move(Stages[I].Prog), Stages[I].Opts, O, Input,
                   Labels, CheckGradients);
    if (std::optional<BufferDivergence> D =
            firstDivergence(*Ref, *Got, Names, O.AbsTol, O.RelTol)) {
      Result.Found = true;
      Result.Stage = Stages[I].Name;
      Result.Divergence = *D;
      return Result;
    }
  }
  return Result;
}
