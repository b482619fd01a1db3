//===- compiler/compiler.cpp ----------------------------------*- C++ -*-===//

#include "compiler/compiler.h"

#include "analyze/effects.h"
#include "analyze/verifier.h"
#include "compiler/gradpart.h"
#include "compiler/memplan.h"
#include "compiler/passes.h"
#include "compiler/recompute.h"
#include "compiler/synthesis.h"
#include "ir/printer.h"
#include "support/casting.h"
#include "support/error.h"
#include "support/profile.h"
#include "support/timer.h"

#include <algorithm>
#include <cstdlib>
#include <set>

using namespace latte;
using namespace latte::compiler;

namespace {

/// LATTE_VERIFY_EACH=1/0 overrides the option (so CI can force post-pass
/// verification in release builds without touching call sites).
bool verifyEachEnabled(const CompileOptions &Opts) {
  if (const char *Env = std::getenv("LATTE_VERIFY_EACH"))
    return Env[0] != '0';
  return Opts.VerifyEach;
}

/// Strips an assembled program down to its inference form: the backward
/// program and everything only it referenced go away. Runs after assembly
/// (the forward IR is final and identical to the training compile) and
/// before planMemory (so the plan covers forward-only live ranges).
void stripToInference(Program &Prog) {
  Prog.Backward = nullptr;
  Prog.BackwardTasks.clear();
  // Solver bindings name ParamGrad buffers that are about to be dropped;
  // inference programs have nothing to train.
  Prog.Params.clear();

  // Collect every float root and int table the forward program references.
  analyze::BufferTable Bufs(Prog);
  std::set<std::string> FwdRoots, FwdInts;
  auto CollectUnit = [&](const ir::Stmt *Unit) {
    analyze::UnitEffects UE =
        analyze::collectUnitEffects(Unit, Bufs, /*Diags=*/nullptr);
    for (const auto &[Key, Accesses] : UE.Effects.Buffers) {
      if (Key.rfind("int:", 0) == 0)
        FwdInts.insert(Key.substr(4));
      else
        FwdRoots.insert(Key);
    }
  };
  if (const auto *B = dyn_cast_if_present<ir::BlockStmt>(Prog.Forward.get()))
    for (const ir::StmtPtr &S : B->stmts())
      CollectUnit(S.get());
  else if (Prog.Forward)
    CollectUnit(Prog.Forward.get());

  // A buffer survives when its storage root is referenced in forward, is a
  // parameter (frozen weights), or is part of the program's external
  // interface. Gradients, gathered-input gradients, and solver state all
  // fail the test and drop out of the buffer table (and therefore out of
  // the memory plan's arena).
  std::set<std::string> Keep;
  for (const std::string *Name :
       {&Prog.DataBuffer, &Prog.LabelBuffer, &Prog.LossBuffer,
        &Prog.ProbBuffer})
    if (!Name->empty())
      if (const BufferInfo *Root = Prog.resolveAlias(*Name))
        Keep.insert(Root->Name);
  for (const BufferInfo &B : Prog.Buffers) {
    const BufferInfo *Root = Prog.resolveAlias(B.Name);
    if (!Root)
      continue; // dangling alias: leave it for the verifier to report
    if (Root->Role == BufferRole::Param || FwdRoots.count(Root->Name))
      Keep.insert(Root->Name);
  }
  std::erase_if(Prog.Buffers, [&](const BufferInfo &B) {
    const BufferInfo *Root = Prog.resolveAlias(B.Name);
    return Root && !Keep.count(Root->Name);
  });
  // Backward zero scheduling is meaningless without a backward pass.
  for (BufferInfo &B : Prog.Buffers)
    B.ZeroOnBackward = false;
  std::erase_if(Prog.IntBuffers, [&](const IntBufferInfo &B) {
    return !FwdInts.count(B.Name);
  });
  Prog.Inference = true;
}

} // namespace

Program compiler::compile(const core::Net &Net, const CompileOptions &Opts) {
  prof::ScopedPhase Phase("compile");
  Program Prog;
  SynthesisResult Tasks;
  {
    prof::ScopedTimer T("synthesize");
    Tasks = synthesize(Net, Opts, Prog);
  }
  {
    prof::ScopedTimer T("assemble");
    assemblePrograms(std::move(Tasks), Opts, Prog);
  }
  prof::count(prof::Counter::FusionHits, Prog.Report.FusionGroups.size());
  if (Opts.Inference) {
    // Forward assembly above is byte-identical to the training compile
    // (backward tasks never influence it); recompute is skipped because it
    // only rewrites the backward program the strip is about to drop.
    prof::ScopedTimer T("inference-strip");
    stripToInference(Prog);
  } else if (Opts.Recompute) {
    prof::ScopedTimer T("recompute");
    recomputeGathers(Prog);
  }
  if (Opts.Parallelize && !Opts.Inference) {
    // After recompute and before planMemory; the unit count is unchanged.
    prof::ScopedTimer T("grad-partition");
    partitionParamGrads(Prog);
  }
  {
    prof::ScopedTimer T("memplan");
    Prog.Plan = planMemory(Prog);
  }
  // Not a transforming pass — just tells the engine to build the JIT
  // dispatch table for this program.
  Prog.Jit = Opts.Jit;
  if (verifyEachEnabled(Opts)) {
    prof::ScopedTimer T("verify-each");
    analyze::DiagnosticReport R = analyze::verifyProgram(Prog);
    if (R.hasErrors())
      reportFatalError("VerifyEach: compiled program failed verification:\n" +
                       R.render());
  }
  return Prog;
}

Program compiler::compileForward(const core::Net &Net, CompileOptions Opts) {
  Opts.Inference = true;
  return compile(Net, Opts);
}

std::vector<PassStage> compiler::compileStaged(const core::Net &Net,
                                               const CompileOptions &Opts) {
  // Each stage flips one switch on top of the previous stage's options.
  CompileOptions Cur = Opts;
  Cur.PatternMatchGemm = false;
  Cur.PatternMatchKernels = false;
  Cur.Tiling = false;
  Cur.Fusion = false;
  Cur.Parallelize = false;
  Cur.VectorKernels = false;
  Cur.Recompute = false;

  struct Switch {
    const char *Name;
    bool CompileOptions::*Member;
  };
  static constexpr Switch Pipeline[] = {
      {"+vector-kernels", &CompileOptions::VectorKernels},
      {"+gemm", &CompileOptions::PatternMatchGemm},
      {"+kernels", &CompileOptions::PatternMatchKernels},
      {"+tiling", &CompileOptions::Tiling},
      {"+fusion", &CompileOptions::Fusion},
      {"+parallelize", &CompileOptions::Parallelize},
      {"+recompute", &CompileOptions::Recompute},
  };

  std::vector<PassStage> Stages;
  auto AddStage = [&](const char *Name) {
    prof::ScopedPhase Phase("compile");
    prof::ScopedTimer Span(std::string("stage:") + Name);
    PassStage S;
    S.Name = Name;
    S.Opts = Cur;
    Timer Wall;
    S.Prog = compile(Net, Cur);
    S.CompileSec = Wall.seconds();
    S.ForwardIR = ir::printStmt(S.Prog.Forward.get());
    S.BackwardIR = ir::printStmt(S.Prog.Backward.get());
    Stages.push_back(std::move(S));
  };
  AddStage("baseline");
  for (const Switch &Sw : Pipeline) {
    if (!(Opts.*(Sw.Member)))
      continue;
    Cur.*(Sw.Member) = true;
    AddStage(Sw.Name);
  }
  return Stages;
}
