//===- tools/latte_lint.cpp - Static analysis CLI ---------------*- C++ -*-===//
///
/// \file
/// latte-lint: compiles a shipped model (src/models/) at a chosen
/// CompileOptions lattice point (or the tier's sweep of them —
/// verify::sweepMasks, all 2^7 under LATTE_DEEP=1), runs the static
/// verifier + race detector, and prints structured diagnostics, optionally
/// with per-task effect-set dumps (--dump-effects). --inference lints the
/// compileForward() program instead of the training compile — the
/// stripped buffer table and forward-only memory plan go through the same
/// verifier. Exit code 1 when any Error diagnostic was produced, 0
/// otherwise (warnings and notes do not fail the run); 2 on a usage error,
/// including a numeric argument that does not parse completely or is out
/// of range.
///
/// The --corrupt mode injects one of the hand-corruption fixtures the
/// verifier tests key on (shape-mismatch, use-before-def, dropped-barrier,
/// cross-iteration-write, outer-local, plan-overlap, plan-oob,
/// recompute-after-use)
/// into the compiled program before verification;
/// with --expect CODE it exits 0 iff the verifier found errors including
/// CODE — i.e. iff an uncorrupted lint run *would* have exited 1.
///
//===----------------------------------------------------------------------===//

#include "analyze/effects.h"
#include "analyze/verifier.h"
#include "compiler/compiler.h"
#include "core/graph.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "models/models.h"
#include "support/casting.h"
#include "support/string_utils.h"
#include "verify/lattice.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace latte;

namespace {

struct Options {
  std::string Model = "lenet";
  int Mask = -1; ///< -1 = all masks
  int64_t Batch = 2;
  double Scale = 0.25;
  bool DumpEffects = false;
  bool DumpIR = false;
  bool DumpPlan = false;
  bool Inference = false; ///< lint the compileForward() program
  std::string Corrupt; ///< fixture name, empty = none
  std::string Expect;  ///< diagnostic code required under --corrupt
};

const char *kModels[] = {"lenet", "mlp",      "alexnet", "vgga", "vgg16",
                         "vgg3",  "overfeat", "lstm",    "gru",  "attn"};

models::ModelSpec specFor(const std::string &Name, double Scale) {
  if (Name == "lenet")
    return models::lenet();
  if (Name == "mlp")
    return models::mlp(64, {32, 16}, 10);
  if (Name == "lstm")
    return models::lstmClassifier();
  if (Name == "gru")
    return models::gruClassifier();
  if (Name == "attn")
    return models::attentionClassifier();
  if (Name == "alexnet")
    return models::alexNet(Scale);
  if (Name == "vgga")
    return models::vggA(Scale);
  if (Name == "vgg16")
    return models::vgg16(Scale);
  if (Name == "vgg3")
    return models::vggFirstThreeLayers(Scale);
  if (Name == "overfeat")
    return models::overfeat(Scale);
  std::fprintf(stderr, "latte-lint: unknown model '%s' (try: ", Name.c_str());
  for (const char *M : kModels)
    std::fprintf(stderr, "%s ", M);
  std::fprintf(stderr, ")\n");
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Corruption fixtures
//===----------------------------------------------------------------------===//

/// Shrinks the first bound parameter buffer: its shape no longer agrees
/// with the gradient buffer it is bound to (or with the kernels reading
/// it).
void corruptShapeMismatch(compiler::Program &Prog) {
  for (compiler::BufferInfo &B : Prog.Buffers) {
    if (B.Role != compiler::BufferRole::Param)
      continue;
    B.Dims = Shape({1});
    return;
  }
  std::fprintf(stderr, "latte-lint: model has no Param buffer to corrupt\n");
  std::exit(2);
}

/// Appends a unit whose store indexes with a loop variable that was never
/// defined.
void corruptUseBeforeDef(compiler::Program &Prog) {
  auto *Block = dyn_cast<ir::BlockStmt>(Prog.Forward.get());
  if (!Block || Prog.Buffers.empty()) {
    std::fprintf(stderr, "latte-lint: forward program not corruptible\n");
    std::exit(2);
  }
  const compiler::BufferInfo &B = Prog.Buffers.front();
  std::vector<ir::ExprPtr> Indices;
  for (int I = 0; I < B.Dims.rank(); ++I)
    Indices.push_back(ir::var("zz"));
  Block->stmts().push_back(
      ir::storeAssign(B.Name, std::move(Indices), ir::floatConst(0.0)));
  Prog.ForwardTasks.push_back({"batch[corrupt]", {}});
}

/// Deletes the first barrier unit (or, absent barriers, the last unit) but
/// keeps its task label: the label vector is no longer parallel to the
/// program.
void corruptDroppedBarrier(compiler::Program &Prog) {
  auto DropIn = [](ir::StmtPtr &Root) {
    auto *Block = dyn_cast_if_present<ir::BlockStmt>(Root.get());
    if (!Block || Block->stmts().empty())
      return false;
    std::vector<ir::StmtPtr> &Units = Block->stmts();
    for (size_t I = 0; I < Units.size(); ++I) {
      if (isa<ir::BarrierStmt>(Units[I].get())) {
        Units.erase(Units.begin() + static_cast<long>(I));
        return true;
      }
    }
    Units.pop_back();
    return true;
  };
  if (!DropIn(Prog.Backward) && !DropIn(Prog.Forward)) {
    std::fprintf(stderr, "latte-lint: no unit to drop\n");
    std::exit(2);
  }
}

/// The first forward unit that is a parallel batch loop over a block;
/// exits with a usage error when the compile has none.
ir::StmtPtr &firstParallelLoop(compiler::Program &Prog) {
  if (auto *Block = dyn_cast_if_present<ir::BlockStmt>(Prog.Forward.get()))
    for (ir::StmtPtr &Unit : Block->stmts())
      if (auto *F = dyn_cast<ir::ForStmt>(Unit.get()))
        if (F->annotations().Parallel && isa<ir::BlockStmt>(F->body()))
          return Unit;
  std::fprintf(stderr,
               "latte-lint: no parallel batch loop to corrupt (compile with "
               "a parallelize mask bit, e.g. --mask %#x)\n",
               verify::kParallelizeMask);
  std::exit(2);
}

std::vector<ir::StmtPtr> &loopBody(ir::StmtPtr &Loop) {
  return cast<ir::BlockStmt>(cast<ir::ForStmt>(Loop.get())->body())->stmts();
}

/// Injects a store to a fixed element into the first parallel batch loop:
/// every iteration writes the same address.
void corruptCrossIterationWrite(compiler::Program &Prog) {
  ir::StmtPtr &Loop = firstParallelLoop(Prog);
  const compiler::BufferInfo &B = Prog.Buffers.front();
  std::vector<ir::ExprPtr> Indices;
  for (int I = 0; I < B.Dims.rank(); ++I)
    Indices.push_back(ir::intConst(0));
  loopBody(Loop).push_back(
      ir::storeAssign(B.Name, std::move(Indices), ir::floatConst(1.0)));
}

/// Declares a float local ahead of the first parallel batch loop and
/// accumulates into it from the loop body: every iteration assigns the one
/// local.
void corruptOuterLocal(compiler::Program &Prog) {
  ir::StmtPtr &Loop = firstParallelLoop(Prog);
  loopBody(Loop).push_back(ir::assignVar(
      "corrupt_acc", ir::AccumKind::AddAssign, ir::floatConst(1.0)));
  std::vector<ir::StmtPtr> Unit;
  Unit.push_back(ir::decl("corrupt_acc", ir::floatConst(0.0)));
  Unit.push_back(std::move(Loop));
  Loop = ir::block(std::move(Unit));
}

/// Overlapping-lifetime collision: relocates one non-pinned lifetime onto
/// the bytes of another root that is live at the same time — exactly the
/// aliasing mistake a buggy allocator would make.
void corruptPlanOverlap(compiler::Program &Prog) {
  compiler::MemoryPlan &Plan = Prog.Plan;
  for (size_t I = 0; I < Plan.Lifetimes.size(); ++I)
    for (size_t J = 0; J < Plan.Lifetimes.size(); ++J) {
      if (I == J)
        continue;
      compiler::BufferLifetime &A = Plan.Lifetimes[I];
      const compiler::BufferLifetime &B = Plan.Lifetimes[J];
      if (A.Pinned || A.Bytes == 0 || B.Bytes == 0 ||
          !A.overlapsLifetime(B) || A.overlapsBytes(B))
        continue;
      A.Offset = B.Offset; // collide with a simultaneously-live root
      Plan.Offsets[A.Name] = A.Offset;
      return;
    }
  std::fprintf(stderr, "latte-lint: no byte-disjoint simultaneously-live "
                       "lifetimes to collide\n");
  std::exit(2);
}

/// Out-of-bounds offset: pushes the largest non-pinned lifetime past the
/// end of the arena.
void corruptPlanOutOfBounds(compiler::Program &Prog) {
  compiler::MemoryPlan &Plan = Prog.Plan;
  for (compiler::BufferLifetime &L : Plan.Lifetimes) {
    if (L.Pinned || L.Bytes == 0)
      continue;
    L.Offset = Plan.ArenaBytes; // aligned, but [Offset, Offset+Bytes) escapes
    Plan.Offsets[L.Name] = L.Offset;
    return;
  }
  std::fprintf(stderr, "latte-lint: no non-pinned lifetime to displace\n");
  std::exit(2);
}

/// Moves a recompute clone AFTER its consumer (swapping the two backward
/// units along with their task labels): the consumer now reads bytes the
/// re-gather has not produced yet — the placement invariant the verifier
/// pins as plan.recompute.placement.
void corruptRecomputeAfterUse(compiler::Program &Prog) {
  auto *Block = dyn_cast_if_present<ir::BlockStmt>(Prog.Backward.get());
  if (!Block || Prog.Recomputes.empty()) {
    std::fprintf(stderr,
                 "latte-lint: no recomputed buffer to corrupt (compile a "
                 "conv model with the recompute bit set, e.g. --mask "
                 "%#x)\n",
                 verify::kRecomputeMask);
    std::exit(2);
  }
  const compiler::RecomputeInfo &RI = Prog.Recomputes.front();
  std::vector<ir::StmtPtr> &Units = Block->stmts();
  std::swap(Units[RI.BackwardUnit], Units[RI.ConsumerUnit]);
  if (Prog.BackwardTasks.size() == Units.size())
    std::swap(Prog.BackwardTasks[RI.BackwardUnit],
              Prog.BackwardTasks[RI.ConsumerUnit]);
}

void applyCorruption(compiler::Program &Prog, const std::string &Kind) {
  if (Kind == "shape-mismatch")
    return corruptShapeMismatch(Prog);
  if (Kind == "use-before-def")
    return corruptUseBeforeDef(Prog);
  if (Kind == "dropped-barrier")
    return corruptDroppedBarrier(Prog);
  if (Kind == "cross-iteration-write")
    return corruptCrossIterationWrite(Prog);
  if (Kind == "outer-local")
    return corruptOuterLocal(Prog);
  if (Kind == "plan-overlap")
    return corruptPlanOverlap(Prog);
  if (Kind == "plan-oob")
    return corruptPlanOutOfBounds(Prog);
  if (Kind == "recompute-after-use")
    return corruptRecomputeAfterUse(Prog);
  std::fprintf(stderr,
               "latte-lint: unknown corruption '%s' (shape-mismatch, "
               "use-before-def, dropped-barrier, cross-iteration-write, "
               "outer-local, plan-overlap, plan-oob, recompute-after-use)\n",
               Kind.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Lint driver
//===----------------------------------------------------------------------===//

void dumpUnitEffects(const compiler::Program &Prog) {
  analyze::BufferTable Bufs(Prog);
  auto DumpProgram = [&](const ir::Stmt *Root,
                         const std::vector<compiler::TaskLabel> &Labels,
                         const char *Which) {
    const auto *Block = dyn_cast_if_present<const ir::BlockStmt>(Root);
    if (!Block)
      return;
    std::printf("%s effects:\n", Which);
    for (size_t I = 0; I < Block->stmts().size(); ++I) {
      std::string Label =
          I < Labels.size() ? Labels[I].Name : "task#" + std::to_string(I);
      analyze::UnitEffects UE =
          analyze::collectUnitEffects(Block->stmts()[I].get(), Bufs, nullptr);
      std::printf(" unit %zu '%s'%s\n", I, Label.c_str(),
                  UE.Dims.empty() ? "" : " [parallel]");
      std::fputs(analyze::dumpEffects(UE.Effects).c_str(), stdout);
    }
  };
  DumpProgram(Prog.Forward.get(), Prog.ForwardTasks, "forward");
  DumpProgram(Prog.Backward.get(), Prog.BackwardTasks, "backward");
}

/// Lints one (model, mask) point. Returns the number of Error diagnostics.
int lintPoint(const core::Net &Net, unsigned Mask, const Options &Opt,
              bool &ExpectMet) {
  verify::LatticeOptions LO;
  compiler::CompileOptions Copts = verify::optionsForMask(Mask, LO);
  Copts.VerifyEach = false; // we verify explicitly to collect the report
  compiler::Program Prog = Opt.Inference
                               ? compiler::compileForward(Net, Copts)
                               : compiler::compile(Net, Copts);
  if (!Opt.Corrupt.empty())
    applyCorruption(Prog, Opt.Corrupt);

  analyze::DiagnosticReport R = analyze::verifyProgram(Prog);
  std::printf("== %s%s mask=0x%02x [%s] ==\n", Opt.Model.c_str(),
              Opt.Inference ? " (inference)" : "", Mask,
              verify::flagString(Copts).c_str());
  if (R.empty())
    std::printf("clean\n");
  else
    std::printf("%s\n", R.render().c_str());
  if (Opt.DumpIR) {
    std::printf("forward IR:\n%s", ir::printStmt(Prog.Forward.get()).c_str());
    std::printf("backward IR:\n%s",
                ir::printStmt(Prog.Backward.get()).c_str());
  }
  if (Opt.DumpEffects)
    dumpUnitEffects(Prog);
  if (Opt.DumpPlan)
    std::fputs(Prog.Plan.str().c_str(), stdout);
  if (!Opt.Expect.empty() && R.hasErrors() && R.hasCode(Opt.Expect))
    ExpectMet = true;
  return R.errors();
}

/// Prints "latte-lint: <Msg>" and exits with the usage-error status.
[[noreturn]] void usageError(const std::string &Msg) {
  std::fprintf(stderr, "latte-lint: %s\n", Msg.c_str());
  std::exit(2);
}

/// Parses all of \p Text as an integer (support/string_utils.h); a
/// partial parse such as "12abc" is a usage error.
int64_t intArg(const std::string &Flag, const char *Text) {
  std::optional<int64_t> V = parseInt(Text);
  if (!V)
    usageError(Flag + " expects an integer, got '" + Text + "'");
  return *V;
}

/// Parses all of \p Text as a finite number.
double numberArg(const std::string &Flag, const char *Text) {
  std::optional<double> V = parseNumber(Text);
  if (!V)
    usageError(Flag + " expects a finite number, got '" + Text + "'");
  return *V;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: latte-lint [--model NAME|all] [--mask N|--all-masks]\n"
      "                  [--batch N] [--scale F] [--inference]\n"
      "                  [--dump-effects] [--dump-ir] [--dump-plan]\n"
      "                  [--corrupt KIND --expect CODE]\n"
      "models: ");
  for (const char *M : kModels)
    std::fprintf(stderr, "%s ", M);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  bool AllMasks = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usageError(A + " needs a value");
      return Argv[++I];
    };
    if (A == "--model")
      Opt.Model = Next();
    else if (A == "--mask") {
      const char *Text = Next();
      int64_t Mask = intArg(A, Text);
      if (Mask < 0 || Mask > verify::kAllMask)
        usageError("--mask " + std::string(Text) + " is out of range: " +
                   std::to_string(verify::kNumLatticeSwitches) +
                   " lattice switches allow masks 0 to " +
                   std::to_string(verify::kAllMask));
      Opt.Mask = static_cast<int>(Mask);
    } else if (A == "--all-masks")
      AllMasks = true;
    else if (A == "--batch") {
      const char *Text = Next();
      Opt.Batch = intArg(A, Text);
      if (Opt.Batch < 1)
        usageError("--batch must be at least 1, got '" + std::string(Text) +
                   "'");
    } else if (A == "--scale") {
      const char *Text = Next();
      Opt.Scale = numberArg(A, Text);
      if (!(Opt.Scale > 0))
        usageError("--scale must be a positive number, got '" +
                   std::string(Text) + "'");
    } else if (A == "--dump-effects")
      Opt.DumpEffects = true;
    else if (A == "--dump-ir")
      Opt.DumpIR = true;
    else if (A == "--dump-plan")
      Opt.DumpPlan = true;
    else if (A == "--inference")
      Opt.Inference = true;
    else if (A == "--corrupt")
      Opt.Corrupt = Next();
    else if (A == "--expect")
      Opt.Expect = Next();
    else
      return usage();
  }
  if (Opt.Mask < 0 && !AllMasks && !Opt.Corrupt.empty())
    Opt.Mask = verify::kAllMask; // corrupt: one point

  std::vector<std::string> Models;
  if (Opt.Model == "all")
    Models.assign(std::begin(kModels), std::end(kModels));
  else
    Models.push_back(Opt.Model);

  int TotalErrors = 0;
  bool ExpectMet = false;
  for (const std::string &Model : Models) {
    Options PointOpt = Opt;
    PointOpt.Model = Model;
    models::ModelSpec Spec = specFor(Model, Opt.Scale);
    core::Net Net(Opt.Batch);
    models::buildLatte(Net, Spec, /*WithLoss=*/true);
    if (Opt.Mask >= 0) {
      TotalErrors +=
          lintPoint(Net, static_cast<unsigned>(Opt.Mask), PointOpt, ExpectMet);
    } else {
      for (unsigned Mask : verify::sweepMasks())
        TotalErrors += lintPoint(Net, Mask, PointOpt, ExpectMet);
    }
  }

  if (!Opt.Expect.empty()) {
    if (ExpectMet) {
      std::printf("expected diagnostic '%s' produced (corrupt run would "
                  "exit 1)\n",
                  Opt.Expect.c_str());
      return 0;
    }
    std::printf("expected diagnostic '%s' NOT produced\n", Opt.Expect.c_str());
    return 1;
  }
  return TotalErrors > 0 ? 1 : 0;
}
