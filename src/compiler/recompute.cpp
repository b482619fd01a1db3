//===- compiler/recompute.cpp ---------------------------------*- C++ -*-===//

#include "compiler/recompute.h"

#include "analyze/effects.h"
#include "compiler/program.h"
#include "support/casting.h"

#include <algorithm>

using namespace latte;
using namespace latte::compiler;
using namespace latte::ir;

bool compiler::isRecomputableKernel(KernelKind K) {
  // Pure gathers only: one destination write per element, value a function
  // of the source bytes and a static index table. Everything else is
  // excluded by construction — notably MaxPoolFwdRows (writes a value and
  // an argmax mask).
  return K == KernelKind::Im2ColRows || K == KernelKind::Gather2D;
}

namespace {

/// A producer unit split in two: the gather statements writing the
/// candidate root (with their enclosing loop structure and scalar
/// bindings), and everything else. The Rest half exists so legality can be
/// proven with analyze::effects instead of a hand-maintained table of
/// kernel write sets: if Rest still writes the root, some non-whitelisted
/// statement produces it and the candidate is rejected.
struct Split {
  StmtPtr Kept;
  StmtPtr Rest;
  int KeptKernels = 0;
};

bool writesRootAsGather(const KernelCallStmt *KC, const std::string &Root,
                        const Program &Prog) {
  if (!isRecomputableKernel(KC->kernel()) || KC->bufs().empty())
    return false;
  // For both whitelisted kinds the destination is buffer argument 0.
  const BufferInfo *Dst = Prog.resolveAlias(KC->bufs()[0].Buffer);
  return Dst && Dst->Name == Root;
}

Split splitStmt(const Stmt *S, const std::string &Root, const Program &Prog) {
  Split R;
  switch (S->kind()) {
  case Stmt::Kind::KernelCall: {
    const auto *KC = cast<KernelCallStmt>(S);
    if (writesRootAsGather(KC, Root, Prog)) {
      R.Kept = S->clone();
      R.KeptKernels = 1;
    } else {
      R.Rest = S->clone();
    }
    return R;
  }
  case Stmt::Kind::Decl:
  case Stmt::Kind::AssignVar:
    // Scalar bindings are pure; duplicate them into both halves so kept
    // gathers keep any loop-local variables their offsets reference.
    R.Kept = S->clone();
    R.Rest = S->clone();
    return R;
  case Stmt::Kind::Block: {
    const auto *B = cast<BlockStmt>(S);
    std::vector<StmtPtr> Kept, Rest;
    for (const StmtPtr &Child : B->stmts()) {
      Split C = splitStmt(Child.get(), Root, Prog);
      R.KeptKernels += C.KeptKernels;
      if (C.Kept)
        Kept.push_back(std::move(C.Kept));
      if (C.Rest)
        Rest.push_back(std::move(C.Rest));
    }
    if (R.KeptKernels > 0)
      R.Kept = std::make_unique<BlockStmt>(std::move(Kept), B->label());
    if (!Rest.empty())
      R.Rest = std::make_unique<BlockStmt>(std::move(Rest), B->label());
    return R;
  }
  case Stmt::Kind::For:
  case Stmt::Kind::TiledLoop: {
    const Stmt *Body = isa<ForStmt>(S) ? cast<ForStmt>(S)->body()
                                       : cast<TiledLoopStmt>(S)->body();
    Split C = splitStmt(Body, Root, Prog);
    R.KeptKernels = C.KeptKernels;
    auto Rewrap = [&S](StmtPtr NewBody) {
      StmtPtr L = S->clone();
      if (auto *F = dyn_cast<ForStmt>(L.get()))
        F->setBody(std::move(NewBody));
      else
        cast<TiledLoopStmt>(L.get())->setBody(std::move(NewBody));
      return L;
    };
    if (C.Kept && R.KeptKernels > 0)
      R.Kept = Rewrap(std::move(C.Kept));
    if (C.Rest)
      R.Rest = Rewrap(std::move(C.Rest));
    return R;
  }
  default:
    // If/Store/Barrier are never part of a recompute clone. A gather
    // hidden under an If stays in Rest, whose effects then still write the
    // root and the candidate is rejected — conservative by construction.
    R.Rest = S->clone();
    return R;
  }
}

bool anyWrite(const std::vector<analyze::Access> &Accesses) {
  for (const analyze::Access &A : Accesses)
    if (A.Write)
      return true;
  return false;
}

bool unitWrites(const analyze::UnitEffects &UE, const std::string &Key) {
  auto It = UE.Effects.Buffers.find(Key);
  return It != UE.Effects.Buffers.end() && anyWrite(It->second);
}

struct Candidate {
  std::string Root;
  int Producer = -1;
  int Consumer = -1; ///< backward unit index before any insertion
  StmtPtr Clone;
};

} // namespace

int compiler::recomputeGathers(Program &Prog) {
  auto *FwdBlock = dyn_cast<BlockStmt>(Prog.Forward.get());
  auto *BwdBlock = dyn_cast<BlockStmt>(Prog.Backward.get());
  if (!FwdBlock || !BwdBlock || BwdBlock->stmts().empty())
    return 0;

  analyze::BufferTable Bufs(Prog);
  std::vector<analyze::UnitEffects> FwdEff, BwdEff;
  for (const StmtPtr &U : FwdBlock->stmts())
    FwdEff.push_back(analyze::collectUnitEffects(U.get(), Bufs, nullptr));
  for (const StmtPtr &U : BwdBlock->stmts())
    BwdEff.push_back(analyze::collectUnitEffects(U.get(), Bufs, nullptr));

  std::vector<Candidate> Cands;
  for (const BufferInfo &B : Prog.Buffers) {
    // Candidates: Input-role alias roots with no members sharing their
    // storage (a CoversSource input aliases its source's value and never
    // shows up under its own name in the effect sets).
    if (B.Role != BufferRole::Input || !B.AliasOf.empty())
      continue;
    bool HasMember = false;
    for (const BufferInfo &M : Prog.Buffers)
      if (!M.AliasOf.empty() && Prog.resolveAlias(M.Name) == &B)
        HasMember = true;
    if (HasMember)
      continue;

    // Exactly one producing forward unit, exactly one backward consumer,
    // read-only in backward. Multi-unit shapes (the whole-batch FC GEMM
    // runs in a separate unit from its gather) and multi-consumer roots
    // stay retained.
    int Producer = -1, Consumer = -1, FwdRefs = 0, BwdRefs = 0;
    bool BwdReadOnly = true;
    for (size_t U = 0; U < FwdEff.size(); ++U)
      if (FwdEff[U].Effects.Buffers.count(B.Name)) {
        ++FwdRefs;
        Producer = static_cast<int>(U);
      }
    for (size_t U = 0; U < BwdEff.size(); ++U) {
      auto It = BwdEff[U].Effects.Buffers.find(B.Name);
      if (It == BwdEff[U].Effects.Buffers.end())
        continue;
      ++BwdRefs;
      Consumer = static_cast<int>(U);
      BwdReadOnly &= !anyWrite(It->second);
    }
    if (FwdRefs != 1 || BwdRefs != 1 || !BwdReadOnly)
      continue;
    if (!unitWrites(FwdEff[Producer], B.Name))
      continue;

    Split S = splitStmt(FwdBlock->stmts()[Producer].get(), B.Name, Prog);
    if (!S.Kept || S.KeptKernels == 0)
      continue;
    // Purity, proven by effects: the producer minus the kept gathers must
    // not write the root (otherwise a non-whitelisted statement produces
    // part of it), and the kept clone must write nothing but the root.
    if (S.Rest &&
        unitWrites(analyze::collectUnitEffects(S.Rest.get(), Bufs, nullptr),
                   B.Name))
      continue;
    analyze::UnitEffects KE =
        analyze::collectUnitEffects(S.Kept.get(), Bufs, nullptr);
    bool Legal = true;
    std::vector<std::string> Sources;
    for (const auto &[Key, Accesses] : KE.Effects.Buffers) {
      bool Writes = anyWrite(Accesses);
      if (Key.rfind("int:", 0) == 0) {
        // Index tables must be static: a dynamic int buffer (pool masks)
        // could change between the forward gather and the re-gather.
        const IntBufferInfo *T = Prog.findIntBuffer(Key.substr(4));
        Legal &= !Writes && T && T->isStatic();
        continue;
      }
      if (Key == B.Name) {
        Legal &= Writes;
        continue;
      }
      // Float sources must be Value/Data roots: the planner retains or
      // pins those, so the re-gather reads bitwise the bytes forward saw.
      const BufferInfo *Src = Prog.findBuffer(Key);
      Legal &= !Writes && Src &&
               (Src->Role == BufferRole::Value ||
                Src->Role == BufferRole::Data);
      if (Legal)
        Sources.push_back(Key);
    }
    if (!Legal)
      continue;
    // No unit between the producer and the insertion point may write a
    // source (in-place activations alias onto value roots, so this is a
    // real check, not paranoia).
    for (size_t U = Producer + 1; U < FwdEff.size() && Legal; ++U)
      for (const std::string &Src : Sources)
        Legal &= !unitWrites(FwdEff[U], Src);
    for (int U = 0; U < Consumer && Legal; ++U)
      for (const std::string &Src : Sources)
        Legal &= !unitWrites(BwdEff[U], Src);
    if (!Legal)
      continue;

    Candidate C;
    C.Root = B.Name;
    C.Producer = Producer;
    C.Consumer = Consumer;
    C.Clone = std::move(S.Kept);
    Cands.push_back(std::move(C));
  }

  // Insert clones in consumer order; each insertion shifts later indices.
  std::sort(Cands.begin(), Cands.end(),
            [](const Candidate &A, const Candidate &B) {
              if (A.Consumer != B.Consumer)
                return A.Consumer < B.Consumer;
              return A.Root < B.Root;
            });
  for (size_t I = 0; I < Cands.size(); ++I) {
    Candidate &C = Cands[I];
    int Insert = C.Consumer + static_cast<int>(I);
    BwdBlock->stmts().insert(BwdBlock->stmts().begin() + Insert,
                             std::move(C.Clone));
    TaskLabel Label;
    Label.Name = "recompute[" + C.Root + "]";
    if (C.Producer < static_cast<int>(Prog.ForwardTasks.size()))
      Label.Ensembles = Prog.ForwardTasks[C.Producer].Ensembles;
    // Labels must stay parallel to units; hand-built programs without
    // labels (the verifier skips them) get none for the clone either.
    if (Prog.BackwardTasks.size() + 1 == BwdBlock->stmts().size())
      Prog.BackwardTasks.insert(Prog.BackwardTasks.begin() + Insert,
                                std::move(Label));

    RecomputeInfo RI;
    RI.Buffer = C.Root;
    if (C.Producer < static_cast<int>(Prog.ForwardTasks.size()))
      RI.ProducerTask = Prog.ForwardTasks[C.Producer].Name;
    RI.ForwardUnit = C.Producer;
    RI.BackwardUnit = Insert;
    int ShiftedConsumer = C.Consumer;
    for (const Candidate &Other : Cands)
      if (Other.Consumer <= C.Consumer)
        ++ShiftedConsumer;
    RI.ConsumerUnit = ShiftedConsumer;
    if (const BufferInfo *Root = Prog.findBuffer(C.Root)) {
      RI.Flops = Root->Dims.numElements();
      RI.Bytes = Root->Dims.numElements() * 4;
    }
    Prog.Recomputes.push_back(std::move(RI));
  }
  return static_cast<int>(Cands.size());
}
