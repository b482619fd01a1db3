//===- analyze/verifier.cpp -----------------------------------*- C++ -*-===//

#include "analyze/verifier.h"

#include "analyze/effects.h"
#include "analyze/races.h"
#include "compiler/recompute.h"
#include "ir/expr.h"
#include "ir/printer.h"
#include "ir/visitor.h"
#include "support/casting.h"

#include <functional>
#include <set>
#include <sstream>

using namespace latte;
using namespace latte::analyze;
using namespace latte::compiler;
using namespace latte::ir;

namespace {

/// First few lines of the printed statement, for diagnostic snippets.
std::string snippetOf(const Stmt *S) {
  if (!S)
    return "";
  std::string Text = printStmt(S);
  while (!Text.empty() && Text.back() == '\n')
    Text.pop_back();
  size_t Pos = 0;
  for (int Line = 0; Line < 4; ++Line) {
    Pos = Text.find('\n', Pos);
    if (Pos == std::string::npos)
      return Text;
    ++Pos;
  }
  return Text.substr(0, Pos) + "...";
}

//===----------------------------------------------------------------------===//
// Buffer / binding / label checks
//===----------------------------------------------------------------------===//

void verifyBuffers(const Program &Prog, DiagnosticReport &R) {
  std::set<std::string> FloatNames, IntNames;
  for (const BufferInfo &B : Prog.Buffers) {
    if (!FloatNames.insert(B.Name).second)
      R.error("buffer.duplicate", "duplicate buffer name").Buffer = B.Name;
    if (B.Dims.rank() < 1 || B.Dims.numElements() < 1)
      R.error("buffer.shape", "buffer has an empty shape").Buffer = B.Name;
  }
  for (const IntBufferInfo &B : Prog.IntBuffers) {
    if (!IntNames.insert(B.Name).second)
      R.error("buffer.duplicate", "duplicate int buffer name").Buffer =
          B.Name;
    if (!B.isStatic() && B.Count < 1)
      R.error("buffer.shape", "dynamic int buffer has no extent").Buffer =
          B.Name;
  }
  // Alias chains must resolve acyclically to a same-sized owning buffer.
  for (const BufferInfo &B : Prog.Buffers) {
    if (B.AliasOf.empty())
      continue;
    std::set<std::string> Visited{B.Name};
    const BufferInfo *Cur = &B;
    while (!Cur->AliasOf.empty()) {
      const BufferInfo *Next = Prog.findBuffer(Cur->AliasOf);
      if (!Next) {
        R.error("buffer.alias",
                "alias target '" + Cur->AliasOf + "' does not exist")
            .Buffer = B.Name;
        Cur = nullptr;
        break;
      }
      if (!Visited.insert(Next->Name).second) {
        R.error("buffer.alias", "alias chain forms a cycle").Buffer = B.Name;
        Cur = nullptr;
        break;
      }
      Cur = Next;
    }
    if (Cur && Cur->Dims.numElements() != B.Dims.numElements())
      R.error("buffer.alias",
              "aliases '" + Cur->Name + "' of different element count (" +
                  std::to_string(B.Dims.numElements()) + " vs " +
                  std::to_string(Cur->Dims.numElements()) + ")")
          .Buffer = B.Name;
  }
}

void verifyParamBindings(const Program &Prog, DiagnosticReport &R) {
  for (const ParamBinding &P : Prog.Params) {
    const BufferInfo *Param = Prog.findBuffer(P.Param);
    const BufferInfo *Grad = Prog.findBuffer(P.Grad);
    if (!Param || Param->Role != BufferRole::Param) {
      R.error("program.param-bindings",
              "binding references missing or non-Param buffer")
          .Buffer = P.Param;
      continue;
    }
    if (!Grad || Grad->Role != BufferRole::ParamGrad) {
      R.error("program.param-bindings",
              "binding references missing or non-ParamGrad buffer")
          .Buffer = P.Grad;
      continue;
    }
    if (Param->Dims.numElements() != Grad->Dims.numElements())
      R.error("program.param-bindings",
              "parameter and gradient shapes disagree ('" + P.Param +
                  "' vs '" + P.Grad + "')")
          .Buffer = P.Param;
  }
}

void verifyFusionGroups(const Program &Prog, DiagnosticReport &R) {
  for (const std::vector<std::string> &Group : Prog.Report.FusionGroups) {
    bool Covered = false;
    for (const TaskLabel &L : Prog.ForwardTasks) {
      std::set<std::string> Have(L.Ensembles.begin(), L.Ensembles.end());
      bool All = true;
      for (const std::string &E : Group)
        All &= Have.count(E) != 0;
      if (All && !Group.empty()) {
        Covered = true;
        break;
      }
    }
    if (!Covered) {
      std::string Names;
      for (const std::string &E : Group)
        Names += (Names.empty() ? "" : "+") + E;
      R.warning("program.fusion-groups",
                "reported fusion group '" + Names +
                    "' matches no forward task");
    }
  }
}

//===----------------------------------------------------------------------===//
// Per-unit structural walk
//===----------------------------------------------------------------------===//

class UnitVerifier {
public:
  UnitVerifier(const BufferTable &Bufs, const std::string &Task,
               DiagnosticReport &R)
      : Bufs(Bufs), Task(Task), R(R) {}

  void run(const Stmt *Unit) { walkStmt(Unit, /*TopLevel=*/true); }

private:
  Diagnostic &error(const std::string &Code, const std::string &Msg,
                    const Stmt *S) {
    Diagnostic &D = R.error(Code, Msg);
    D.Task = Task;
    D.Snippet = snippetOf(S);
    return D;
  }

  /// Index / loop-bound / kernel-expr position: must be built from integer
  /// constants, bound integer loop variables, and arithmetic.
  void checkIntExpr(const Expr *E, const Stmt *Ctx) {
    if (!E) {
      error("ir.index-type", "missing integer expression", Ctx);
      return;
    }
    switch (E->kind()) {
    case Expr::Kind::IntConst:
      return;
    case Expr::Kind::Var: {
      const std::string &Name = cast<VarExpr>(E)->name();
      if (IntVars.count(Name))
        return;
      error("ir.var-use",
            FloatVars.count(Name)
                ? "float local '" + Name + "' used in an integer position"
                : "use of undefined loop variable '" + Name + "'",
            Ctx);
      return;
    }
    case Expr::Kind::Binary:
      checkIntExpr(cast<BinaryExpr>(E)->lhs(), Ctx);
      checkIntExpr(cast<BinaryExpr>(E)->rhs(), Ctx);
      return;
    default:
      error("ir.index-type",
            "expression is not integer-evaluable: " + printExpr(E), Ctx);
      return;
    }
  }

  /// Float value position: variables must be bound, loads well-formed.
  void checkValueExpr(const Expr *E, const Stmt *Ctx) {
    walkExprs(E, [&](const Expr *Node) {
      if (const auto *V = dyn_cast<VarExpr>(Node)) {
        if (!IntVars.count(V->name()) && !FloatVars.count(V->name()))
          error("ir.var-use", "use of undefined variable '" + V->name() + "'",
                Ctx);
        return;
      }
      const auto *L = dyn_cast<LoadExpr>(Node);
      if (!L)
        return;
      const BufferTable::FloatInfo *FI = Bufs.floatInfo(L->buffer());
      if (!FI) {
        error("ir.unknown-buffer",
              "load from unknown buffer '" + L->buffer() + "'", Ctx)
            .Buffer = L->buffer();
        return;
      }
      if (static_cast<int>(L->indices().size()) != FI->rank())
        error("ir.index-rank",
              "load indexes rank-" + std::to_string(FI->rank()) +
                  " buffer with " + std::to_string(L->indices().size()) +
                  " indices",
              Ctx)
            .Buffer = L->buffer();
      for (const ExprPtr &I : L->indices())
        checkIntExpr(I.get(), Ctx);
    });
  }

  void walkStmt(const Stmt *S, bool TopLevel = false) {
    if (!S)
      return;
    switch (S->kind()) {
    case Stmt::Kind::Block:
      for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
        walkStmt(Child.get());
      return;
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      if (F->extent() < 0)
        error("ir.loop", "loop extent is negative", S);
      checkIntExpr(F->lo(), S);
      const LoopAnnotations &A = F->annotations();
      if (A.Collapse != 1 && A.Collapse != 2)
        error("ir.loop",
              "collapse(" + std::to_string(A.Collapse) +
                  ") is not supported (engine handles 1 and 2)",
              S);
      if (A.Collapse == 2) {
        const auto *B = dyn_cast_if_present<const BlockStmt>(F->body());
        bool SingleTiled =
            B && B->stmts().size() == 1 &&
            isa<TiledLoopStmt>(B->stmts()[0].get());
        if (!A.Parallel || !SingleTiled)
          error("ir.loop",
                "collapse(2) requires a parallel loop over a single tiled "
                "loop",
                S);
      }
      bool Shadowed = IntVars.count(F->var()) != 0;
      IntVars.insert(F->var());
      // The loop forks where the engine and the emitted pragma do: the
      // outermost parallel loop with more than one iteration (or a
      // collapsed batch x tile loop). Locals declared before it are shared
      // by its iterations.
      bool Forks = A.Parallel && !InForkedLoop &&
                   (A.Collapse == 2 || F->extent() > 1);
      if (Forks) {
        OuterLocals = FloatVars;
        InForkedLoop = true;
      }
      walkStmt(F->body());
      if (Forks) {
        OuterLocals.clear();
        InForkedLoop = false;
      }
      if (!Shadowed)
        IntVars.erase(F->var());
      return;
    }
    case Stmt::Kind::TiledLoop: {
      const auto *T = cast<TiledLoopStmt>(S);
      if (T->numTiles() < 0 || T->tileSize() < 0)
        error("ir.loop", "tiled loop has negative tile geometry", S);
      bool Shadowed = IntVars.count(T->tileVar()) != 0;
      IntVars.insert(T->tileVar());
      walkStmt(T->body());
      if (!Shadowed)
        IntVars.erase(T->tileVar());
      return;
    }
    case Stmt::Kind::Store: {
      const auto *St = cast<StoreStmt>(S);
      const BufferTable::FloatInfo *FI = Bufs.floatInfo(St->buffer());
      if (!FI) {
        error("ir.unknown-buffer",
              "store to unknown buffer '" + St->buffer() + "'", S)
            .Buffer = St->buffer();
      } else if (static_cast<int>(St->indices().size()) != FI->rank()) {
        error("ir.index-rank",
              "store indexes rank-" + std::to_string(FI->rank()) +
                  " buffer with " + std::to_string(St->indices().size()) +
                  " indices",
              S)
            .Buffer = St->buffer();
      }
      for (const ExprPtr &I : St->indices())
        checkIntExpr(I.get(), S);
      checkValueExpr(St->value(), S);
      return;
    }
    case Stmt::Kind::Decl: {
      const auto *D = cast<DeclStmt>(S);
      checkValueExpr(D->init(), S);
      FloatVars.insert(D->name()); // engine scope: visible until unit end
      return;
    }
    case Stmt::Kind::AssignVar: {
      const auto *A = cast<AssignVarStmt>(S);
      if (!FloatVars.count(A->name()))
        error("ir.var-use",
              "assignment to undeclared local '" + A->name() + "'", S);
      // The interpreter's parallel path gives each iteration a private copy
      // of such a local and its serial path shares one, so the two already
      // disagree; the emitted loop would race on it.
      if (InForkedLoop && OuterLocals.count(A->name()))
        error("race.local",
              "parallel loop assigns float local '" + A->name() +
                  "' declared outside it",
              S);
      checkValueExpr(A->value(), S);
      return;
    }
    case Stmt::Kind::KernelCall: {
      const auto *K = cast<KernelCallStmt>(S);
      const KernelSignature Sig = kernelSignature(K->kernel());
      std::string KName = kernelKindName(K->kernel());
      if (static_cast<int>(K->bufs().size()) != Sig.NumBufs ||
          static_cast<int>(K->intArgs().size()) != Sig.NumInts ||
          static_cast<int>(K->exprArgs().size()) != Sig.NumExprs ||
          static_cast<int>(K->floatArgs().size()) != Sig.NumFloats) {
        error("kernel.arity",
              "kernel '" + KName + "' expects " +
                  std::to_string(Sig.NumBufs) + " buffers, " +
                  std::to_string(Sig.NumInts) + " ints, " +
                  std::to_string(Sig.NumExprs) + " exprs, " +
                  std::to_string(Sig.NumFloats) + " floats; got " +
                  std::to_string(K->bufs().size()) + "/" +
                  std::to_string(K->intArgs().size()) + "/" +
                  std::to_string(K->exprArgs().size()) + "/" +
                  std::to_string(K->floatArgs().size()),
              S);
        return;
      }
      const uint32_t IntMask = kernelIntBufMask(K->kernel());
      for (size_t I = 0; I < K->bufs().size(); ++I) {
        const KernelBufArg &B = K->bufs()[I];
        bool WantInt = (IntMask >> I) & 1u;
        bool Known = WantInt ? Bufs.intInfo(B.Buffer) != nullptr
                             : Bufs.floatInfo(B.Buffer) != nullptr;
        if (!Known)
          error("ir.unknown-buffer",
                "kernel '" + KName + "' references unknown " +
                    (WantInt ? "int " : "") + "buffer '" + B.Buffer + "'",
                S)
              .Buffer = B.Buffer;
        if (B.Offset)
          checkIntExpr(B.Offset.get(), S);
      }
      for (const ExprPtr &E : K->exprArgs())
        checkIntExpr(E.get(), S);
      return;
    }
    case Stmt::Kind::Barrier:
      if (!TopLevel)
        error("ir.barrier-placement",
              "barrier nested inside a unit (must separate top-level "
              "tasks)",
              S);
      return;
    }
  }

  const BufferTable &Bufs;
  const std::string &Task;
  DiagnosticReport &R;
  std::set<std::string> IntVars, FloatVars;
  /// Float locals declared before the enclosing forked loop.
  std::set<std::string> OuterLocals;
  bool InForkedLoop = false;
};

//===----------------------------------------------------------------------===//
// Effect-level checks
//===----------------------------------------------------------------------===//

/// Evaluates the [min, one-past-max) element range a footprint may touch,
/// substituting each base coefficient's variable with its parallel dim's
/// range. Returns false when a variable is unknown — the range is
/// unbounded and not checkable.
bool footprintRange(const Footprint &Fp,
                    const std::vector<ParallelDim> &Dims, int64_t &MinOut,
                    int64_t &EndOut) {
  if (!Fp.Base.Affine)
    return false;
  int64_t Min = Fp.Base.Const;
  int64_t Max = Fp.Base.Const;
  for (const auto &[Var, C] : Fp.Base.Coeffs) {
    const ParallelDim *Dim = nullptr;
    for (const ParallelDim &D : Dims)
      if (D.Var == Var)
        Dim = &D;
    if (!Dim || Dim->Extent <= 0)
      return false;
    int64_t VMin = Dim->Lo;
    int64_t VMax = Dim->Lo + Dim->Extent - 1;
    Min += C * (C >= 0 ? VMin : VMax);
    Max += C * (C >= 0 ? VMax : VMin);
  }
  MinOut = Min;
  EndOut = Max + Fp.spanEnd();
  return true;
}

void checkBounds(const UnitEffects &UE, const BufferTable &Bufs,
                 const std::string &Task, DiagnosticReport &R) {
  for (const auto &[Buffer, Accesses] : UE.Effects.Buffers) {
    bool IsInt = Buffer.rfind("int:", 0) == 0;
    int64_t Count = 0;
    if (IsInt) {
      const BufferTable::IntInfo *II = Bufs.intInfo(Buffer.substr(4));
      if (!II)
        continue;
      Count = II->Count;
    } else {
      const BufferTable::FloatInfo *FI = Bufs.floatInfo(Buffer);
      if (!FI)
        continue;
      Count = FI->Count;
    }
    for (const Access &A : Accesses) {
      if (!A.Fp.Exact)
        continue; // conservative supersets are not bounds-checked
      int64_t Min = 0, End = 0;
      if (!footprintRange(A.Fp, UE.Dims, Min, End))
        continue;
      if (Min < 0 || End > Count) {
        Diagnostic &D = R.error(
            "ir.bounds", "access may reach elements [" +
                             std::to_string(Min) + ", " +
                             std::to_string(End) + ") of a " +
                             std::to_string(Count) + "-element buffer: " +
                             A.Detail + " [" + A.Fp.str() + "]");
        D.Task = Task;
        D.Buffer = Buffer;
      }
    }
  }
}

void verifyProgramIR(const Stmt *Root, const std::vector<TaskLabel> &Labels,
                     bool IsBackward, const BufferTable &Bufs,
                     const VerifyOptions &Opts, DiagnosticReport &R) {
  if (!Root)
    return;
  const auto *Block = dyn_cast<BlockStmt>(Root);
  if (!Block) {
    R.error("program.structure",
            "assembled program root must be a block of task units")
        .Snippet = snippetOf(Root);
    return;
  }
  const std::vector<StmtPtr> &Units = Block->stmts();
  bool HaveLabels = !Labels.empty() || Units.empty();
  if (HaveLabels && Labels.size() != Units.size())
    R.error("program.task-labels",
            "task labels must stay parallel to assembled units (" +
                std::to_string(Labels.size()) + " labels, " +
                std::to_string(Units.size()) + " units)");
  for (size_t I = 0; I < Units.size(); ++I) {
    const Stmt *Unit = Units[I].get();
    std::string Label = I < Labels.size()
                            ? Labels[I].Name
                            : (IsBackward ? "bwd-task#" : "task#") +
                                  std::to_string(I);
    if (I < Labels.size()) {
      bool IsBarrierUnit = isa<BarrierStmt>(Unit);
      bool IsBarrierLabel = Labels[I].Name.rfind("barrier:", 0) == 0;
      if (IsBarrierUnit != IsBarrierLabel) {
        Diagnostic &D = R.error(
            "program.task-labels",
            IsBarrierUnit
                ? "barrier unit carries non-barrier label '" +
                      Labels[I].Name + "'"
                : "label '" + Labels[I].Name +
                      "' marks a barrier but the unit is not one");
        D.Task = Labels[I].Name;
        D.Snippet = snippetOf(Unit);
      }
    }
    UnitVerifier UV(Bufs, Label, R);
    UV.run(Unit);

    // The structural walk above already reports collection failures
    // (unknown buffers, kernel arity), so effects are collected silently.
    UnitEffects UE = collectUnitEffects(Unit, Bufs, nullptr);
    if (Opts.CheckBounds)
      checkBounds(UE, Bufs, Label, R);
    if (Opts.CheckRaces) {
      // A unit the gradient partition split (compiler/gradpart.h) is a
      // block of sibling loops, each parallel on its own.
      if (const auto *Loops = dyn_cast<BlockStmt>(Unit))
        for (const StmtPtr &Loop : Loops->stmts())
          detectRaces(collectUnitEffects(Loop.get(), Bufs, nullptr), Label,
                      R);
      else
        detectRaces(UE, Label, R);
    }
  }
}

//===----------------------------------------------------------------------===//
// Memory-plan checks
//===----------------------------------------------------------------------===//

/// Validates the compiler's arena plan against the program it was computed
/// from: every alias root has a placed lifetime (plan.offset-missing) whose
/// byte range is aligned (plan.align), inside the arena, and large enough
/// for the buffer's extent (plan.bounds); no two lifetimes that are live at
/// the same time share bytes (plan.overlap); and — cross-checked against
/// analyze::effects — no task unit references a root outside its recorded
/// live range (plan.lifetime, plan.units).
void verifyMemoryPlan(const Program &Prog, const BufferTable &Bufs,
                      DiagnosticReport &R) {
  const MemoryPlan &Plan = Prog.Plan;
  if (!Plan.Valid)
    return; // hand-built programs run eagerly; nothing to check
  auto CountUnits = [](const Stmt *Root) -> int {
    if (!Root)
      return 0;
    const auto *B = dyn_cast<const BlockStmt>(Root);
    return B ? static_cast<int>(B->stmts().size()) : 1;
  };
  const int NumFwd = CountUnits(Prog.Forward.get());
  const int NumBwd = CountUnits(Prog.Backward.get());
  if (Plan.NumForwardUnits != NumFwd || Plan.NumBackwardUnits != NumBwd)
    R.error("plan.units",
            "plan unit counts (" + std::to_string(Plan.NumForwardUnits) +
                "F/" + std::to_string(Plan.NumBackwardUnits) +
                "B) disagree with the program (" + std::to_string(NumFwd) +
                "F/" + std::to_string(NumBwd) + "B)");

  // Every root placed, tables consistent, placements in-bounds.
  for (const BufferInfo &B : Prog.Buffers) {
    const BufferInfo *Root = Prog.resolveAlias(B.Name);
    if (!Root)
      continue; // buffer.alias already reported
    const BufferLifetime *L = Plan.lifetime(Root->Name);
    auto It = Plan.Offsets.find(Root->Name);
    if (!L || It == Plan.Offsets.end()) {
      R.error("plan.offset-missing",
              "alias root has no memory-plan entry")
          .Buffer = Root->Name;
      continue;
    }
    if (L->Offset != It->second)
      R.error("plan.offset-missing",
              "lifetime offset " + std::to_string(L->Offset) +
                  " disagrees with the offset table (" +
                  std::to_string(It->second) + ")")
          .Buffer = Root->Name;
    if (L->Bytes < Root->Dims.numElements() * 4)
      R.error("plan.bounds",
              "planned extent (" + std::to_string(L->Bytes) +
                  " bytes) is smaller than the buffer (" +
                  std::to_string(Root->Dims.numElements() * 4) + " bytes)")
          .Buffer = Root->Name;
  }
  for (const BufferLifetime &L : Plan.Lifetimes) {
    if (L.Bytes > 0 && L.Offset % Plan.Alignment != 0)
      R.error("plan.align",
              "offset " + std::to_string(L.Offset) +
                  " is not aligned to " + std::to_string(Plan.Alignment))
          .Buffer = L.Name;
    if (L.Offset < 0 || L.Offset + L.Bytes > Plan.ArenaBytes)
      R.error("plan.bounds",
              "byte range [" + std::to_string(L.Offset) + ", " +
                  std::to_string(L.Offset + L.Bytes) +
                  ") escapes the arena (" + std::to_string(Plan.ArenaBytes) +
                  " bytes)")
          .Buffer = L.Name;
  }

  // No two simultaneously-live roots may share bytes.
  for (size_t I = 0; I < Plan.Lifetimes.size(); ++I)
    for (size_t J = I + 1; J < Plan.Lifetimes.size(); ++J) {
      const BufferLifetime &A = Plan.Lifetimes[I];
      const BufferLifetime &B = Plan.Lifetimes[J];
      if (A.overlapsLifetime(B) && A.overlapsBytes(B))
        R.error("plan.overlap",
                "'" + A.Name + "' (bytes [" + std::to_string(A.Offset) +
                    ", " + std::to_string(A.Offset + A.Bytes) +
                    "), live [" + std::to_string(A.LiveBegin) + ", " +
                    std::to_string(A.LiveEnd) + "]) collides with '" +
                    B.Name + "' (bytes [" + std::to_string(B.Offset) + ", " +
                    std::to_string(B.Offset + B.Bytes) + "), live [" +
                    std::to_string(B.LiveBegin) + ", " +
                    std::to_string(B.LiveEnd) + "])")
            .Buffer = A.Name;
    }

  // Cross-check against the effect analysis: every reference must fall
  // inside the root's recorded live range.
  std::vector<const Stmt *> Units;
  auto AddUnits = [&Units](const Stmt *Root) {
    if (!Root)
      return;
    if (const auto *B = dyn_cast<const BlockStmt>(Root))
      for (const StmtPtr &S : B->stmts())
        Units.push_back(S.get());
    else
      Units.push_back(Root);
  };
  AddUnits(Prog.Forward.get());
  AddUnits(Prog.Backward.get());
  for (size_t U = 0; U < Units.size(); ++U) {
    UnitEffects UE = collectUnitEffects(Units[U], Bufs, nullptr);
    for (const auto &[Key, Accesses] : UE.Effects.Buffers) {
      if (Key.rfind("int:", 0) == 0)
        continue; // int tables/masks are outside the float plan
      const BufferLifetime *L = Plan.lifetime(Key);
      if (!L)
        continue; // plan.offset-missing already reported
      int G = static_cast<int>(U);
      if (!L->liveAt(G)) {
        std::string Ranges = "[" + std::to_string(L->LiveBegin) + ", " +
                             std::to_string(L->LiveEnd) + "]";
        if (L->Live2Begin >= 0)
          Ranges += " u [" + std::to_string(L->Live2Begin) + ", " +
                    std::to_string(L->Live2End) + "]";
        Diagnostic &D = R.error(
            "plan.lifetime",
            "unit " + std::to_string(G) + " references '" + Key +
                "' outside its recorded live range " + Ranges);
        D.Buffer = Key;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Recompute checks
//===----------------------------------------------------------------------===//

void forEachKernelCall(const Stmt *S,
                       const std::function<void(const KernelCallStmt *)> &Fn) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::KernelCall:
    Fn(cast<const KernelCallStmt>(S));
    return;
  case Stmt::Kind::Block:
    for (const StmtPtr &C : cast<const BlockStmt>(S)->stmts())
      forEachKernelCall(C.get(), Fn);
    return;
  case Stmt::Kind::For:
    forEachKernelCall(cast<const ForStmt>(S)->body(), Fn);
    return;
  case Stmt::Kind::TiledLoop:
    forEachKernelCall(cast<const TiledLoopStmt>(S)->body(), Fn);
    return;
  default:
    return;
  }
}

/// Validates the recompute ledger (Program::Recomputes) against the
/// backward program it claims to describe: the cloned unit exists before
/// its consumer and is the first backward reference to the recomputed
/// buffer (plan.recompute.placement); the clone writes nothing but that
/// buffer (plan.recompute.purity); and every kernel inside the clone is a
/// whitelisted pure gather (plan.recompute.stateful).
void verifyRecompute(const Program &Prog, const BufferTable &Bufs,
                     DiagnosticReport &R) {
  if (Prog.Recomputes.empty())
    return;
  const auto *BwdBlock = dyn_cast<const BlockStmt>(Prog.Backward.get());
  if (!BwdBlock) {
    R.error("plan.recompute.placement",
            "program records recomputed buffers but the backward program "
            "is not a unit block");
    return;
  }
  const int NumBwd = static_cast<int>(BwdBlock->stmts().size());
  for (const RecomputeInfo &RI : Prog.Recomputes) {
    auto Bad = [&](const std::string &Code,
                   const std::string &Msg) -> Diagnostic & {
      Diagnostic &D = R.error(Code, Msg);
      D.Buffer = RI.Buffer;
      return D;
    };
    if (RI.BackwardUnit < 0 || RI.ConsumerUnit >= NumBwd ||
        RI.BackwardUnit >= RI.ConsumerUnit) {
      Bad("plan.recompute.placement",
          "recompute clone at backward unit " +
              std::to_string(RI.BackwardUnit) +
              " is not placed before its consumer (unit " +
              std::to_string(RI.ConsumerUnit) + " of " +
              std::to_string(NumBwd) + ")");
      continue;
    }
    const BufferInfo *Root = Prog.resolveAlias(RI.Buffer);
    if (!Root) {
      Bad("plan.recompute.placement",
          "recomputed buffer is not in the buffer table");
      continue;
    }

    // The clone must be the backward definition: it writes the buffer, and
    // no earlier backward unit touches it.
    UnitEffects CloneEff = collectUnitEffects(
        BwdBlock->stmts()[RI.BackwardUnit].get(), Bufs, nullptr);
    auto CloneIt = CloneEff.Effects.Buffers.find(Root->Name);
    bool CloneWrites = false;
    if (CloneIt != CloneEff.Effects.Buffers.end())
      for (const Access &A : CloneIt->second)
        CloneWrites |= A.Write;
    if (!CloneWrites)
      Bad("plan.recompute.placement",
          "backward unit " + std::to_string(RI.BackwardUnit) +
              " does not write the buffer it claims to recompute");
    for (int U = 0; U < RI.BackwardUnit; ++U) {
      UnitEffects UE =
          collectUnitEffects(BwdBlock->stmts()[U].get(), Bufs, nullptr);
      if (UE.Effects.Buffers.count(Root->Name))
        Bad("plan.recompute.placement",
            "backward unit " + std::to_string(U) + " references '" +
                Root->Name + "' before its recompute clone (unit " +
                std::to_string(RI.BackwardUnit) + ")");
    }

    // Purity: the clone may write nothing but the recomputed buffer.
    for (const auto &[Key, Accesses] : CloneEff.Effects.Buffers) {
      if (Key == Root->Name)
        continue;
      for (const Access &A : Accesses)
        if (A.Write) {
          Bad("plan.recompute.purity",
              "recompute clone for '" + Root->Name + "' also writes '" +
                  Key + "'");
          break;
        }
    }

    // Statefulness: only whitelisted pure gathers may be replayed.
    forEachKernelCall(
        BwdBlock->stmts()[RI.BackwardUnit].get(),
        [&](const KernelCallStmt *KC) {
          if (!compiler::isRecomputableKernel(KC->kernel()))
            Bad("plan.recompute.stateful",
                "recompute clone calls non-recomputable kernel '" +
                    std::string(kernelKindName(KC->kernel())) + "'");
        });

    // Coverage: the clone must regenerate exactly what the forward
    // producer wrote. Recomputed roots have *two* live intervals, and a
    // clone whose write footprints are a strict subset of the producer's
    // silently truncates the second interval the consumer reads — compare
    // the full multisets instead of trusting the first interval
    // (plan.recompute.coverage).
    const auto *FwdBlock = dyn_cast<const BlockStmt>(Prog.Forward.get());
    if (FwdBlock && RI.ForwardUnit >= 0 &&
        RI.ForwardUnit < static_cast<int>(FwdBlock->stmts().size())) {
      auto WriteFps = [&](const UnitEffects &UE) {
        std::multiset<std::string> Fps;
        auto It = UE.Effects.Buffers.find(Root->Name);
        if (It != UE.Effects.Buffers.end())
          for (const Access &A : It->second)
            if (A.Write)
              Fps.insert(A.Fp.str());
        return Fps;
      };
      UnitEffects FwdEff = collectUnitEffects(
          FwdBlock->stmts()[RI.ForwardUnit].get(), Bufs, nullptr);
      std::multiset<std::string> FwdFps = WriteFps(FwdEff);
      std::multiset<std::string> CloneFps = WriteFps(CloneEff);
      if (FwdFps != CloneFps) {
        auto Join = [](const std::multiset<std::string> &Fps) {
          std::string Out;
          for (const std::string &F : Fps)
            Out += (Out.empty() ? "" : " ; ") + F;
          return Out.empty() ? std::string("<none>") : Out;
        };
        Bad("plan.recompute.coverage",
            "clone write footprints {" + Join(CloneFps) +
                "} do not cover forward unit " +
                std::to_string(RI.ForwardUnit) + "'s {" + Join(FwdFps) +
                "}");
      }
    }
  }
}

} // namespace

DiagnosticReport analyze::verifyProgram(const Program &Prog,
                                        const VerifyOptions &Opts) {
  DiagnosticReport R;
  verifyBuffers(Prog, R);
  verifyParamBindings(Prog, R);
  verifyFusionGroups(Prog, R);
  // A broken buffer table poisons every downstream footprint; stop early.
  if (R.hasErrors())
    return R;
  BufferTable Bufs(Prog);
  verifyProgramIR(Prog.Forward.get(), Prog.ForwardTasks, /*IsBackward=*/false,
                  Bufs, Opts, R);
  verifyProgramIR(Prog.Backward.get(), Prog.BackwardTasks,
                  /*IsBackward=*/true, Bufs, Opts, R);
  verifyRecompute(Prog, Bufs, R);
  verifyMemoryPlan(Prog, Bufs, R);
  return R;
}
