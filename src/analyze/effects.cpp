//===- analyze/effects.cpp ------------------------------------*- C++ -*-===//

#include "analyze/effects.h"

#include "ir/printer.h"
#include "ir/visitor.h"
#include "support/casting.h"

#include <algorithm>
#include <set>
#include <sstream>

using namespace latte;
using namespace latte::analyze;
using namespace latte::compiler;
using namespace latte::ir;

//===----------------------------------------------------------------------===//
// AffineExpr
//===----------------------------------------------------------------------===//

void AffineExpr::accumulate(const AffineExpr &Other, int64_t Scale) {
  if (!Other.Affine)
    Affine = false;
  if (!Affine)
    return;
  Const += Scale * Other.Const;
  for (const auto &[Var, C] : Other.Coeffs) {
    int64_t &Slot = Coeffs[Var];
    Slot += Scale * C;
    if (Slot == 0)
      Coeffs.erase(Var);
  }
}

std::string AffineExpr::str() const {
  if (!Affine)
    return "<non-affine>";
  std::ostringstream OS;
  bool First = true;
  for (const auto &[Var, C] : Coeffs) {
    if (!First)
      OS << " + ";
    First = false;
    if (C == 1)
      OS << Var;
    else
      OS << C << "*" << Var;
  }
  if (Const != 0 || First) {
    if (!First)
      OS << " + ";
    OS << Const;
  }
  return OS.str();
}

AffineExpr analyze::affineOf(const Expr *E) {
  if (!E)
    return AffineExpr::constant(0);
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    return AffineExpr::constant(cast<IntConstExpr>(E)->value());
  case Expr::Kind::Var: {
    AffineExpr A;
    A.Coeffs[cast<VarExpr>(E)->name()] = 1;
    return A;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    AffineExpr L = affineOf(B->lhs());
    AffineExpr R = affineOf(B->rhs());
    switch (B->op()) {
    case BinaryOpKind::Add:
      L.accumulate(R, 1);
      return L;
    case BinaryOpKind::Sub:
      L.accumulate(R, -1);
      return L;
    case BinaryOpKind::Mul:
      if (R.isConstant()) {
        AffineExpr Out = AffineExpr::constant(0);
        Out.accumulate(L, R.Const);
        return Out;
      }
      if (L.isConstant()) {
        AffineExpr Out = AffineExpr::constant(0);
        Out.accumulate(R, L.Const);
        return Out;
      }
      return AffineExpr::unknown();
    case BinaryOpKind::Div:
      if (L.isConstant() && R.isConstant() && R.Const != 0)
        return AffineExpr::constant(L.Const / R.Const);
      return AffineExpr::unknown();
    case BinaryOpKind::Min:
    case BinaryOpKind::Max:
      if (L.isConstant() && R.isConstant())
        return AffineExpr::constant(B->op() == BinaryOpKind::Min
                                        ? std::min(L.Const, R.Const)
                                        : std::max(L.Const, R.Const));
      return AffineExpr::unknown();
    }
    return AffineExpr::unknown();
  }
  default:
    return AffineExpr::unknown();
  }
}

//===----------------------------------------------------------------------===//
// Footprint
//===----------------------------------------------------------------------===//

int64_t Footprint::spanEnd() const {
  int64_t End = Width;
  for (const FootprintLevel &L : Levels)
    End += (L.Extent - 1) * L.Stride;
  return End;
}

void Footprint::canonicalize() {
  // Drop degenerate levels (a level visited once, or always at offset 0,
  // contributes nothing beyond the base/width).
  Levels.erase(std::remove_if(Levels.begin(), Levels.end(),
                              [](const FootprintLevel &L) {
                                return L.Extent <= 1 || L.Stride == 0;
                              }),
               Levels.end());
  std::sort(Levels.begin(), Levels.end(),
            [](const FootprintLevel &A, const FootprintLevel &B) {
              return A.Stride < B.Stride;
            });
  // Coalesce levels whose stride does not exceed the contiguous width: the
  // union [0, Stride*(Extent-1) + Width) is exactly contiguous.
  std::vector<FootprintLevel> Kept;
  for (const FootprintLevel &L : Levels) {
    if (L.Stride <= Width)
      Width = L.Stride * (L.Extent - 1) + Width;
    else
      Kept.push_back(L);
  }
  Levels = std::move(Kept);
}

std::string Footprint::str() const {
  std::ostringstream OS;
  OS << "base(" << Base.str() << ")";
  for (const FootprintLevel &L : Levels)
    OS << " x" << L.Extent << "@" << L.Stride;
  OS << " +[0," << Width << ")";
  if (!Exact)
    OS << " ~approx";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// BufferTable
//===----------------------------------------------------------------------===//

BufferTable::BufferTable(const compiler::Program &TheProg) : Prog(TheProg) {
  for (const BufferInfo &B : Prog.Buffers) {
    FloatInfo FI;
    FI.Strides = B.Dims.strides();
    FI.Count = B.Dims.numElements();
    FI.Role = B.Role;
    // Program::resolveAlias is bounded — cycles are the verifier's job.
    const BufferInfo *Root = Prog.resolveAlias(B.Name);
    FI.Root = Root ? Root->Name : B.Name;
    Floats.emplace(B.Name, std::move(FI));
  }
  for (const IntBufferInfo &B : Prog.IntBuffers) {
    IntInfo II;
    II.Count = B.isStatic() ? static_cast<int64_t>(B.Entries.size()) : B.Count;
    if (B.isStatic()) {
      for (int32_t V : B.Entries) {
        if (V < 0)
          continue; // -1 padding sentinel
        if (!II.HasEntries) {
          II.HasEntries = true;
          II.MinEntry = II.MaxEntry = V;
        } else {
          II.MinEntry = std::min<int64_t>(II.MinEntry, V);
          II.MaxEntry = std::max<int64_t>(II.MaxEntry, V);
        }
      }
    }
    Ints.emplace(B.Name, II);
  }
}

const BufferTable::FloatInfo *
BufferTable::floatInfo(const std::string &Name) const {
  auto It = Floats.find(Name);
  return It == Floats.end() ? nullptr : &It->second;
}

const BufferTable::IntInfo *
BufferTable::intInfo(const std::string &Name) const {
  auto It = Ints.find(Name);
  return It == Ints.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// Kernel signatures
//===----------------------------------------------------------------------===//

KernelSignature analyze::kernelSignature(KernelKind K) {
  // Argument layouts mirror engine::Executor::execKernel (the runtime is
  // authoritative; KernelKind's doc comments predate the expr-arg split).
  switch (K) {
  case KernelKind::Zero:
    return {1, 1, 0, 0};
  case KernelKind::Copy:
  case KernelKind::AddTo:
    return {2, 1, 0, 0};
  case KernelKind::MulInto:
  case KernelKind::MulAddTo:
    return {3, 1, 0, 0};
  case KernelKind::Scale:
    return {1, 1, 0, 1};
  case KernelKind::Sgemm:
    return {3, 9, 0, 0};
  case KernelKind::Gather2D:
  case KernelKind::ScatterAdd2D:
    return {3, 3, 1, 0};
  case KernelKind::ActFwdCols:
    return {2, 4, 1, 0};
  case KernelKind::ActBwdCols:
    return {3, 5, 1, 0};
  case KernelKind::BiasAddCols:
    return {2, 3, 1, 0};
  case KernelKind::BiasAddPerRow:
  case KernelKind::RowSumAdd:
  case KernelKind::ColSumAdd:
    return {2, 2, 0, 0};
  case KernelKind::Im2ColRows:
  case KernelKind::Col2ImRows:
    return {2, 7, 1, 0};
  case KernelKind::MaxPoolFwdRows:
  case KernelKind::MaxPoolBwdRows:
    return {3, 7, 1, 0};
  case KernelKind::AvgPoolFwdRows:
  case KernelKind::AvgPoolBwdRows:
    return {2, 7, 1, 0};
  case KernelKind::SoftmaxFwd:
    return {2, 2, 0, 0};
  case KernelKind::SoftmaxLossFwd:
    return {4, 2, 0, 0};
  case KernelKind::SoftmaxLossBwd:
    return {3, 2, 0, 1};
  case KernelKind::SoftmaxBwd:
    return {3, 2, 0, 0};
  case KernelKind::DropoutMask:
    return {1, 1, 0, 1};
  }
  return {0, 0, 0, 0};
}

//===----------------------------------------------------------------------===//
// Effect collection
//===----------------------------------------------------------------------===//

namespace {

struct SeqRange {
  AffineExpr Lo;
  int64_t Extent = 0;
};

class Collector {
public:
  Collector(const BufferTable &Bufs, DiagnosticReport *Diags)
      : Bufs(Bufs), Diags(Diags) {}

  UnitEffects run(const Stmt *Unit);

private:
  void walk(const Stmt *S);
  void collectReads(const Expr *E);
  void kernelEffects(const KernelCallStmt *K);

  /// Folds every bound sequential variable of \p Offset into Levels; what
  /// remains in the base may only mention the parallel dimensions.
  Footprint makeFootprint(AffineExpr Offset, std::vector<FootprintLevel> Levels,
                          int64_t Width, bool Exact, int64_t BufferCount);
  Footprint wholeBuffer(int64_t Count) {
    Footprint Fp;
    Fp.Width = std::max<int64_t>(Count, 1);
    Fp.Exact = false;
    return Fp;
  }

  void addFloatAccess(const std::string &Name, Footprint Fp, bool Write,
                      bool Read, bool Accum, std::string Detail,
                      const Footprint *BoundFp = nullptr);
  void addIntAccess(const std::string &Name, Footprint Fp, bool Write,
                    bool Read, std::string Detail);

  const BufferTable &Bufs;
  DiagnosticReport *Diags;
  UnitEffects Result;
  std::map<std::string, SeqRange> Bound; ///< sequential loop vars in scope
  std::set<std::string> ParallelVars;
};

UnitEffects Collector::run(const Stmt *Unit) {
  const Stmt *Body = Unit;
  if (const auto *F = dyn_cast_if_present<const ForStmt>(Unit);
      F && F->annotations().Parallel) {
    int64_t Lo = 0;
    evalConstInt(F->lo(), Lo); // assembled programs use constant bounds
    Result.Dims.push_back({F->var(), Lo, F->extent()});
    ParallelVars.insert(F->var());
    Body = F->body();
    if (F->annotations().Collapse == 2)
      if (const auto *B = dyn_cast<BlockStmt>(Body); B && B->stmts().size() == 1)
        if (const auto *TL = dyn_cast<TiledLoopStmt>(B->stmts()[0].get())) {
          Result.Dims.push_back({TL->tileVar(), 0, TL->numTiles()});
          ParallelVars.insert(TL->tileVar());
          Result.Collapsed = true;
          Body = TL->body();
        }
  }
  walk(Body);
  return std::move(Result);
}

void Collector::walk(const Stmt *S) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      walk(Child.get());
    return;
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    collectReads(F->lo());
    SeqRange Saved;
    bool HadPrev = Bound.count(F->var()) != 0;
    if (HadPrev)
      Saved = Bound[F->var()];
    Bound[F->var()] = {affineOf(F->lo()), F->extent()};
    walk(F->body());
    if (HadPrev)
      Bound[F->var()] = Saved;
    else
      Bound.erase(F->var());
    return;
  }
  case Stmt::Kind::TiledLoop: {
    const auto *T = cast<TiledLoopStmt>(S);
    SeqRange Saved;
    bool HadPrev = Bound.count(T->tileVar()) != 0;
    if (HadPrev)
      Saved = Bound[T->tileVar()];
    Bound[T->tileVar()] = {AffineExpr::constant(0), T->numTiles()};
    walk(T->body());
    if (HadPrev)
      Bound[T->tileVar()] = Saved;
    else
      Bound.erase(T->tileVar());
    return;
  }
  case Stmt::Kind::Store: {
    const auto *St = cast<StoreStmt>(S);
    collectReads(St->value());
    for (const ExprPtr &I : St->indices())
      collectReads(I.get());
    const BufferTable::FloatInfo *FI = Bufs.floatInfo(St->buffer());
    if (!FI) {
      if (Diags)
        Diags->error("ir.unknown-buffer",
                     "store to unknown buffer '" + St->buffer() + "'");
      return;
    }
    std::string Detail = "store " + St->buffer() + "[";
    AffineExpr Off = AffineExpr::constant(0);
    for (size_t I = 0; I < St->indices().size(); ++I) {
      if (I)
        Detail += ", ";
      Detail += printExpr(St->indices()[I].get());
      int64_t Stride =
          I < FI->Strides.size() ? FI->Strides[I] : 0;
      Off.accumulate(affineOf(St->indices()[I].get()), Stride);
    }
    Detail += "]";
    Footprint Fp =
        static_cast<int>(St->indices().size()) == FI->rank() && Off.Affine
            ? makeFootprint(std::move(Off), {}, 1, true, FI->Count)
            : wholeBuffer(FI->Count);
    bool Accum = St->op() == AccumKind::AddAssign;
    bool Rmw = St->op() != AccumKind::Assign;
    addFloatAccess(St->buffer(), std::move(Fp), /*Write=*/true, /*Read=*/Rmw,
                   Accum, std::move(Detail));
    return;
  }
  case Stmt::Kind::Decl:
    collectReads(cast<DeclStmt>(S)->init());
    return;
  case Stmt::Kind::AssignVar:
    collectReads(cast<AssignVarStmt>(S)->value());
    return;
  case Stmt::Kind::KernelCall:
    kernelEffects(cast<KernelCallStmt>(S));
    return;
  case Stmt::Kind::Barrier:
    return;
  }
}

void Collector::collectReads(const Expr *E) {
  if (!E)
    return;
  walkExprs(E, [&](const Expr *Node) {
    const auto *L = dyn_cast<LoadExpr>(Node);
    if (!L)
      return;
    const BufferTable::FloatInfo *FI = Bufs.floatInfo(L->buffer());
    if (!FI) {
      if (Diags)
        Diags->error("ir.unknown-buffer",
                     "load from unknown buffer '" + L->buffer() + "'");
      return;
    }
    AffineExpr Off = AffineExpr::constant(0);
    for (size_t I = 0; I < L->indices().size(); ++I)
      Off.accumulate(affineOf(L->indices()[I].get()),
                     I < FI->Strides.size() ? FI->Strides[I] : 0);
    Footprint Fp =
        static_cast<int>(L->indices().size()) == FI->rank() && Off.Affine
            ? makeFootprint(std::move(Off), {}, 1, true, FI->Count)
            : wholeBuffer(FI->Count);
    addFloatAccess(L->buffer(), std::move(Fp), /*Write=*/false, /*Read=*/true,
                   /*Accum=*/false, "load " + printExpr(Node));
  });
}

Footprint Collector::makeFootprint(AffineExpr Offset,
                                   std::vector<FootprintLevel> Levels,
                                   int64_t Width, bool Exact,
                                   int64_t BufferCount) {
  Footprint Fp;
  Fp.Levels = std::move(Levels);
  Fp.Width = Width;
  Fp.Exact = Exact;
  if (!Offset.Affine)
    return wholeBuffer(BufferCount);
  // Fold bound sequential loops into levels. Lower bounds may reference
  // other loop variables (tile row begins), so iterate to a fixpoint.
  for (int Iter = 0; Iter < 64; ++Iter) {
    auto It = std::find_if(Offset.Coeffs.begin(), Offset.Coeffs.end(),
                           [&](const auto &Entry) {
                             return Bound.count(Entry.first) != 0;
                           });
    if (It == Offset.Coeffs.end())
      break;
    std::string Var = It->first;
    int64_t C = It->second;
    Offset.Coeffs.erase(It);
    const SeqRange &R = Bound[Var];
    Offset.accumulate(R.Lo, C);
    if (!Offset.Affine)
      return wholeBuffer(BufferCount);
    if (R.Extent > 1) {
      if (C > 0)
        Fp.Levels.push_back({R.Extent, C});
      else if (C < 0) {
        Offset.Const += C * (R.Extent - 1);
        Fp.Levels.push_back({R.Extent, -C});
      }
    }
  }
  // Leftover coefficients must belong to the parallel dimensions; anything
  // else (an unbound variable — the verifier reports it) forces widening.
  for (const auto &[Var, C] : Offset.Coeffs)
    if (ParallelVars.count(Var) == 0)
      return wholeBuffer(BufferCount);
  Fp.Base = std::move(Offset);
  Fp.canonicalize();
  return Fp;
}

void Collector::addFloatAccess(const std::string &Name, Footprint Fp,
                               bool Write, bool Read, bool Accum,
                               std::string Detail, const Footprint *BoundFp) {
  const BufferTable::FloatInfo *FI = Bufs.floatInfo(Name);
  Access A;
  A.Write = Write;
  A.Read = Read;
  A.Accumulating = Accum;
  A.Fp = std::move(Fp);
  if (BoundFp) {
    A.HasBound = true;
    A.Bound = *BoundFp;
  }
  A.Detail = std::move(Detail);
  Result.Effects.add(FI ? FI->Root : Name, std::move(A));
}

void Collector::addIntAccess(const std::string &Name, Footprint Fp, bool Write,
                             bool Read, std::string Detail) {
  Access A;
  A.Write = Write;
  A.Read = Read;
  A.Fp = std::move(Fp);
  A.Detail = std::move(Detail);
  Result.Effects.add("int:" + Name, std::move(A));
}

void Collector::kernelEffects(const KernelCallStmt *K) {
  const KernelSignature Sig = kernelSignature(K->kernel());
  const std::vector<int64_t> &IA = K->intArgs();
  if (static_cast<int>(K->bufs().size()) < Sig.NumBufs ||
      static_cast<int>(IA.size()) < Sig.NumInts ||
      static_cast<int>(K->exprArgs().size()) < Sig.NumExprs) {
    if (Diags)
      Diags->error("kernel.arity",
                   std::string("kernel '") + kernelKindName(K->kernel()) +
                       "' has too few arguments for its signature");
    return;
  }
  for (const KernelBufArg &B : K->bufs())
    if (B.Offset)
      collectReads(B.Offset.get());
  for (const ExprPtr &E : K->exprArgs())
    collectReads(E.get());

  auto BufName = [&](int I) { return K->bufs()[I].Buffer; };
  auto BufOff = [&](int I) {
    return K->bufs()[I].Offset ? affineOf(K->bufs()[I].Offset.get())
                               : AffineExpr::constant(0);
  };
  std::string KName = kernelKindName(K->kernel());

  /// Emits one float-buffer access: base = arg offset + Extra. When
  /// \p BoundWidth is positive and the footprint ends up inexact, a bound
  /// footprint [arg offset, arg offset + BoundWidth) is attached: the
  /// runtime clips padded windows, so even though the affine window model
  /// overhangs, the touched elements are guaranteed to stay inside the
  /// kernel's own image slice.
  auto Acc = [&](int I, AffineExpr Extra, std::vector<FootprintLevel> Levels,
                 int64_t Width, bool Exact, bool Write, bool Read,
                 bool Accum, int64_t BoundWidth = 0) {
    const BufferTable::FloatInfo *FI = Bufs.floatInfo(BufName(I));
    if (!FI) {
      if (Diags)
        Diags->error("ir.unknown-buffer", "kernel '" + KName +
                                              "' references unknown buffer '" +
                                              BufName(I) + "'");
      return;
    }
    AffineExpr Off = BufOff(I);
    Off.accumulate(Extra, 1);
    Footprint Fp = Off.Affine && Exact
                       ? makeFootprint(std::move(Off), std::move(Levels),
                                       Width, true, FI->Count)
                       : (Off.Affine ? makeFootprint(std::move(Off),
                                                     std::move(Levels), Width,
                                                     false, FI->Count)
                                     : wholeBuffer(FI->Count));
    Footprint BoundFp;
    bool HasBound = false;
    if (BoundWidth > 0 && !Fp.Exact) {
      AffineExpr BOff = BufOff(I);
      if (BOff.Affine) {
        BoundFp = makeFootprint(std::move(BOff), {}, BoundWidth, true,
                                FI->Count);
        HasBound = BoundFp.Exact;
      }
    }
    addFloatAccess(BufName(I), std::move(Fp), Write, Read, Accum,
                   KName + " arg" + std::to_string(I) + " '" + BufName(I) +
                       "'",
                   HasBound ? &BoundFp : nullptr);
  };
  auto IntAcc = [&](int I, AffineExpr Extra, std::vector<FootprintLevel> Levels,
                    int64_t Width, bool Write) {
    const BufferTable::IntInfo *II = Bufs.intInfo(BufName(I));
    if (!II) {
      if (Diags)
        Diags->error("ir.unknown-buffer",
                     "kernel '" + KName + "' references unknown int buffer '" +
                         BufName(I) + "'");
      return;
    }
    AffineExpr Off = BufOff(I);
    Off.accumulate(Extra, 1);
    Footprint Fp = Off.Affine
                       ? makeFootprint(std::move(Off), std::move(Levels),
                                       Width, true, II->Count)
                       : wholeBuffer(II->Count);
    addIntAccess(BufName(I), std::move(Fp), Write, !Write,
                 KName + " arg" + std::to_string(I) + " '" + BufName(I) + "'");
  };
  /// Conservative data-dependent footprint through an index table: offsets
  /// bounded by the static table's [min, max] entry range when known,
  /// otherwise the whole buffer.
  auto TableAcc = [&](int I, int TableI, bool Write, bool Accum) {
    const BufferTable::FloatInfo *FI = Bufs.floatInfo(BufName(I));
    if (!FI)
      return; // reported by the exact-footprint path or verifier
    const BufferTable::IntInfo *II = Bufs.intInfo(BufName(TableI));
    AffineExpr Off = BufOff(I);
    Footprint Fp;
    if (Off.Affine && II && II->HasEntries) {
      Off.Const += II->MinEntry;
      Fp = makeFootprint(std::move(Off), {},
                         II->MaxEntry - II->MinEntry + 1, false, FI->Count);
      Fp.Exact = false;
    } else {
      Fp = wholeBuffer(FI->Count);
    }
    addFloatAccess(BufName(I), std::move(Fp), Write, !Write || Accum, Accum,
                   KName + " arg" + std::to_string(I) + " '" + BufName(I) +
                       "' (table-indexed)");
  };

  const AffineExpr Zero = AffineExpr::constant(0);
  auto ExprA = [&](int I) { return affineOf(K->exprArgs()[I].get()); };

  switch (K->kernel()) {
  case KernelKind::Zero:
    Acc(0, Zero, {}, IA[0], true, true, false, false);
    return;
  case KernelKind::Copy:
    Acc(0, Zero, {}, IA[0], true, true, false, false);
    Acc(1, Zero, {}, IA[0], true, false, true, false);
    return;
  case KernelKind::AddTo:
    Acc(0, Zero, {}, IA[0], true, true, true, true);
    Acc(1, Zero, {}, IA[0], true, false, true, false);
    return;
  case KernelKind::MulInto:
    Acc(0, Zero, {}, IA[0], true, true, false, false);
    Acc(1, Zero, {}, IA[0], true, false, true, false);
    Acc(2, Zero, {}, IA[0], true, false, true, false);
    return;
  case KernelKind::MulAddTo:
    Acc(0, Zero, {}, IA[0], true, true, true, true);
    Acc(1, Zero, {}, IA[0], true, false, true, false);
    Acc(2, Zero, {}, IA[0], true, false, true, false);
    return;
  case KernelKind::Scale:
    // *= is a read-modify-write; not a += accumulation, so racing Scale
    // calls are never whitelisted as lossy.
    Acc(0, Zero, {}, IA[0], true, true, true, false);
    return;
  case KernelKind::Sgemm: {
    int64_t M = IA[0], N = IA[1], Kd = IA[2];
    int64_t LdA = IA[3], LdB = IA[4], LdC = IA[5];
    bool TA = IA[6] != 0, TB = IA[7] != 0, AccC = IA[8] != 0;
    if (TA)
      Acc(0, Zero, {{Kd, LdA}}, M, true, false, true, false);
    else
      Acc(0, Zero, {{M, LdA}}, Kd, true, false, true, false);
    if (TB)
      Acc(1, Zero, {{N, LdB}}, Kd, true, false, true, false);
    else
      Acc(1, Zero, {{Kd, LdB}}, N, true, false, true, false);
    Acc(2, Zero, {{M, LdC}}, N, true, true, AccC, AccC);
    return;
  }
  case KernelKind::Gather2D: {
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2];
    Acc(0, ExprA(0), {{Rows, Cols}}, Cnt, true, true, false, false);
    TableAcc(1, 2, /*Write=*/false, /*Accum=*/false);
    IntAcc(2, ExprA(0), {{Rows, Cols}}, Cnt, false);
    return;
  }
  case KernelKind::ScatterAdd2D: {
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2];
    TableAcc(0, 2, /*Write=*/true, /*Accum=*/true);
    Acc(1, ExprA(0), {{Rows, Cols}}, Cnt, true, false, true, false);
    IntAcc(2, ExprA(0), {{Rows, Cols}}, Cnt, false);
    return;
  }
  case KernelKind::ActFwdCols: {
    int64_t Rows = IA[1], Cols = IA[2], Cnt = IA[3];
    Acc(0, ExprA(0), {{Rows, Cols}}, Cnt, true, true, false, false);
    Acc(1, ExprA(0), {{Rows, Cols}}, Cnt, true, false, true, false);
    return;
  }
  case KernelKind::ActBwdCols: {
    int64_t Rows = IA[1], Cols = IA[2], Cnt = IA[3];
    bool InPlace = IA[4] != 0;
    Acc(0, ExprA(0), {{Rows, Cols}}, Cnt, true, true, !InPlace, !InPlace);
    Acc(1, ExprA(0), {{Rows, Cols}}, Cnt, true, false, true, false);
    Acc(2, ExprA(0), {{Rows, Cols}}, Cnt, true, false, true, false);
    return;
  }
  case KernelKind::BiasAddCols: {
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2];
    Acc(0, ExprA(0), {{Rows, Cols}}, Cnt, true, true, true, true);
    Acc(1, Zero, {}, Rows, true, false, true, false);
    return;
  }
  case KernelKind::BiasAddPerRow: {
    int64_t Rows = IA[0], Cols = IA[1];
    Acc(0, Zero, {}, Rows * Cols, true, true, true, true);
    Acc(1, Zero, {}, Cols, true, false, true, false);
    return;
  }
  case KernelKind::RowSumAdd: {
    int64_t Rows = IA[0], Cols = IA[1];
    Acc(0, Zero, {}, Rows, true, true, true, true);
    Acc(1, Zero, {}, Rows * Cols, true, false, true, false);
    return;
  }
  case KernelKind::ColSumAdd: {
    int64_t Rows = IA[0], Cols = IA[1];
    Acc(0, Zero, {}, Cols, true, true, true, true);
    Acc(1, Zero, {}, Rows * Cols, true, false, true, false);
    return;
  }
  case KernelKind::Im2ColRows:
  case KernelKind::Col2ImRows:
  case KernelKind::MaxPoolFwdRows:
  case KernelKind::MaxPoolBwdRows:
  case KernelKind::AvgPoolFwdRows:
  case KernelKind::AvgPoolBwdRows: {
    // ints: {C, InH, InW, K, S, Pad, RowCount}; exprs: {RowBegin}. "Rows"
    // are output-image rows; CHW layout strides the channels.
    int64_t C = IA[0], InH = IA[1], InW = IA[2], Kw = IA[3], S = IA[4],
            Pad = IA[5], Rc = IA[6];
    int64_t OutH = S > 0 ? (InH + 2 * Pad - Kw) / S + 1 : 1;
    int64_t OutW = S > 0 ? (InW + 2 * Pad - Kw) / S + 1 : 1;
    AffineExpr Rb = ExprA(0);
    // Output-side region: rows [Rb, Rb+Rc) of every output channel/row.
    AffineExpr OutBase = Zero;
    OutBase.accumulate(Rb, OutW);
    // Input-side window: rows [Rb*S - Pad, (Rb+Rc-1)*S + Kw - Pad) of every
    // input channel. Exact only without padding (padded windows clip).
    AffineExpr InBase = Zero;
    InBase.accumulate(Rb, S * InW);
    InBase.Const -= Pad * InW;
    int64_t InWidth = ((Rc - 1) * S + Kw) * InW;
    bool InExact = Pad == 0;
    switch (K->kernel()) {
    case KernelKind::Im2ColRows: {
      // Col matrix [C*K*K] x [OutH*OutW]: the output-row slice of every
      // col-matrix row.
      int64_t ColRows = C * Kw * Kw, ColCols = OutH * OutW;
      Acc(0, OutBase, {{ColRows, ColCols}}, Rc * OutW, true, true, false,
          false);
      Acc(1, InBase, {{C, InH * InW}}, InWidth, InExact, false, true, false,
          C * InH * InW);
      return;
    }
    case KernelKind::Col2ImRows: {
      int64_t ColRows = C * Kw * Kw, ColCols = OutH * OutW;
      Acc(0, InBase, {{C, InH * InW}}, InWidth, InExact, true, true, true,
          C * InH * InW);
      Acc(1, OutBase, {{ColRows, ColCols}}, Rc * OutW, true, false, true,
          false);
      return;
    }
    case KernelKind::MaxPoolFwdRows:
      Acc(0, OutBase, {{C, OutH * OutW}}, Rc * OutW, true, true, false,
          false);
      Acc(1, InBase, {{C, InH * InW}}, InWidth, InExact, false, true, false,
          C * InH * InW);
      IntAcc(2, OutBase, {{C, OutH * OutW}}, Rc * OutW, true);
      return;
    case KernelKind::MaxPoolBwdRows:
      Acc(0, InBase, {{C, InH * InW}}, InWidth, InExact, true, true, true,
          C * InH * InW);
      Acc(1, OutBase, {{C, OutH * OutW}}, Rc * OutW, true, false, true,
          false);
      IntAcc(2, OutBase, {{C, OutH * OutW}}, Rc * OutW, false);
      return;
    case KernelKind::AvgPoolFwdRows:
      Acc(0, OutBase, {{C, OutH * OutW}}, Rc * OutW, true, true, false,
          false);
      Acc(1, InBase, {{C, InH * InW}}, InWidth, InExact, false, true, false,
          C * InH * InW);
      return;
    case KernelKind::AvgPoolBwdRows:
      Acc(0, InBase, {{C, InH * InW}}, InWidth, InExact, true, true, true,
          C * InH * InW);
      Acc(1, OutBase, {{C, OutH * OutW}}, Rc * OutW, true, false, true,
          false);
      return;
    default:
      return;
    }
  }
  case KernelKind::SoftmaxFwd: {
    int64_t RC = IA[0] * IA[1];
    Acc(0, Zero, {}, RC, true, true, false, false);
    Acc(1, Zero, {}, RC, true, false, true, false);
    return;
  }
  case KernelKind::SoftmaxLossFwd: {
    int64_t Rows = IA[0], RC = IA[0] * IA[1];
    Acc(0, Zero, {}, RC, true, true, false, false);
    Acc(1, Zero, {}, RC, true, false, true, false);
    Acc(2, Zero, {}, Rows, true, false, true, false);
    Acc(3, Zero, {}, Rows, true, true, false, false);
    return;
  }
  case KernelKind::SoftmaxLossBwd: {
    int64_t Rows = IA[0], RC = IA[0] * IA[1];
    Acc(0, Zero, {}, RC, true, true, true, true);
    Acc(1, Zero, {}, RC, true, false, true, false);
    Acc(2, Zero, {}, Rows, true, false, true, false);
    return;
  }
  case KernelKind::SoftmaxBwd: {
    int64_t RC = IA[0] * IA[1];
    Acc(0, Zero, {}, RC, true, true, true, true);
    Acc(1, Zero, {}, RC, true, false, true, false);
    Acc(2, Zero, {}, RC, true, false, true, false);
    return;
  }
  case KernelKind::DropoutMask:
    Acc(0, Zero, {}, IA[0], true, true, false, false);
    return;
  }
}

} // namespace

UnitEffects analyze::collectUnitEffects(const Stmt *Unit,
                                        const BufferTable &Bufs,
                                        DiagnosticReport *Diags) {
  Collector C(Bufs, Diags);
  return C.run(Unit);
}

std::string analyze::dumpEffects(const EffectSet &Effects) {
  std::ostringstream OS;
  for (const auto &[Buffer, Accesses] : Effects.Buffers) {
    OS << "  " << Buffer << ":\n";
    for (const Access &A : Accesses) {
      OS << "    ";
      OS << (A.Write && A.Read ? "RW" : (A.Write ? "W " : "R "));
      if (A.Accumulating)
        OS << " accum";
      OS << " " << A.Fp.str() << "  <- " << A.Detail << "\n";
    }
  }
  return OS.str();
}
