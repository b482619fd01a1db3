//===- ir/visitor.cpp -----------------------------------------*- C++ -*-===//

#include "ir/visitor.h"

#include "ir/builder.h"
#include "support/error.h"

using namespace latte;
using namespace latte::ir;

void ir::walkExprs(const Expr *E,
                   const std::function<void(const Expr *)> &Fn) {
  if (!E)
    return;
  Fn(E);
  switch (E->kind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::FloatConst:
  case Expr::Kind::Var:
    return;
  case Expr::Kind::Load:
    for (const ExprPtr &I : cast<LoadExpr>(E)->indices())
      walkExprs(I.get(), Fn);
    return;
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    walkExprs(B->lhs(), Fn);
    walkExprs(B->rhs(), Fn);
    return;
  }
  case Expr::Kind::Unary:
    walkExprs(cast<UnaryExpr>(E)->operand(), Fn);
    return;
  case Expr::Kind::Compare: {
    const auto *C = cast<CompareExpr>(E);
    walkExprs(C->lhs(), Fn);
    walkExprs(C->rhs(), Fn);
    return;
  }
  case Expr::Kind::Select: {
    const auto *S = cast<SelectExpr>(E);
    walkExprs(S->cond(), Fn);
    walkExprs(S->trueValue(), Fn);
    walkExprs(S->falseValue(), Fn);
    return;
  }
  }
  latteUnreachable("unknown expression kind");
}

void ir::walkStmts(const Stmt *S, const std::function<void(const Stmt *)> &Fn) {
  // Delegate to the mutable variant; the callback only sees const pointers.
  walkStmts(const_cast<Stmt *>(S),
            [&Fn](Stmt *Child) { Fn(Child); });
}

void ir::walkStmts(Stmt *S, const std::function<void(Stmt *)> &Fn) {
  if (!S)
    return;
  Fn(S);
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      walkStmts(Child.get(), Fn);
    return;
  case Stmt::Kind::For:
    walkStmts(cast<ForStmt>(S)->body(), Fn);
    return;
  case Stmt::Kind::TiledLoop:
    walkStmts(cast<TiledLoopStmt>(S)->body(), Fn);
    return;
  case Stmt::Kind::Store:
  case Stmt::Kind::Decl:
  case Stmt::Kind::AssignVar:
  case Stmt::Kind::KernelCall:
  case Stmt::Kind::Barrier:
    return;
  }
  latteUnreachable("unknown statement kind");
}

ExprPtr ir::rewriteExpr(ExprPtr E,
                        const std::function<ExprPtr(const Expr *)> &Fn) {
  if (!E)
    return E;
  // Rewrite children first (bottom-up).
  switch (E->kind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::FloatConst:
  case Expr::Kind::Var:
    break;
  case Expr::Kind::Load: {
    auto *L = cast<LoadExpr>(E.get());
    for (ExprPtr &I : L->indices())
      I = rewriteExpr(std::move(I), Fn);
    break;
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E.get());
    ExprPtr L = rewriteExpr(B->takeLhs(), Fn);
    ExprPtr R = rewriteExpr(B->takeRhs(), Fn);
    E = binary(B->op(), std::move(L), std::move(R));
    break;
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E.get());
    E = unary(U->op(), rewriteExpr(U->operand()->clone(), Fn));
    break;
  }
  case Expr::Kind::Compare: {
    auto *C = cast<CompareExpr>(E.get());
    E = compare(C->op(), rewriteExpr(C->lhs()->clone(), Fn),
                rewriteExpr(C->rhs()->clone(), Fn));
    break;
  }
  case Expr::Kind::Select: {
    auto *S = cast<SelectExpr>(E.get());
    E = select(rewriteExpr(S->cond()->clone(), Fn),
               rewriteExpr(S->trueValue()->clone(), Fn),
               rewriteExpr(S->falseValue()->clone(), Fn));
    break;
  }
  }
  if (ExprPtr Replacement = Fn(E.get()))
    return Replacement;
  return E;
}

void ir::rewriteExprsInStmt(Stmt *S,
                            const std::function<ExprPtr(const Expr *)> &Fn) {
  walkStmts(S, [&Fn](Stmt *Child) {
    switch (Child->kind()) {
    case Stmt::Kind::For: {
      auto *F = cast<ForStmt>(Child);
      F->setLo(rewriteExpr(F->lo()->clone(), Fn));
      return;
    }
    case Stmt::Kind::Store: {
      auto *St = cast<StoreStmt>(Child);
      for (ExprPtr &I : St->indices())
        I = rewriteExpr(std::move(I), Fn);
      St->setValue(rewriteExpr(St->takeValue(), Fn));
      return;
    }
    case Stmt::Kind::Decl: {
      auto *D = cast<DeclStmt>(Child);
      D->setInit(rewriteExpr(D->takeInit(), Fn));
      return;
    }
    case Stmt::Kind::AssignVar: {
      auto *A = cast<AssignVarStmt>(Child);
      A->setValue(rewriteExpr(A->takeValue(), Fn));
      return;
    }
    case Stmt::Kind::KernelCall: {
      auto *K = cast<KernelCallStmt>(Child);
      for (KernelBufArg &B : K->bufs())
        if (B.Offset)
          B.Offset = rewriteExpr(std::move(B.Offset), Fn);
      for (ExprPtr &E : K->exprArgs())
        E = rewriteExpr(std::move(E), Fn);
      return;
    }
    case Stmt::Kind::Block:
    case Stmt::Kind::TiledLoop:
    case Stmt::Kind::Barrier:
      return;
    }
    latteUnreachable("unknown statement kind");
  });
}

bool ir::evalConstInt(const Expr *E, int64_t &Out) {
  if (const auto *C = dyn_cast<IntConstExpr>(E)) {
    Out = C->value();
    return true;
  }
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    int64_t L, R;
    if (!evalConstInt(B->lhs(), L) || !evalConstInt(B->rhs(), R))
      return false;
    switch (B->op()) {
    case BinaryOpKind::Add:
      Out = L + R;
      return true;
    case BinaryOpKind::Sub:
      Out = L - R;
      return true;
    case BinaryOpKind::Mul:
      Out = L * R;
      return true;
    case BinaryOpKind::Div:
      if (R == 0)
        return false;
      Out = L / R;
      return true;
    case BinaryOpKind::Min:
      Out = std::min(L, R);
      return true;
    case BinaryOpKind::Max:
      Out = std::max(L, R);
      return true;
    }
  }
  return false;
}

namespace {

/// Variable-name bijection accumulated while comparing two trees.
class VarBijection {
public:
  bool match(const std::string &A, const std::string &B) {
    auto ItA = AtoB.find(A);
    auto ItB = BtoA.find(B);
    if (ItA == AtoB.end() && ItB == BtoA.end()) {
      AtoB[A] = B;
      BtoA[B] = A;
      return true;
    }
    return ItA != AtoB.end() && ItA->second == B && ItB != BtoA.end() &&
           ItB->second == A;
  }

private:
  std::unordered_map<std::string, std::string> AtoB, BtoA;
};

bool exprEquiv(const Expr *A, const Expr *B, VarBijection &Vars) {
  if (!A || !B)
    return A == B;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Expr::Kind::IntConst:
    return cast<IntConstExpr>(A)->value() == cast<IntConstExpr>(B)->value();
  case Expr::Kind::FloatConst:
    return cast<FloatConstExpr>(A)->value() ==
           cast<FloatConstExpr>(B)->value();
  case Expr::Kind::Var:
    return Vars.match(cast<VarExpr>(A)->name(), cast<VarExpr>(B)->name());
  case Expr::Kind::Load: {
    const auto *LA = cast<LoadExpr>(A);
    const auto *LB = cast<LoadExpr>(B);
    if (LA->buffer() != LB->buffer() ||
        LA->indices().size() != LB->indices().size())
      return false;
    for (size_t I = 0; I != LA->indices().size(); ++I)
      if (!exprEquiv(LA->indices()[I].get(), LB->indices()[I].get(), Vars))
        return false;
    return true;
  }
  case Expr::Kind::Binary: {
    const auto *BA = cast<BinaryExpr>(A);
    const auto *BB = cast<BinaryExpr>(B);
    return BA->op() == BB->op() && exprEquiv(BA->lhs(), BB->lhs(), Vars) &&
           exprEquiv(BA->rhs(), BB->rhs(), Vars);
  }
  case Expr::Kind::Unary: {
    const auto *UA = cast<UnaryExpr>(A);
    const auto *UB = cast<UnaryExpr>(B);
    return UA->op() == UB->op() &&
           exprEquiv(UA->operand(), UB->operand(), Vars);
  }
  case Expr::Kind::Compare: {
    const auto *CA = cast<CompareExpr>(A);
    const auto *CB = cast<CompareExpr>(B);
    return CA->op() == CB->op() && exprEquiv(CA->lhs(), CB->lhs(), Vars) &&
           exprEquiv(CA->rhs(), CB->rhs(), Vars);
  }
  case Expr::Kind::Select: {
    const auto *SA = cast<SelectExpr>(A);
    const auto *SB = cast<SelectExpr>(B);
    return exprEquiv(SA->cond(), SB->cond(), Vars) &&
           exprEquiv(SA->trueValue(), SB->trueValue(), Vars) &&
           exprEquiv(SA->falseValue(), SB->falseValue(), Vars);
  }
  }
  return false;
}

bool stmtEquiv(const Stmt *A, const Stmt *B, VarBijection &Vars) {
  if (!A || !B)
    return A == B;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Stmt::Kind::Block: {
    const auto *BA = cast<BlockStmt>(A);
    const auto *BB = cast<BlockStmt>(B);
    if (BA->stmts().size() != BB->stmts().size())
      return false;
    for (size_t I = 0; I != BA->stmts().size(); ++I)
      if (!stmtEquiv(BA->stmts()[I].get(), BB->stmts()[I].get(), Vars))
        return false;
    return true;
  }
  case Stmt::Kind::For: {
    const auto *FA = cast<ForStmt>(A);
    const auto *FB = cast<ForStmt>(B);
    return FA->extent() == FB->extent() &&
           Vars.match(FA->var(), FB->var()) &&
           exprEquiv(FA->lo(), FB->lo(), Vars) &&
           stmtEquiv(FA->body(), FB->body(), Vars);
  }
  case Stmt::Kind::TiledLoop: {
    const auto *TA = cast<TiledLoopStmt>(A);
    const auto *TB = cast<TiledLoopStmt>(B);
    return TA->numTiles() == TB->numTiles() &&
           TA->tileSize() == TB->tileSize() &&
           Vars.match(TA->tileVar(), TB->tileVar()) &&
           stmtEquiv(TA->body(), TB->body(), Vars);
  }
  case Stmt::Kind::Store: {
    const auto *SA = cast<StoreStmt>(A);
    const auto *SB = cast<StoreStmt>(B);
    if (SA->buffer() != SB->buffer() || SA->op() != SB->op() ||
        SA->indices().size() != SB->indices().size())
      return false;
    for (size_t I = 0; I != SA->indices().size(); ++I)
      if (!exprEquiv(SA->indices()[I].get(), SB->indices()[I].get(), Vars))
        return false;
    return exprEquiv(SA->value(), SB->value(), Vars);
  }
  case Stmt::Kind::Decl: {
    const auto *DA = cast<DeclStmt>(A);
    const auto *DB = cast<DeclStmt>(B);
    return Vars.match(DA->name(), DB->name()) &&
           exprEquiv(DA->init(), DB->init(), Vars);
  }
  case Stmt::Kind::AssignVar: {
    const auto *AA = cast<AssignVarStmt>(A);
    const auto *AB = cast<AssignVarStmt>(B);
    return AA->op() == AB->op() && Vars.match(AA->name(), AB->name()) &&
           exprEquiv(AA->value(), AB->value(), Vars);
  }
  case Stmt::Kind::KernelCall:
  case Stmt::Kind::Barrier:
    // Matching operates on pre-lowered neuron bodies; kernel calls and
    // barriers never appear there. Treat as non-equivalent conservatively.
    return false;
  }
  return false;
}

} // namespace

bool ir::stmtEquivalent(const Stmt *A, const Stmt *B) {
  VarBijection Vars;
  return stmtEquiv(A, B, Vars);
}
