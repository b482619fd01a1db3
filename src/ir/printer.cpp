//===- ir/printer.cpp -----------------------------------------*- C++ -*-===//

#include "ir/printer.h"

#include "support/error.h"
#include "support/string_utils.h"

#include <charconv>
#include <sstream>

using namespace latte;
using namespace latte::ir;

namespace {

/// Shortest decimal form that parses back to the exact same double
/// (std::to_chars), independent of stream precision state and locale, so
/// printed IR is stable across runs and round-trips through clone/reprint.
/// Integral values keep a trailing ".0" to stay visually distinct from ints.
std::string formatFloat(double V) {
  char Buf[64];
  auto [Ptr, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  std::string Text(Buf, Ptr);
  if (Text.find('.') == std::string::npos &&
      Text.find('e') == std::string::npos &&
      Text.find("inf") == std::string::npos &&
      Text.find("nan") == std::string::npos)
    Text += ".0";
  return Text;
}

const char *binaryOpName(BinaryOpKind Op) {
  switch (Op) {
  case BinaryOpKind::Add:
    return "+";
  case BinaryOpKind::Sub:
    return "-";
  case BinaryOpKind::Mul:
    return "*";
  case BinaryOpKind::Div:
    return "/";
  case BinaryOpKind::Min:
    return "min";
  case BinaryOpKind::Max:
    return "max";
  }
  latteUnreachable("unknown binary op");
}

const char *unaryOpName(UnaryOpKind Op) {
  switch (Op) {
  case UnaryOpKind::Neg:
    return "-";
  case UnaryOpKind::Exp:
    return "exp";
  case UnaryOpKind::Log:
    return "log";
  case UnaryOpKind::Tanh:
    return "tanh";
  case UnaryOpKind::Sigmoid:
    return "sigmoid";
  case UnaryOpKind::Sqrt:
    return "sqrt";
  case UnaryOpKind::Abs:
    return "abs";
  }
  latteUnreachable("unknown unary op");
}

const char *compareOpName(CompareOpKind Op) {
  switch (Op) {
  case CompareOpKind::LT:
    return "<";
  case CompareOpKind::LE:
    return "<=";
  case CompareOpKind::GT:
    return ">";
  case CompareOpKind::GE:
    return ">=";
  case CompareOpKind::EQ:
    return "==";
  case CompareOpKind::NE:
    return "!=";
  }
  latteUnreachable("unknown compare op");
}

const char *accumOpName(AccumKind Op) {
  switch (Op) {
  case AccumKind::Assign:
    return "=";
  case AccumKind::AddAssign:
    return "+=";
  case AccumKind::MulAssign:
    return "*=";
  case AccumKind::MaxAssign:
    return "max=";
  case AccumKind::MinAssign:
    return "min=";
  }
  latteUnreachable("unknown accum kind");
}

std::string printIndexList(const std::vector<ExprPtr> &Indices) {
  std::vector<std::string> Parts;
  Parts.reserve(Indices.size());
  for (const ExprPtr &I : Indices)
    Parts.push_back(printExpr(I.get()));
  return join(Parts, ", ");
}

void printStmtImpl(const Stmt *S, int Indent, std::ostringstream &OS);

void indentTo(std::ostringstream &OS, int Indent) {
  for (int I = 0; I < Indent; ++I)
    OS << "  ";
}

} // namespace

std::string ir::printExpr(const Expr *E) {
  if (!E)
    return "<null>";
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    return std::to_string(cast<IntConstExpr>(E)->value());
  case Expr::Kind::FloatConst:
    return formatFloat(cast<FloatConstExpr>(E)->value());
  case Expr::Kind::Var:
    return cast<VarExpr>(E)->name();
  case Expr::Kind::Load: {
    const auto *L = cast<LoadExpr>(E);
    return L->buffer() + "[" + printIndexList(L->indices()) + "]";
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->op() == BinaryOpKind::Min || B->op() == BinaryOpKind::Max)
      return std::string(binaryOpName(B->op())) + "(" + printExpr(B->lhs()) +
             ", " + printExpr(B->rhs()) + ")";
    return "(" + printExpr(B->lhs()) + " " + binaryOpName(B->op()) + " " +
           printExpr(B->rhs()) + ")";
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->op() == UnaryOpKind::Neg)
      return "(-" + printExpr(U->operand()) + ")";
    return std::string(unaryOpName(U->op())) + "(" + printExpr(U->operand()) +
           ")";
  }
  case Expr::Kind::Compare: {
    const auto *C = cast<CompareExpr>(E);
    return "(" + printExpr(C->lhs()) + " " + compareOpName(C->op()) + " " +
           printExpr(C->rhs()) + ")";
  }
  case Expr::Kind::Select: {
    const auto *Sel = cast<SelectExpr>(E);
    return "select(" + printExpr(Sel->cond()) + ", " +
           printExpr(Sel->trueValue()) + ", " + printExpr(Sel->falseValue()) +
           ")";
  }
  }
  latteUnreachable("unknown expression kind");
}

namespace {

void printStmtImpl(const Stmt *S, int Indent, std::ostringstream &OS) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block: {
    const auto *B = cast<BlockStmt>(S);
    if (!B->label().empty()) {
      indentTo(OS, Indent);
      OS << "# " << B->label() << "\n";
    }
    for (const StmtPtr &Child : B->stmts())
      printStmtImpl(Child.get(), Indent, OS);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    indentTo(OS, Indent);
    OS << "for " << F->var() << " in " << printExpr(F->lo()) << ":+"
       << F->extent();
    if (F->annotations().Parallel) {
      OS << " parallel";
      if (F->annotations().Collapse > 1)
        OS << " collapse(" << F->annotations().Collapse << ")";
    }
    OS << "\n";
    printStmtImpl(F->body(), Indent + 1, OS);
    return;
  }
  case Stmt::Kind::TiledLoop: {
    const auto *T = cast<TiledLoopStmt>(S);
    indentTo(OS, Indent);
    OS << "tiled " << T->tileVar() << " in 0:" << T->numTiles() << " (var "
       << T->origVar() << ", tile " << T->tileSize() << ", dist "
       << T->dependenceDistance() << ")";
    if (T->annotations().Parallel)
      OS << " parallel";
    OS << "\n";
    printStmtImpl(T->body(), Indent + 1, OS);
    return;
  }
  case Stmt::Kind::Store: {
    const auto *St = cast<StoreStmt>(S);
    indentTo(OS, Indent);
    OS << St->buffer() << "[" << printIndexList(St->indices()) << "] "
       << accumOpName(St->op()) << " " << printExpr(St->value()) << "\n";
    return;
  }
  case Stmt::Kind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    indentTo(OS, Indent);
    OS << "let " << D->name() << " = " << printExpr(D->init()) << "\n";
    return;
  }
  case Stmt::Kind::AssignVar: {
    const auto *A = cast<AssignVarStmt>(S);
    indentTo(OS, Indent);
    OS << A->name() << " " << accumOpName(A->op()) << " "
       << printExpr(A->value()) << "\n";
    return;
  }
  case Stmt::Kind::KernelCall: {
    const auto *K = cast<KernelCallStmt>(S);
    indentTo(OS, Indent);
    OS << kernelKindName(K->kernel()) << "(";
    std::vector<std::string> Parts;
    for (const KernelBufArg &B : K->bufs()) {
      std::string Arg = B.Buffer;
      if (B.Offset)
        Arg += "+" + printExpr(B.Offset.get());
      Parts.push_back(std::move(Arg));
    }
    for (int64_t V : K->intArgs())
      Parts.push_back(std::to_string(V));
    for (const ExprPtr &E : K->exprArgs())
      Parts.push_back(printExpr(E.get()));
    for (double V : K->floatArgs())
      Parts.push_back(formatFloat(V));
    OS << join(Parts, ", ") << ")\n";
    return;
  }
  case Stmt::Kind::Barrier: {
    const auto *B = cast<BarrierStmt>(S);
    indentTo(OS, Indent);
    OS << "barrier";
    if (!B->reason().empty())
      OS << " # " << B->reason();
    OS << "\n";
    return;
  }
  }
  latteUnreachable("unknown statement kind");
}

} // namespace

std::string ir::printStmt(const Stmt *S) {
  std::ostringstream OS;
  printStmtImpl(S, 0, OS);
  return OS.str();
}
