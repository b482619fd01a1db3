//===- ir/ast.cpp - Clone implementations and kernel names ----*- C++ -*-===//

#include "ir/expr.h"
#include "ir/stmt.h"

#include "support/error.h"

using namespace latte;
using namespace latte::ir;

Expr::~Expr() = default;
Stmt::~Stmt() = default;

namespace {

std::vector<ExprPtr> cloneAll(const std::vector<ExprPtr> &Exprs) {
  std::vector<ExprPtr> Result;
  Result.reserve(Exprs.size());
  for (const ExprPtr &E : Exprs)
    Result.push_back(E->clone());
  return Result;
}

} // namespace

ExprPtr IntConstExpr::clone() const {
  return std::make_unique<IntConstExpr>(Value);
}

ExprPtr FloatConstExpr::clone() const {
  return std::make_unique<FloatConstExpr>(Value);
}

ExprPtr VarExpr::clone() const { return std::make_unique<VarExpr>(Name); }

ExprPtr LoadExpr::clone() const {
  return std::make_unique<LoadExpr>(Buffer, cloneAll(Indices));
}

ExprPtr BinaryExpr::clone() const {
  return std::make_unique<BinaryExpr>(Op, LHS->clone(), RHS->clone());
}

ExprPtr UnaryExpr::clone() const {
  return std::make_unique<UnaryExpr>(Op, Operand->clone());
}

ExprPtr CompareExpr::clone() const {
  return std::make_unique<CompareExpr>(Op, LHS->clone(), RHS->clone());
}

ExprPtr SelectExpr::clone() const {
  return std::make_unique<SelectExpr>(Cond->clone(), TrueValue->clone(),
                                      FalseValue->clone());
}

StmtPtr BlockStmt::clone() const {
  std::vector<StmtPtr> NewStmts;
  NewStmts.reserve(Stmts.size());
  for (const StmtPtr &S : Stmts)
    NewStmts.push_back(S->clone());
  return std::make_unique<BlockStmt>(std::move(NewStmts), Label);
}

StmtPtr ForStmt::clone() const {
  auto New =
      std::make_unique<ForStmt>(Var, Lo->clone(), Extent, Body->clone());
  New->Annotations = Annotations;
  return New;
}

StmtPtr TiledLoopStmt::clone() const {
  auto New = std::make_unique<TiledLoopStmt>(
      TileVar, OrigVar, NumTiles, TileSize, DependenceDistance, Body->clone());
  New->Annotations = Annotations;
  return New;
}

StmtPtr StoreStmt::clone() const {
  return std::make_unique<StoreStmt>(Buffer, cloneAll(Indices), Op,
                                     Value->clone());
}

StmtPtr DeclStmt::clone() const {
  return std::make_unique<DeclStmt>(Name, Init->clone());
}

StmtPtr AssignVarStmt::clone() const {
  return std::make_unique<AssignVarStmt>(Name, Op, Value->clone());
}

StmtPtr KernelCallStmt::clone() const {
  std::vector<KernelBufArg> NewBufs;
  NewBufs.reserve(Bufs.size());
  for (const KernelBufArg &B : Bufs)
    NewBufs.push_back(B.clone());
  return std::make_unique<KernelCallStmt>(Kernel, std::move(NewBufs), IntArgs,
                                          FloatArgs, cloneAll(ExprArgs));
}

StmtPtr BarrierStmt::clone() const {
  return std::make_unique<BarrierStmt>(Reason);
}

const char *latte::ir::kernelKindName(KernelKind K) {
  switch (K) {
  case KernelKind::Zero:
    return "zero";
  case KernelKind::Copy:
    return "copy";
  case KernelKind::AddTo:
    return "add_to";
  case KernelKind::MulInto:
    return "mul_into";
  case KernelKind::MulAddTo:
    return "mul_add_to";
  case KernelKind::Scale:
    return "scale";
  case KernelKind::Sgemm:
    return "sgemm";
  case KernelKind::Gather2D:
    return "gather2d";
  case KernelKind::ScatterAdd2D:
    return "scatter_add2d";
  case KernelKind::ActFwdCols:
    return "act_fwd";
  case KernelKind::ActBwdCols:
    return "act_bwd";
  case KernelKind::BiasAddCols:
    return "bias_add_cols";
  case KernelKind::BiasAddPerRow:
    return "bias_add_per_row";
  case KernelKind::RowSumAdd:
    return "row_sum_add";
  case KernelKind::ColSumAdd:
    return "col_sum_add";
  case KernelKind::Im2ColRows:
    return "im2col";
  case KernelKind::Col2ImRows:
    return "col2im";
  case KernelKind::MaxPoolFwdRows:
    return "max_pool_fwd";
  case KernelKind::MaxPoolBwdRows:
    return "max_pool_bwd";
  case KernelKind::AvgPoolFwdRows:
    return "avg_pool_fwd";
  case KernelKind::AvgPoolBwdRows:
    return "avg_pool_bwd";
  case KernelKind::SoftmaxFwd:
    return "softmax_fwd";
  case KernelKind::SoftmaxLossFwd:
    return "softmax_loss_fwd";
  case KernelKind::SoftmaxLossBwd:
    return "softmax_loss_bwd";
  case KernelKind::SoftmaxBwd:
    return "softmax_bwd";
  }
  latteUnreachable("unknown kernel kind");
}
