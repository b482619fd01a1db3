//===- ir/builder.h - Convenience constructors for the IR -----*- C++ -*-===//
///
/// \file
/// Free functions for building IR trees tersely. Neuron forward/backward
/// definitions (paper §4) and the synthesis phase both use these.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_IR_BUILDER_H
#define LATTE_IR_BUILDER_H

#include "ir/expr.h"
#include "ir/stmt.h"

namespace latte {
namespace ir {

inline ExprPtr intConst(int64_t V) {
  return std::make_unique<IntConstExpr>(V);
}

inline ExprPtr floatConst(double V) {
  return std::make_unique<FloatConstExpr>(V);
}

inline ExprPtr var(std::string Name) {
  return std::make_unique<VarExpr>(std::move(Name));
}

inline ExprPtr load(std::string Buffer, std::vector<ExprPtr> Indices) {
  return std::make_unique<LoadExpr>(std::move(Buffer), std::move(Indices));
}

inline ExprPtr binary(BinaryOpKind Op, ExprPtr L, ExprPtr R) {
  return std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R));
}

inline ExprPtr add(ExprPtr L, ExprPtr R) {
  return binary(BinaryOpKind::Add, std::move(L), std::move(R));
}
inline ExprPtr sub(ExprPtr L, ExprPtr R) {
  return binary(BinaryOpKind::Sub, std::move(L), std::move(R));
}
inline ExprPtr mul(ExprPtr L, ExprPtr R) {
  return binary(BinaryOpKind::Mul, std::move(L), std::move(R));
}
inline ExprPtr div(ExprPtr L, ExprPtr R) {
  return binary(BinaryOpKind::Div, std::move(L), std::move(R));
}
inline ExprPtr max(ExprPtr L, ExprPtr R) {
  return binary(BinaryOpKind::Max, std::move(L), std::move(R));
}
inline ExprPtr min(ExprPtr L, ExprPtr R) {
  return binary(BinaryOpKind::Min, std::move(L), std::move(R));
}

inline ExprPtr unary(UnaryOpKind Op, ExprPtr E) {
  return std::make_unique<UnaryExpr>(Op, std::move(E));
}

inline ExprPtr neg(ExprPtr E) { return unary(UnaryOpKind::Neg, std::move(E)); }
inline ExprPtr exp(ExprPtr E) { return unary(UnaryOpKind::Exp, std::move(E)); }
inline ExprPtr tanh(ExprPtr E) {
  return unary(UnaryOpKind::Tanh, std::move(E));
}
inline ExprPtr sigmoid(ExprPtr E) {
  return unary(UnaryOpKind::Sigmoid, std::move(E));
}

inline ExprPtr compare(CompareOpKind Op, ExprPtr L, ExprPtr R) {
  return std::make_unique<CompareExpr>(Op, std::move(L), std::move(R));
}

inline ExprPtr select(ExprPtr Cond, ExprPtr T, ExprPtr F) {
  return std::make_unique<SelectExpr>(std::move(Cond), std::move(T),
                                      std::move(F));
}

inline StmtPtr block(std::vector<StmtPtr> Stmts = {}, std::string Label = "") {
  return std::make_unique<BlockStmt>(std::move(Stmts), std::move(Label));
}

inline StmtPtr forLoop(std::string Var, int64_t Extent, StmtPtr Body) {
  return std::make_unique<ForStmt>(std::move(Var), intConst(0), Extent,
                                   std::move(Body));
}

inline StmtPtr forLoopFrom(std::string Var, ExprPtr Lo, int64_t Extent,
                           StmtPtr Body) {
  return std::make_unique<ForStmt>(std::move(Var), std::move(Lo), Extent,
                                   std::move(Body));
}

inline StmtPtr store(std::string Buffer, std::vector<ExprPtr> Indices,
                     AccumKind Op, ExprPtr Value) {
  return std::make_unique<StoreStmt>(std::move(Buffer), std::move(Indices), Op,
                                     std::move(Value));
}

inline StmtPtr storeAssign(std::string Buffer, std::vector<ExprPtr> Indices,
                           ExprPtr Value) {
  return store(std::move(Buffer), std::move(Indices), AccumKind::Assign,
               std::move(Value));
}

inline StmtPtr storeAdd(std::string Buffer, std::vector<ExprPtr> Indices,
                        ExprPtr Value) {
  return store(std::move(Buffer), std::move(Indices), AccumKind::AddAssign,
               std::move(Value));
}

inline StmtPtr decl(std::string Name, ExprPtr Init) {
  return std::make_unique<DeclStmt>(std::move(Name), std::move(Init));
}

inline StmtPtr assignVar(std::string Name, AccumKind Op, ExprPtr Value) {
  return std::make_unique<AssignVarStmt>(std::move(Name), Op,
                                         std::move(Value));
}

/// Builds a vector of move-only KernelBufArg values (braced initializer
/// lists would require copies).
template <typename... Args> std::vector<KernelBufArg> bufArgs(Args &&...A) {
  std::vector<KernelBufArg> V;
  V.reserve(sizeof...(A));
  (V.push_back(std::move(A)), ...);
  return V;
}

/// Likewise for vectors of expressions (index lists).
template <typename... Args> std::vector<ExprPtr> indexList(Args &&...A) {
  std::vector<ExprPtr> V;
  V.reserve(sizeof...(A));
  (V.push_back(std::move(A)), ...);
  return V;
}

inline StmtPtr kernelCall(KernelKind Kernel, std::vector<KernelBufArg> Bufs,
                          std::vector<int64_t> IntArgs,
                          std::vector<double> FloatArgs = {},
                          std::vector<ExprPtr> ExprArgs = {}) {
  return std::make_unique<KernelCallStmt>(
      Kernel, std::move(Bufs), std::move(IntArgs), std::move(FloatArgs),
      std::move(ExprArgs));
}

inline StmtPtr barrier(std::string Reason = "") {
  return std::make_unique<BarrierStmt>(std::move(Reason));
}

} // namespace ir
} // namespace latte

#endif // LATTE_IR_BUILDER_H
