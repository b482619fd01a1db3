//===- ir/visitor.h - IR traversal and rewriting ---------------*- C++ -*-===//
///
/// \file
/// Function-based traversal utilities over the IR. Passes typically use
/// walkStmts / walkExprs for analysis and rewriteExprs for local rewriting;
/// structural statement rewrites (tiling, fusion) manipulate BlockStmt
/// vectors directly.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_IR_VISITOR_H
#define LATTE_IR_VISITOR_H

#include "ir/expr.h"
#include "ir/stmt.h"

#include <functional>

namespace latte {
namespace ir {

/// Pre-order traversal of an expression tree.
void walkExprs(const Expr *E, const std::function<void(const Expr *)> &Fn);

/// Pre-order traversal of a statement tree (statements only).
void walkStmts(const Stmt *S, const std::function<void(const Stmt *)> &Fn);
void walkStmts(Stmt *S, const std::function<void(Stmt *)> &Fn);

/// Bottom-up expression rewriting: \p Fn is offered each node after its
/// children were rewritten; returning a non-null ExprPtr replaces the node.
ExprPtr rewriteExpr(ExprPtr E,
                    const std::function<ExprPtr(const Expr *)> &Fn);

/// Applies rewriteExpr to every expression position in the statement tree.
void rewriteExprsInStmt(Stmt *S,
                        const std::function<ExprPtr(const Expr *)> &Fn);

/// Attempts to evaluate \p E as an integer constant. Returns true and sets
/// \p Out on success.
bool evalConstInt(const Expr *E, int64_t &Out);

/// Alpha-equivalence of statement trees: structural equality modulo a
/// consistent renaming of loop/local variables. This is the comparison the
/// pattern-matching pass uses to recognize canonical neuron bodies
/// regardless of the variable names the user chose.
bool stmtEquivalent(const Stmt *A, const Stmt *B);

} // namespace ir
} // namespace latte

#endif // LATTE_IR_VISITOR_H
