//===- compiler/codegen_cpp.cpp -------------------------------*- C++ -*-===//

#include "compiler/codegen_cpp.h"

#include "jit/jit_abi.h"
#include "support/error.h"
#include "support/string_utils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace latte;
using namespace latte::compiler;
using namespace latte::ir;

namespace {

//===----------------------------------------------------------------------===//
// Task emission
//===----------------------------------------------------------------------===//
//
// One emitter renders the optimized IR for both outputs: the JIT module
// (generateJitSource) and the standalone program (generateCpp, the same
// translation unit plus the driver at the end of this file). It must
// reproduce engine::Executor::evalFloat / evalInt / execStmt BITWISE, so
// emission is two-context:
//
//  * Float context (store values, decl inits, if/select conditions,
//    compare operands): every intermediate is float, IntConst and loop
//    variables pass through an explicit (float) cast (evalFloat does the
//    same static_cast), float constants are hex literals of the
//    already-rounded float value (no decimal round-trip), and Min/Max use
//    std::min/std::max tie semantics (latte_jit_min/max below), which
//    differ from `A < B ? A : B` on ±0.0 ties.
//
//  * Int context (indices, offsets, loop bounds, kernel expr args):
//    int64_t arithmetic; C integer division matches evalInt.
//
// Parallel-annotated loops split into an explicit `if (LJ->par != 0)`
// branch pair because the interpreter's two paths differ observably: the
// parallel path copies the environment per iteration (outer float locals
// become per-iteration private copies whose writes are discarded), the
// serial path shares it. The parallel branch therefore snapshots every
// in-scope float local before the pragma and re-declares it inside the
// loop body — exact Env-copy semantics with or without OpenMP — while the
// serial branch reuses the enclosing locals directly. Loops nested inside
// a parallel branch are emitted serial outright, mirroring the
// interpreter's AllowParallel=false propagation.
//
// Kernel calls normally dispatch through the ctx trampoline: into the
// engine's library kernels in the JIT (the exact functions the interpreter
// runs), into the driver's kernel bodies in the standalone program. A
// whitelisted subset instead gets a SPECIALIZED CLONE emitted into the
// module: the library loop structure reproduced statement-for-statement
// with every shape argument a compile-time constant, so the system
// compiler can unroll the (tiny, now constant-bound) window loops and
// split away the padding checks that runtime-geometry library kernels
// re-test on every element. The whitelist is exactly the kernels whose
// float work is data movement, comparison, or plain addition in a fixed
// order — im2col/col2im, max pool, ReLU, bias adds, gather/scatter — for
// which any conforming compilation is bitwise identical to the library
// kernel: without fast-math the compiler may not reassociate, and no
// clone contains a multiply feeding an add, so -ffp-contract=off vs the
// host library's contraction setting cannot matter either. Kernels where
// instruction selection can change results — Sgemm, softmax (libm +
// reductions), Row/ColSumAdd, average pooling, sigmoid/tanh — keep the
// trampoline.

class JitEmitter {
public:
  /// \p AllUnits emits a task for every unit, including the ones the JIT
  /// leaves to the engine; the standalone program has no engine to fall
  /// back to.
  JitEmitter(const Program &Prog, bool AllUnits)
      : Prog(Prog), AllUnits(AllUnits) {
    for (size_t I = 0; I < Prog.Buffers.size(); ++I)
      BufIndex[Prog.Buffers[I].Name] = I;
    for (size_t I = 0; I < Prog.IntBuffers.size(); ++I)
      IntBufIndex[Prog.IntBuffers[I].Name] = I;
  }

  JitSource run();

private:
  void prologue();
  void emitPass(const Stmt *Root, char PassTag, std::vector<JitTaskInfo> &Out);
  void emitTask(const Stmt *Unit, const std::string &Symbol);
  bool jittable(const Stmt *S) const;
  void collectLoadStoreBuffers(const Stmt *S,
                               std::set<std::string> &Names) const;
  void collectExprBuffers(const Expr *E, std::set<std::string> &Names) const;

  void emitStmt(const Stmt *S, int Indent);
  void emitFor(const ForStmt *F, int Indent);
  void emitKernel(const KernelCallStmt *K, int Indent);
  std::string specializedKernel(const KernelCallStmt *K);
  void emitSpecBody(KernelKind Kind, const std::vector<int64_t> &IA);
  std::string floatExpr(const Expr *E) const;
  std::string intExpr(const Expr *E) const;
  std::string elemRef(const std::string &Buffer,
                      const std::vector<ExprPtr> &Indices) const;

  std::vector<std::string> visibleLocals() const {
    std::vector<std::string> Out;
    for (const std::vector<std::string> &Scope : Scopes)
      Out.insert(Out.end(), Scope.begin(), Scope.end());
    return Out;
  }

  void line(int Indent, const std::string &Text) {
    for (int I = 0; I < Indent; ++I)
      OS << "  ";
    OS << Text << "\n";
  }

  const Program &Prog;
  const bool AllUnits;
  std::ostringstream OS;
  /// Specialized kernel clones: (kind, int args) signature -> emitted
  /// function name. SpecOS accumulates their definitions in first-use
  /// order (deterministic); run() splices them ahead of the task bodies.
  std::map<std::string, std::string> SpecCache;
  std::ostringstream SpecOS;
  int SpecCounter = 0;
  std::unordered_map<std::string, size_t> BufIndex;
  std::unordered_map<std::string, size_t> IntBufIndex;
  /// C-visible float locals, one vector per open brace scope.
  std::vector<std::vector<std::string>> Scopes;
  /// True while emitting inside either branch of a parallel split: inner
  /// parallel annotations are ignored (interpreter: AllowParallel=false in
  /// parallel iterations; and in the serial branch par is 0 at runtime).
  bool InParallelBody = false;
  int Counter = 0;
};

/// Hex literal of the float the interpreter would hold — exact, no
/// decimal round-trip ("%.9g" can double-round through parsing).
std::string jitFloatLit(double V) {
  float F = static_cast<float>(V);
  if (std::isinf(F))
    return F < 0 ? "(-INFINITY)" : "INFINITY";
  return formatString("%a", static_cast<double>(F)) + "f";
}

std::string jitDoubleLit(double V) {
  if (std::isinf(V))
    return V < 0 ? "(-INFINITY)" : "INFINITY";
  return formatString("%a", V);
}

std::string JitEmitter::intExpr(const Expr *E) const {
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    // Cast keeps latte_jit_min/max template deduction unambiguous against
    // int64_t operands and forces 64-bit division semantics.
    return "(int64_t)" + std::to_string(cast<IntConstExpr>(E)->value());
  case Expr::Kind::Var:
    return cast<VarExpr>(E)->name();
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    std::string L = intExpr(B->lhs()), R = intExpr(B->rhs());
    switch (B->op()) {
    case BinaryOpKind::Add:
      return "(" + L + " + " + R + ")";
    case BinaryOpKind::Sub:
      return "(" + L + " - " + R + ")";
    case BinaryOpKind::Mul:
      return "(" + L + " * " + R + ")";
    case BinaryOpKind::Div:
      return "(" + L + " / " + R + ")";
    case BinaryOpKind::Min:
      return "latte_jit_min(" + L + ", " + R + ")";
    case BinaryOpKind::Max:
      return "latte_jit_max(" + L + ", " + R + ")";
    }
    latteUnreachable("unknown binary op");
  }
  default:
    // evalInt would fault at runtime; an undeclared identifier turns this
    // into a compile error and a clean interpreter fallback instead.
    return "latte_jit_non_integer_expr";
  }
}

std::string JitEmitter::elemRef(const std::string &Buffer,
                                const std::vector<ExprPtr> &Indices) const {
  const BufferInfo *B = Prog.findBuffer(Buffer);
  assert(B && "load/store of unknown buffer");
  std::vector<int64_t> Strides = B->Dims.strides();
  assert(Indices.size() == Strides.size() && "index rank mismatch");
  std::string Off = "(int64_t)0";
  for (size_t I = 0; I < Indices.size(); ++I)
    Off += " + " + intExpr(Indices[I].get()) + " * (int64_t)" +
           std::to_string(Strides[I]);
  return Buffer + "[" + Off + "]";
}

std::string JitEmitter::floatExpr(const Expr *E) const {
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    // evalFloat: static_cast<float>(value) — same exact conversion here.
    return "((float)(" + std::to_string(cast<IntConstExpr>(E)->value()) +
           "))";
  case Expr::Kind::FloatConst:
    return jitFloatLit(cast<FloatConstExpr>(E)->value());
  case Expr::Kind::Var:
    // No-op on float locals; the exact evalFloat int->float conversion on
    // loop variables. Keeping the cast on the leaf (rather than around a
    // whole subexpression) preserves per-operation rounding.
    return "((float)" + cast<VarExpr>(E)->name() + ")";
  case Expr::Kind::Load: {
    const auto *L = cast<LoadExpr>(E);
    return elemRef(L->buffer(), L->indices());
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    std::string L = floatExpr(B->lhs()), R = floatExpr(B->rhs());
    switch (B->op()) {
    case BinaryOpKind::Add:
      return "(" + L + " + " + R + ")";
    case BinaryOpKind::Sub:
      return "(" + L + " - " + R + ")";
    case BinaryOpKind::Mul:
      return "(" + L + " * " + R + ")";
    case BinaryOpKind::Div:
      return "(" + L + " / " + R + ")";
    case BinaryOpKind::Min:
      return "latte_jit_min(" + L + ", " + R + ")";
    case BinaryOpKind::Max:
      return "latte_jit_max(" + L + ", " + R + ")";
    }
    latteUnreachable("unknown binary op");
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    std::string V = floatExpr(U->operand());
    switch (U->op()) {
    case UnaryOpKind::Neg:
      return "(-" + V + ")";
    case UnaryOpKind::Exp:
      return "std::exp(" + V + ")";
    case UnaryOpKind::Log:
      return "std::log(" + V + ")";
    case UnaryOpKind::Tanh:
      return "std::tanh(" + V + ")";
    case UnaryOpKind::Sigmoid:
      return "(1.0f / (1.0f + std::exp(-(" + V + "))))";
    case UnaryOpKind::Sqrt:
      return "std::sqrt(" + V + ")";
    case UnaryOpKind::Abs:
      return "std::fabs(" + V + ")";
    }
    latteUnreachable("unknown unary op");
  }
  case Expr::Kind::Compare: {
    const auto *C = cast<CompareExpr>(E);
    static const char *Ops[] = {"<", "<=", ">", ">=", "==", "!="};
    return "((" + floatExpr(C->lhs()) + " " + Ops[static_cast<int>(C->op())] +
           " " + floatExpr(C->rhs()) + ") ? 1.0f : 0.0f)";
  }
  case Expr::Kind::Select: {
    const auto *S = cast<SelectExpr>(E);
    return "(((" + floatExpr(S->cond()) + ") != 0.0f) ? (" +
           floatExpr(S->trueValue()) + ") : (" +
           floatExpr(S->falseValue()) + "))";
  }
  }
  latteUnreachable("unknown expression kind");
}

bool JitEmitter::jittable(const Stmt *S) const {
  if (!S)
    return true;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      if (!jittable(Child.get()))
        return false;
    return true;
  case Stmt::Kind::For:
    return jittable(cast<ForStmt>(S)->body());
  case Stmt::Kind::TiledLoop:
    return jittable(cast<TiledLoopStmt>(S)->body());
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    return jittable(If->thenStmt()) && jittable(If->elseStmt());
  }
  case Stmt::Kind::KernelCall: {
    const auto *K = cast<KernelCallStmt>(S);
    // Dropout draws from the engine's RNG stream; the grad-sync hook needs
    // the buffer's NAME, which the resolved trampoline ABI has dropped.
    if (K->kernel() == KernelKind::DropoutMask ||
        K->kernel() == KernelKind::GradSyncHook)
      return false;
    return K->bufs().size() <= static_cast<size_t>(jit::kMaxKernelBufs) &&
           K->exprArgs().size() <=
               static_cast<size_t>(jit::kMaxKernelExprArgs);
  }
  case Stmt::Kind::Store:
  case Stmt::Kind::Decl:
  case Stmt::Kind::AssignVar:
  case Stmt::Kind::Barrier:
    return true;
  }
  latteUnreachable("unknown statement kind");
}

void JitEmitter::collectExprBuffers(const Expr *E,
                                    std::set<std::string> &Names) const {
  switch (E->kind()) {
  case Expr::Kind::Load: {
    const auto *L = cast<LoadExpr>(E);
    Names.insert(L->buffer());
    for (const ExprPtr &I : L->indices())
      collectExprBuffers(I.get(), Names);
    return;
  }
  case Expr::Kind::Binary:
    collectExprBuffers(cast<BinaryExpr>(E)->lhs(), Names);
    collectExprBuffers(cast<BinaryExpr>(E)->rhs(), Names);
    return;
  case Expr::Kind::Unary:
    collectExprBuffers(cast<UnaryExpr>(E)->operand(), Names);
    return;
  case Expr::Kind::Compare:
    collectExprBuffers(cast<CompareExpr>(E)->lhs(), Names);
    collectExprBuffers(cast<CompareExpr>(E)->rhs(), Names);
    return;
  case Expr::Kind::Select:
    collectExprBuffers(cast<SelectExpr>(E)->cond(), Names);
    collectExprBuffers(cast<SelectExpr>(E)->trueValue(), Names);
    collectExprBuffers(cast<SelectExpr>(E)->falseValue(), Names);
    return;
  default:
    return;
  }
}

void JitEmitter::collectLoadStoreBuffers(const Stmt *S,
                                         std::set<std::string> &Names) const {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      collectLoadStoreBuffers(Child.get(), Names);
    return;
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    collectExprBuffers(F->lo(), Names);
    collectLoadStoreBuffers(F->body(), Names);
    return;
  }
  case Stmt::Kind::TiledLoop:
    collectLoadStoreBuffers(cast<TiledLoopStmt>(S)->body(), Names);
    return;
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    collectExprBuffers(If->cond(), Names);
    collectLoadStoreBuffers(If->thenStmt(), Names);
    collectLoadStoreBuffers(If->elseStmt(), Names);
    return;
  }
  case Stmt::Kind::Store: {
    const auto *St = cast<StoreStmt>(S);
    Names.insert(St->buffer());
    for (const ExprPtr &I : St->indices())
      collectExprBuffers(I.get(), Names);
    collectExprBuffers(St->value(), Names);
    return;
  }
  case Stmt::Kind::Decl:
    collectExprBuffers(cast<DeclStmt>(S)->init(), Names);
    return;
  case Stmt::Kind::AssignVar:
    collectExprBuffers(cast<AssignVarStmt>(S)->value(), Names);
    return;
  case Stmt::Kind::KernelCall: {
    // Kernel buffer args go through LJ->bufs indices, not named aliases;
    // only offset / expr-arg expressions could name buffers via loads.
    const auto *K = cast<KernelCallStmt>(S);
    for (const KernelBufArg &A : K->bufs())
      if (A.Offset)
        collectExprBuffers(A.Offset.get(), Names);
    for (const ExprPtr &E : K->exprArgs())
      collectExprBuffers(E.get(), Names);
    return;
  }
  case Stmt::Kind::Barrier:
    return;
  }
  latteUnreachable("unknown statement kind");
}

/// Returns the name of the specialized clone for \p K, emitting its
/// definition into SpecOS on first use — or "" when the kernel must keep
/// the engine trampoline (see the whitelist rationale in the file header
/// comment above JitEmitter).
std::string JitEmitter::specializedKernel(const KernelCallStmt *K) {
  KernelKind Kind = K->kernel();
  switch (Kind) {
  case KernelKind::Zero:
  case KernelKind::Copy:
  case KernelKind::AddTo:
  case KernelKind::Gather2D:
  case KernelKind::ScatterAdd2D:
  case KernelKind::BiasAddCols:
  case KernelKind::BiasAddPerRow:
  case KernelKind::Im2ColRows:
  case KernelKind::Col2ImRows:
  case KernelKind::MaxPoolFwdRows:
  case KernelKind::MaxPoolBwdRows:
    break;
  case KernelKind::ActFwdCols:
    // ReLU forward is a max pattern; sigmoid/tanh go through libm and the
    // trampoline. ReLU *backward* stays on the trampoline too: its gated
    // accumulate is exactly the shape -fno-tree-loop-if-convert (see
    // jit_backend.cpp baseFlags) leaves scalar, so the library's
    // vectorized build wins.
    if (K->intArgs().empty() ||
        static_cast<ActOpKind>(K->intArgs()[0]) != ActOpKind::Relu)
      return "";
    break;
  default:
    return "";
  }
  std::string Key = std::to_string(static_cast<int64_t>(Kind));
  for (int64_t V : K->intArgs())
    Key += ":" + std::to_string(V);
  auto It = SpecCache.find(Key);
  if (It != SpecCache.end())
    return It->second;
  std::string Name = "latte_jit_spec_" + std::to_string(SpecCounter++);
  SpecCache.emplace(Key, Name);
  SpecOS << "static void " << Name
         << "(float *const *FB, int32_t *const *IB, const int64_t *EA) {\n"
            "  (void)IB; (void)EA;\n";
  emitSpecBody(Kind, K->intArgs());
  SpecOS << "}\n\n";
  return Name;
}

/// The clone bodies. Each reproduces the corresponding library kernel
/// (src/kernels/) statement-for-statement — same loop order, same
/// comparison and accumulation sequence — with the IA shape arguments
/// substituted as integer literals. Buffer pointers arrive pre-offset in
/// FB/IB exactly as execKernelResolved would see them; EA carries the
/// runtime row/column window origin.
void JitEmitter::emitSpecBody(KernelKind Kind,
                              const std::vector<int64_t> &IA) {
  std::ostringstream &O = SpecOS;
  auto N = [](int64_t V) { return std::to_string(V); };
  switch (Kind) {
  case KernelKind::Zero:
    O << "  std::memset(FB[0], 0, " << N(IA[0]) << " * sizeof(float));\n";
    return;
  case KernelKind::Copy:
    O << "  std::memcpy(FB[0], FB[1], " << N(IA[0])
      << " * sizeof(float));\n";
    return;
  case KernelKind::AddTo:
    O << "  float *Dst = FB[0];\n"
         "  const float *Src = FB[1];\n"
         "  for (int64_t I = 0; I < "
      << N(IA[0]) << "; ++I)\n    Dst[I] += Src[I];\n";
    return;
  case KernelKind::Gather2D:
    O << "  float *Dst = FB[0];\n"
         "  const float *Src = FB[1];\n"
         "  const int32_t *Table = IB[2];\n"
         "  const int64_t Cb = EA[0];\n"
         "  for (int64_t R = 0; R < "
      << N(IA[0]) << "; ++R) {\n    float *D = Dst + R * " << N(IA[1])
      << " + Cb;\n    const int32_t *T = Table + R * " << N(IA[1])
      << " + Cb;\n    for (int64_t I = 0; I < " << N(IA[2])
      << "; ++I) {\n      const int32_t Idx = T[I];\n"
         "      D[I] = Idx >= 0 ? Src[Idx] : 0.0f;\n    }\n  }\n";
    return;
  case KernelKind::ScatterAdd2D:
    O << "  float *Dst = FB[0];\n"
         "  const float *Src = FB[1];\n"
         "  const int32_t *Table = IB[2];\n"
         "  const int64_t Cb = EA[0];\n"
         "  for (int64_t R = 0; R < "
      << N(IA[0]) << "; ++R) {\n    const float *S = Src + R * " << N(IA[1])
      << " + Cb;\n    const int32_t *T = Table + R * " << N(IA[1])
      << " + Cb;\n    for (int64_t I = 0; I < " << N(IA[2])
      << "; ++I) {\n      const int32_t Idx = T[I];\n"
         "      if (Idx >= 0)\n        Dst[Idx] += S[I];\n    }\n  }\n";
    return;
  case KernelKind::ActFwdCols:
    // IA: {Op(=Relu), Rows, Cols, ColCount}; EA: {ColBegin}
    O << "  float *Dst = FB[0];\n"
         "  const float *Src = FB[1];\n"
         "  const int64_t Cb = EA[0];\n"
         "  for (int64_t R = 0; R < "
      << N(IA[1]) << "; ++R) {\n    float *D = Dst + R * " << N(IA[2])
      << " + Cb;\n    const float *S = Src + R * " << N(IA[2])
      << " + Cb;\n    for (int64_t I = 0; I < " << N(IA[3])
      << "; ++I)\n      D[I] = S[I] > 0.0f ? S[I] : 0.0f;\n  }\n";
    return;
  case KernelKind::BiasAddCols:
    // IA: {Rows, Cols, ColCount}; EA: {ColBegin}
    O << "  float *Dst = FB[0];\n"
         "  const float *Bias = FB[1];\n"
         "  const int64_t Cb = EA[0];\n"
         "  for (int64_t R = 0; R < "
      << N(IA[0]) << "; ++R) {\n    float *D = Dst + R * " << N(IA[1])
      << " + Cb;\n    const float B = Bias[R];\n"
         "    for (int64_t I = 0; I < "
      << N(IA[2]) << "; ++I)\n      D[I] += B;\n  }\n";
    return;
  case KernelKind::BiasAddPerRow:
    O << "  float *Dst = FB[0];\n"
         "  const float *Bias = FB[1];\n"
         "  for (int64_t R = 0; R < "
      << N(IA[0]) << "; ++R) {\n    float *D = Dst + R * " << N(IA[1])
      << ";\n    for (int64_t I = 0; I < " << N(IA[1])
      << "; ++I)\n      D[I] += Bias[I];\n  }\n";
    return;
  case KernelKind::Im2ColRows:
  case KernelKind::Col2ImRows: {
    // IA: {C, H, W, K, S, Pad, RowCount}; EA: {RowBegin}.
    //
    // The library loops guard every element against the padding border.
    // Those conditionals are position-dependent, so with every shape
    // constant they resolve at emission time: each (KY, KX) slice gets a
    // precomputed valid Y/X window, a check-free interior loop (a plain
    // strided copy / accumulate the host compiler vectorizes without
    // if-conversion), and explicit zero-fill (im2col) or skip (col2im)
    // borders. Values, visit set, and accumulation order all match the
    // library kernel — the split only removes comparisons whose outcome
    // is known here.
    int64_t C = IA[0], H = IA[1], W = IA[2], K = IA[3], S = IA[4],
            P = IA[5], RC = IA[6];
    int64_t OutH = (H + 2 * P - K) / S + 1;
    int64_t OutW = (W + 2 * P - K) / S + 1;
    bool Fwd = Kind == KernelKind::Im2ColRows;
    auto CeilDiv = [](int64_t A, int64_t B) {
      return A <= 0 ? int64_t(0) : (A + B - 1) / B;
    };
    O << "  const int64_t Rb = EA[0];\n"
      << (Fwd ? "  float *Col = FB[0];\n  const float *Image = FB[1];\n"
              : "  float *Image = FB[0];\n  const float *Col = FB[1];\n")
      << "  const int64_t Re = Rb + " << N(RC)
      << ";\n"
         "  for (int64_t C = 0; C < "
      << N(C) << "; ++C) {\n"
      << (Fwd ? "    const float *Chan = Image + C * "
              : "    float *Chan = Image + C * ")
      << N(H * W) << ";\n";
    for (int64_t KY = 0; KY < K; ++KY) {
      for (int64_t KX = 0; KX < K; ++KX) {
        // Output positions whose input index stays in bounds:
        // 0 <= Y*S - P + KY < H  (and the same for X with KX).
        int64_t YLo = std::min(OutH, CeilDiv(P - KY, S));
        int64_t YHi = H - 1 + P - KY >= 0
                          ? std::min(OutH, (H - 1 + P - KY) / S + 1)
                          : YLo;
        int64_t XLo = std::min(OutW, CeilDiv(P - KX, S));
        int64_t XHi = W - 1 + P - KX >= 0
                          ? std::min(OutW, (W - 1 + P - KX) / S + 1)
                          : XLo;
        YHi = std::max(YHi, YLo);
        XHi = std::max(XHi, XLo);
        O << "    { // KY=" << KY << " KX=" << KX << "\n"
          << (Fwd ? "      float *ColRow = Col + (C * "
                  : "      const float *ColRow = Col + (C * ")
          << N(K * K) << " + " << N(KY * K + KX) << ") * " << N(OutH * OutW)
          << ";\n"
             "      const int64_t Y0 = Rb > "
          << N(YLo) << " ? Rb : " << N(YLo)
          << ";\n"
             "      const int64_t Y1 = Re < "
          << N(YHi) << " ? Re : " << N(YHi) << ";\n";
        if (Fwd)
          O << "      const int64_t He = Y0 < Re ? Y0 : Re;\n"
               "      for (int64_t Y = Rb; Y < He; ++Y)\n"
               "        for (int64_t X = 0; X < "
            << N(OutW) << "; ++X)\n          ColRow[Y * " << N(OutW)
            << " + X] = 0.0f;\n";
        O << "      for (int64_t Y = Y0; Y < Y1; ++Y) {\n";
        if (Fwd) {
          O << "        const float *Src = Chan + (Y * " << N(S) << " + "
            << N(KY - P) << ") * " << N(W)
            << ";\n"
               "        for (int64_t X = 0; X < "
            << N(XLo) << "; ++X)\n          ColRow[Y * " << N(OutW)
            << " + X] = 0.0f;\n"
               "        for (int64_t X = "
            << N(XLo) << "; X < " << N(XHi) << "; ++X)\n          ColRow[Y * "
            << N(OutW) << " + X] = Src[X * " << N(S) << " + " << N(KX - P)
            << "];\n"
               "        for (int64_t X = "
            << N(XHi) << "; X < " << N(OutW) << "; ++X)\n          ColRow[Y * "
            << N(OutW) << " + X] = 0.0f;\n";
        } else {
          O << "        float *Dst = Chan + (Y * " << N(S) << " + "
            << N(KY - P) << ") * " << N(W)
            << ";\n"
               "        for (int64_t X = "
            << N(XLo) << "; X < " << N(XHi) << "; ++X)\n          Dst[X * "
            << N(S) << " + " << N(KX - P) << "] += ColRow[Y * " << N(OutW)
            << " + X];\n";
        }
        O << "      }\n";
        if (Fwd)
          O << "      const int64_t Te = Y1 > He ? Y1 : He;\n"
               "      for (int64_t Y = Te; Y < Re; ++Y)\n"
               "        for (int64_t X = 0; X < "
            << N(OutW) << "; ++X)\n          ColRow[Y * " << N(OutW)
            << " + X] = 0.0f;\n";
        O << "    }\n";
      }
    }
    O << "  }\n";
    return;
  }
  case KernelKind::MaxPoolFwdRows: {
    // IA: {C, H, W, K, S, Pad, RowCount}; EA: {RowBegin}. Same split idea
    // as im2col: outputs whose pooling window lies fully inside the image
    // get an unrolled check-free compare chain (window offsets are
    // compile-time constants here); border outputs run the
    // library-identical guarded loops. Each output is written
    // independently and window elements are visited in the library's
    // KY-then-KX order, so results are bitwise identical.
    int64_t C = IA[0], H = IA[1], W = IA[2], K = IA[3], S = IA[4],
            P = IA[5], RC = IA[6];
    int64_t OutH = (H + 2 * P - K) / S + 1;
    int64_t OutW = (W + 2 * P - K) / S + 1;
    auto CeilDiv = [](int64_t A, int64_t B) {
      return A <= 0 ? int64_t(0) : (A + B - 1) / B;
    };
    // Full-window outputs: 0 <= Y*S - P and Y*S - P + K - 1 < H.
    int64_t YF0 = std::min(OutH, CeilDiv(P, S));
    int64_t YF1 =
        H + P - K >= 0 ? std::min(OutH, (H + P - K) / S + 1) : YF0;
    YF1 = std::max(YF1, YF0);
    int64_t XF0 = std::min(OutW, CeilDiv(P, S));
    int64_t XF1 =
        W + P - K >= 0 ? std::min(OutW, (W + P - K) / S + 1) : XF0;
    XF1 = std::max(XF1, XF0);
    // Emits the guarded per-output loop over X in [XA, XB), inside an
    // enclosing Y loop. Identical to the library body.
    auto CheckedX = [&](const std::string &XA, const std::string &XB) {
      O << "        for (int64_t X = " << XA << "; X < " << XB
        << "; ++X) {\n"
           "          float Max = -INFINITY;\n"
           "          int64_t ArgMax = -1;\n"
           "          for (int64_t KY = 0; KY < "
        << N(K) << "; ++KY) {\n            const int64_t InY = Y * " << N(S)
        << " - " << N(P) << " + KY;\n            if (InY < 0 || InY >= "
        << N(H) << ")\n              continue;\n"
           "            for (int64_t KX = 0; KX < "
        << N(K) << "; ++KX) {\n              const int64_t InX = X * "
        << N(S) << " - " << N(P) << " + KX;\n              if (InX < 0 || "
        << "InX >= " << N(W) << ")\n                continue;\n"
           "              const float V = Chan[InY * "
        << N(W) << " + InX];\n              if (V > Max) {\n"
           "                Max = V;\n                ArgMax = C * "
        << N(H * W) << " + InY * " << N(W) << " + InX;\n              }\n"
           "            }\n          }\n          const int64_t Out = (C * "
        << N(OutH) << " + Y) * " << N(OutW) << " + X;\n"
           "          Output[Out] = Max;\n"
           "          if (Mask)\n"
           "            Mask[Out] = static_cast<int32_t>(ArgMax);\n"
           "        }\n";
    };
    O << "  const int64_t Rb = EA[0];\n"
         "  float *Output = FB[0];\n"
         "  const float *Input = FB[1];\n"
         "  int32_t *Mask = IB[2];\n"
         "  const int64_t Re = Rb + "
      << N(RC)
      << ";\n"
         "  for (int64_t C = 0; C < "
      << N(C) << "; ++C) {\n    const float *Chan = Input + C * " << N(H * W)
      << ";\n"
         "    const int64_t Y0 = Rb > "
      << N(YF0) << " ? Rb : " << N(YF0)
      << ";\n"
         "    const int64_t Y1 = Re < "
      << N(YF1) << " ? Re : " << N(YF1)
      << ";\n"
         "    const int64_t He = Y0 < Re ? Y0 : Re;\n"
         "    for (int64_t Y = Rb; Y < He; ++Y) {\n";
    CheckedX("0", N(OutW));
    O << "    }\n"
         "    for (int64_t Y = Y0; Y < Y1; ++Y) {\n";
    CheckedX("0", N(XF0));
    O << "        const int64_t InY0 = Y * " << N(S) << " + " << N(-P)
      << ";\n"
         "        for (int64_t X = "
      << N(XF0) << "; X < " << N(XF1)
      << "; ++X) {\n"
         "          const float *Win = Chan + InY0 * "
      << N(W) << " + X * " << N(S) << " + " << N(-P)
      << ";\n"
         "          float Max = -INFINITY;\n"
         "          int64_t ArgMax = -1;\n";
    for (int64_t KY = 0; KY < K; ++KY)
      for (int64_t KX = 0; KX < K; ++KX)
        O << "          { const float V = Win[" << N(KY * W + KX)
          << "];\n            if (V > Max) {\n              Max = V;\n"
             "              ArgMax = C * "
          << N(H * W) << " + (InY0 + " << N(KY) << ") * " << N(W)
          << " + X * " << N(S) << " + " << N(KX - P)
          << ";\n            } }\n";
    O << "          const int64_t Out = (C * " << N(OutH) << " + Y) * "
      << N(OutW)
      << " + X;\n"
         "          Output[Out] = Max;\n"
         "          if (Mask)\n"
         "            Mask[Out] = static_cast<int32_t>(ArgMax);\n"
         "        }\n";
    CheckedX(N(XF1), N(OutW));
    O << "    }\n"
         "    const int64_t Te = Y1 > He ? Y1 : He;\n"
         "    for (int64_t Y = Te; Y < Re; ++Y) {\n";
    CheckedX("0", N(OutW));
    O << "    }\n  }\n";
    return;
  }
  case KernelKind::MaxPoolBwdRows: {
    // IA: {C, H, W, K, S, Pad, RowCount}; EA: {RowBegin}. Mask-driven
    // scatter accumulate; data-dependent, so no split — the clone only
    // bakes the trip counts.
    int64_t H = IA[1], W = IA[2], K = IA[3], S = IA[4], P = IA[5];
    int64_t OutH = (H + 2 * P - K) / S + 1;
    int64_t OutW = (W + 2 * P - K) / S + 1;
    O << "  const int64_t Rb = EA[0];\n"
         "  float *InputGrad = FB[0];\n"
         "  const float *OutputGrad = FB[1];\n"
         "  const int32_t *Mask = IB[2];\n"
         "  for (int64_t C = 0; C < "
      << N(IA[0]) << "; ++C) {\n    for (int64_t Y = Rb; Y < Rb + "
      << N(IA[6]) << "; ++Y) {\n      const int64_t Row = (C * " << N(OutH)
      << " + Y) * " << N(OutW) << ";\n      for (int64_t X = 0; X < "
      << N(OutW) << "; ++X)\n        if (Mask[Row + X] >= 0)\n"
         "          InputGrad[Mask[Row + X]] += OutputGrad[Row + X];\n"
         "    }\n  }\n";
    return;
  }
  default:
    latteUnreachable("kernel kind has no specialized clone");
  }
}

void JitEmitter::emitKernel(const KernelCallStmt *K, int Indent) {
  uint32_t IntMask = jit::kernelIntBufMask(K->kernel());
  line(Indent, "{");
  line(Indent + 1,
       "float *FB[" + std::to_string(jit::kMaxKernelBufs) +
           "] = {nullptr, nullptr, nullptr, nullptr};");
  line(Indent + 1,
       "int32_t *IB[" + std::to_string(jit::kMaxKernelBufs) +
           "] = {nullptr, nullptr, nullptr, nullptr};");
  for (size_t I = 0; I < K->bufs().size(); ++I) {
    const KernelBufArg &A = K->bufs()[I];
    std::string Off =
        A.Offset ? " + (" + intExpr(A.Offset.get()) + ")" : "";
    if (IntMask & (1u << I)) {
      auto It = IntBufIndex.find(A.Buffer);
      assert(It != IntBufIndex.end() && "unknown int buffer in kernel call");
      line(Indent + 1, "IB[" + std::to_string(I) + "] = LJ->ibufs[" +
                           std::to_string(It->second) + "]" + Off + "; // " +
                           A.Buffer);
    } else {
      auto It = BufIndex.find(A.Buffer);
      assert(It != BufIndex.end() && "unknown buffer in kernel call");
      line(Indent + 1, "FB[" + std::to_string(I) + "] = LJ->bufs[" +
                           std::to_string(It->second) + "]" + Off + "; // " +
                           A.Buffer);
    }
  }
  std::vector<std::string> Parts;
  std::string Spec = specializedKernel(K);
  if (Spec.empty()) {
    // Empty C arrays are illegal; pad with one zero entry.
    for (int64_t V : K->intArgs())
      Parts.push_back(std::to_string(V));
    if (Parts.empty())
      Parts.push_back("0");
    line(Indent + 1, "static const int64_t IA_[] = {" + join(Parts, ", ") +
                         "};");
    Parts.clear();
    for (double V : K->floatArgs())
      Parts.push_back(jitDoubleLit(V));
    if (Parts.empty())
      Parts.push_back("0");
    line(Indent + 1, "static const double FA_[] = {" + join(Parts, ", ") +
                         "};");
    Parts.clear();
  }
  for (const ExprPtr &E : K->exprArgs())
    Parts.push_back(intExpr(E.get()));
  if (Parts.empty())
    Parts.push_back("0");
  line(Indent + 1, "const int64_t EA_[] = {" + join(Parts, ", ") + "};");
  if (!Spec.empty())
    // Shape constants are baked into the clone; only pointers and the
    // runtime window origin cross the call.
    line(Indent + 1, Spec + "(FB, IB, EA_);");
  else
    line(Indent + 1,
         "LJ->kernel(LJ->self, " +
             std::to_string(static_cast<int64_t>(K->kernel())) +
             ", FB, IB, IA_, FA_, EA_);");
  line(Indent, "}");
}

void JitEmitter::emitFor(const ForStmt *F, int Indent) {
  int Id = Counter++;
  std::string Lo = "_lo" + std::to_string(Id);
  line(Indent, "const int64_t " + Lo + " = " + intExpr(F->lo()) + ";");
  std::string Var = F->var();
  std::string Bound =
      Lo + " + (int64_t)" + std::to_string(F->extent());
  auto SerialHeader = [&](int Ind) {
    line(Ind, "for (int64_t " + Var + " = " + Lo + "; " + Var + " < " +
                  Bound + "; ++" + Var + ") {");
  };

  bool Par = F->annotations().Parallel && !InParallelBody;
  const TiledLoopStmt *Collapsed = nullptr;
  if (Par && F->annotations().Collapse == 2)
    if (const auto *Body = dyn_cast<BlockStmt>(F->body()))
      if (Body->stmts().size() == 1)
        Collapsed = dyn_cast<TiledLoopStmt>(Body->stmts()[0].get());

  auto EmitBody = [&](const Stmt *Body, int Ind) {
    bool Saved = InParallelBody;
    InParallelBody = InParallelBody || Par;
    Scopes.emplace_back();
    emitStmt(Body, Ind);
    Scopes.pop_back();
    InParallelBody = Saved;
  };
  // Opens the `LJ->par != 0` branch: snapshots every in-scope float local
  // ahead of the pragma; Privatize re-declares them inside the parallel
  // loop (the interpreter's Env copy).
  std::vector<std::string> Snaps;
  auto OpenParallel = [&]() {
    Snaps = visibleLocals();
    line(Indent, "if (LJ->par != 0) {");
    for (const std::string &V : Snaps)
      line(Indent + 1, "const float _snap" + std::to_string(Id) + "_" + V +
                           " = " + V + ";");
    line(Indent + 1, "#pragma omp parallel for schedule(static, 1)");
  };
  auto Privatize = [&](int Ind) {
    for (const std::string &V : Snaps)
      line(Ind,
           "float " + V + " = _snap" + std::to_string(Id) + "_" + V + ";");
  };

  if (Par && Collapsed) {
    // Interpreter collapsed path: flatten batch x tile; iteration order of
    // the flattened loop equals the nested serial order, so the serial
    // branch below keeps the nested form.
    int64_t Tiles = Collapsed->numTiles();
    int64_t Total = F->extent() * Tiles;
    std::string Lf = "_lf" + std::to_string(Id);
    OpenParallel();
    line(Indent + 1, "for (int64_t " + Lf + " = 0; " + Lf + " < (int64_t)" +
                         std::to_string(Total) + "; ++" + Lf + ") {");
    line(Indent + 2, "int64_t " + Var + " = " + Lo + " + " + Lf +
                         " / (int64_t)" + std::to_string(Tiles) + ";");
    line(Indent + 2, "int64_t " + Collapsed->tileVar() + " = " + Lf +
                         " % (int64_t)" + std::to_string(Tiles) + ";");
    // Per-iteration Env copy: fresh private float locals each iteration.
    Privatize(Indent + 2);
    line(Indent + 2, "{");
    EmitBody(Collapsed->body(), Indent + 3);
    line(Indent + 2, "}");
    line(Indent + 1, "}");
    line(Indent, "} else {");
    SerialHeader(Indent + 1);
    line(Indent + 2, "for (int64_t " + Collapsed->tileVar() + " = 0; " +
                         Collapsed->tileVar() + " < (int64_t)" +
                         std::to_string(Tiles) + "; ++" +
                         Collapsed->tileVar() + ") {");
    EmitBody(Collapsed->body(), Indent + 3);
    line(Indent + 2, "}");
    line(Indent + 1, "}");
    line(Indent, "}");
    return;
  }

  if (Par && F->extent() > 1) {
    OpenParallel();
    SerialHeader(Indent + 1);
    Privatize(Indent + 2);
    line(Indent + 2, "{");
    EmitBody(F->body(), Indent + 3);
    line(Indent + 2, "}");
    line(Indent + 1, "}");
    line(Indent, "} else {");
    SerialHeader(Indent + 1);
    EmitBody(F->body(), Indent + 2);
    line(Indent + 1, "}");
    line(Indent, "}");
    return;
  }

  SerialHeader(Indent);
  Scopes.emplace_back();
  emitStmt(F->body(), Indent + 1);
  Scopes.pop_back();
  line(Indent, "}");
}

void JitEmitter::emitStmt(const Stmt *S, int Indent) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block: {
    const auto *B = cast<BlockStmt>(S);
    if (!B->label().empty())
      line(Indent, "// " + B->label());
    // No braces: interpreter Decls outlive their Block (matches
    // generateCpp's treatment).
    for (const StmtPtr &Child : B->stmts())
      emitStmt(Child.get(), Indent);
    return;
  }
  case Stmt::Kind::For:
    emitFor(cast<ForStmt>(S), Indent);
    return;
  case Stmt::Kind::TiledLoop: {
    const auto *T = cast<TiledLoopStmt>(S);
    line(Indent, "for (int64_t " + T->tileVar() + " = 0; " + T->tileVar() +
                     " < (int64_t)" + std::to_string(T->numTiles()) + "; ++" +
                     T->tileVar() + ") {");
    Scopes.emplace_back();
    emitStmt(T->body(), Indent + 1);
    Scopes.pop_back();
    line(Indent, "}");
    return;
  }
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    line(Indent, "if ((" + floatExpr(If->cond()) + ") != 0.0f) {");
    Scopes.emplace_back();
    emitStmt(If->thenStmt(), Indent + 1);
    Scopes.pop_back();
    if (If->elseStmt()) {
      line(Indent, "} else {");
      Scopes.emplace_back();
      emitStmt(If->elseStmt(), Indent + 1);
      Scopes.pop_back();
    }
    line(Indent, "}");
    return;
  }
  case Stmt::Kind::Store: {
    const auto *St = cast<StoreStmt>(S);
    std::string Target = elemRef(St->buffer(), St->indices());
    std::string Value = floatExpr(St->value());
    switch (St->op()) {
    case AccumKind::Assign:
      line(Indent, Target + " = " + Value + ";");
      return;
    case AccumKind::AddAssign:
      line(Indent, Target + " += " + Value + ";");
      return;
    case AccumKind::MulAssign:
      line(Indent, Target + " *= " + Value + ";");
      return;
    case AccumKind::MaxAssign:
      line(Indent, Target + " = latte_jit_max(" + Target + ", " + Value +
                       ");");
      return;
    case AccumKind::MinAssign:
      line(Indent, Target + " = latte_jit_min(" + Target + ", " + Value +
                       ");");
      return;
    }
    latteUnreachable("unknown accumulation kind");
  }
  case Stmt::Kind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    line(Indent, "float " + D->name() + " = " + floatExpr(D->init()) + ";");
    if (!Scopes.empty())
      Scopes.back().push_back(D->name());
    return;
  }
  case Stmt::Kind::AssignVar: {
    const auto *A = cast<AssignVarStmt>(S);
    std::string Value = floatExpr(A->value());
    switch (A->op()) {
    case AccumKind::Assign:
      line(Indent, A->name() + " = " + Value + ";");
      return;
    case AccumKind::AddAssign:
      line(Indent, A->name() + " += " + Value + ";");
      return;
    case AccumKind::MulAssign:
      line(Indent, A->name() + " *= " + Value + ";");
      return;
    case AccumKind::MaxAssign:
      line(Indent, A->name() + " = latte_jit_max(" + A->name() + ", " +
                       Value + ");");
      return;
    case AccumKind::MinAssign:
      line(Indent, A->name() + " = latte_jit_min(" + A->name() + ", " +
                       Value + ");");
      return;
    }
    latteUnreachable("unknown accumulation kind");
  }
  case Stmt::Kind::KernelCall:
    emitKernel(cast<KernelCallStmt>(S), Indent);
    return;
  case Stmt::Kind::Barrier:
    line(Indent, "// fusion barrier: " + cast<BarrierStmt>(S)->reason());
    return;
  }
  latteUnreachable("unknown statement kind");
}

void JitEmitter::emitTask(const Stmt *Unit, const std::string &Symbol) {
  OS << "extern \"C\" void " << Symbol << "(LatteJitCtx *LJ) {\n"
     << "  (void)LJ;\n";
  // Named aliases for the buffers this unit loads/stores directly, in
  // Program declaration order (deterministic).
  std::set<std::string> Referenced;
  collectLoadStoreBuffers(Unit, Referenced);
  for (const BufferInfo &B : Prog.Buffers)
    if (Referenced.count(B.Name))
      OS << "  float *" << B.Name << " = LJ->bufs[" << BufIndex.at(B.Name)
         << "]; // " << B.Dims.str() << "\n";
  Scopes.clear();
  Scopes.emplace_back();
  InParallelBody = false;
  emitStmt(Unit, 1);
  OS << "}\n\n";
}

void JitEmitter::prologue() {
  OS << "// Latte JIT module: loop nests and kernel dispatch for one\n"
        "// compiled program. Reassociation-sensitive kernels execute in\n"
        "// the engine via the ctx trampoline; whitelisted data-movement\n"
        "// kernels run as shape-specialized clones below. Deterministic\n"
        "// emission (content-hashed for the on-disk module cache).\n"
        "#include <cmath>\n#include <cstdint>\n#include <cstring>\n\n";
  OS << jit::ctxStructSource();
  // std::min/std::max tie semantics (the interpreter's evalFloat and
  // applyAccum use std::min/std::max, which return the FIRST argument on
  // ties — observable with signed zeros).
  OS << "\ntemplate <typename T> static inline T latte_jit_min(T A, T B) "
        "{ return (B < A) ? B : A; }\n"
        "template <typename T> static inline T latte_jit_max(T A, T B) "
        "{ return (A < B) ? B : A; }\n\n"
        "extern \"C\" int64_t latte_jit_abi_version() { return "
     << jit::kLatteJitAbiVersion << "; }\n\n";
}

void JitEmitter::emitPass(const Stmt *Root, char PassTag,
                          std::vector<JitTaskInfo> &Out) {
  // Only a top-level Block decomposes into per-unit entry points; other
  // roots (hand-built test programs) take the interpreter wholesale.
  const auto *B = dyn_cast_if_present<const BlockStmt>(Root);
  if (!B)
    return;
  for (size_t I = 0; I < B->stmts().size(); ++I) {
    JitTaskInfo Info;
    if (AllUnits || jittable(B->stmts()[I].get())) {
      Info.Jittable = true;
      Info.Symbol =
          std::string("latte_task_") + PassTag + std::to_string(I);
      emitTask(B->stmts()[I].get(), Info.Symbol);
    }
    Out.push_back(std::move(Info));
  }
}

JitSource JitEmitter::run() {
  JitSource JS;
  prologue();
  std::string Prologue = OS.str();
  OS.str("");
  emitPass(Prog.Forward.get(), 'f', JS.Forward);
  emitPass(Prog.Backward.get(), 'b', JS.Backward);
  // Specialized kernel clones are discovered while the tasks are emitted
  // but must precede them in the translation unit.
  JS.Source = Prologue + SpecOS.str() + OS.str();
  return JS;
}

//===----------------------------------------------------------------------===//
// Standalone driver
//===----------------------------------------------------------------------===//
//
// generateCpp appends a driver to the task translation unit: static
// storage laid out by the memory plan, the LatteJitCtx the tasks read,
// bodies for the kernel kinds the task emitter does not clone, the pass
// functions, and a .ltd file main. The engine's kernels live in liblatte;
// the driver's plain loops keep the program one self-contained file (built
// with `g++ -O2 -fopenmp`, free of the library's sanitizer and OpenMP
// flags), so the standalone agrees with the engine within a tolerance
// rather than bitwise.

/// Kernel bodies behind the standalone trampoline. Inner loops carry omp
/// simd so the host compiler vectorizes them (the paper's vectorization
/// guarantee, §5.5).
const char *const kKernelBodies = R"cpp(
static void k_mul_into(float *D, const float *A, const float *B,
                       int64_t N) {
#pragma omp simd
  for (int64_t I = 0; I < N; ++I) D[I] = A[I] * B[I];
}
static void k_mul_add_to(float *D, const float *A, const float *B,
                         int64_t N) {
#pragma omp simd
  for (int64_t I = 0; I < N; ++I) D[I] += A[I] * B[I];
}
static void k_scale(float *D, float F, int64_t N) {
#pragma omp simd
  for (int64_t I = 0; I < N; ++I) D[I] *= F;
}
// IA: {M, N, K, LdA, LdB, LdC, TransA, TransB, Accumulate}
static void k_gemm(const float *A, const float *B, float *C,
                   const int64_t *IA) {
  const int64_t M = IA[0], N = IA[1], K = IA[2], LdA = IA[3], LdB = IA[4];
  for (int64_t I = 0; I < M; ++I) {
    float *Row = C + I * IA[5];
    if (!IA[8])
      for (int64_t J = 0; J < N; ++J) Row[J] = 0.0f;
    for (int64_t P = 0; P < K; ++P) {
      float AV = IA[6] ? A[P * LdA + I] : A[I * LdA + P];
      if (IA[7]) {
        for (int64_t J = 0; J < N; ++J) Row[J] += AV * B[J * LdB + P];
      } else {
        const float *BR = B + P * LdB;
#pragma omp simd
        for (int64_t J = 0; J < N; ++J) Row[J] += AV * BR[J];
      }
    }
  }
}
// IA: {Op, Rows, Cols, ColCount}; ReLU forward is cloned into the tasks.
static void k_act_fwd(float *D, const float *S, const int64_t *IA,
                      int64_t Cb) {
  for (int64_t R = 0; R < IA[1]; ++R)
    for (int64_t I = R * IA[2] + Cb; I < R * IA[2] + Cb + IA[3]; ++I)
      D[I] = IA[0] == 1 ? 1.0f / (1.0f + std::exp(-S[I])) : std::tanh(S[I]);
}
// IA: {Op, Rows, Cols, ColCount, InPlace}
static void k_act_bwd(float *Dg, const float *Og, const float *V,
                      const int64_t *IA, int64_t Cb) {
  for (int64_t R = 0; R < IA[1]; ++R)
    for (int64_t I = R * IA[2] + Cb; I < R * IA[2] + Cb + IA[3]; ++I) {
      float D = IA[0] == 0   ? (V[I] > 0.0f ? Og[I] : 0.0f)
                : IA[0] == 1 ? Og[I] * V[I] * (1.0f - V[I])
                             : Og[I] * (1.0f - V[I] * V[I]);
      Dg[I] = IA[4] ? D : Dg[I] + D;
    }
}
static void k_row_sum(float *D, const float *S, int64_t Rows, int64_t Cols) {
  for (int64_t R = 0; R < Rows; ++R) {
    float Sum = 0;
    for (int64_t I = 0; I < Cols; ++I) Sum += S[R * Cols + I];
    D[R] += Sum;
  }
}
static void k_col_sum(float *D, const float *S, int64_t Rows, int64_t Cols) {
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t I = 0; I < Cols; ++I) D[I] += S[R * Cols + I];
}
// IA: {C, H, W, K, S, Pad, RowCount}; Rb is the first output row.
static void k_avgpool_fwd(float *Out, const float *In, const int64_t *IA,
                          int64_t Rb) {
  const int64_t C = IA[0], H = IA[1], W = IA[2], K = IA[3], S = IA[4],
                P = IA[5];
  const int64_t OutH = (H + 2 * P - K) / S + 1, OutW = (W + 2 * P - K) / S + 1;
  const float Inv = 1.0f / (K * K);
  for (int64_t Ch = 0; Ch < C; ++Ch)
    for (int64_t Y = Rb; Y < Rb + IA[6]; ++Y)
      for (int64_t X = 0; X < OutW; ++X) {
        float Sum = 0;
        for (int64_t KY = 0; KY < K; ++KY)
          for (int64_t KX = 0; KX < K; ++KX) {
            int64_t IY = Y * S - P + KY, IX = X * S - P + KX;
            if (IY >= 0 && IY < H && IX >= 0 && IX < W)
              Sum += In[(Ch * H + IY) * W + IX];
          }
        Out[(Ch * OutH + Y) * OutW + X] = Sum * Inv;
      }
}
static void k_avgpool_bwd(float *InG, const float *OutG, const int64_t *IA,
                          int64_t Rb) {
  const int64_t C = IA[0], H = IA[1], W = IA[2], K = IA[3], S = IA[4],
                P = IA[5];
  const int64_t OutH = (H + 2 * P - K) / S + 1, OutW = (W + 2 * P - K) / S + 1;
  const float Inv = 1.0f / (K * K);
  for (int64_t Ch = 0; Ch < C; ++Ch)
    for (int64_t Y = Rb; Y < Rb + IA[6]; ++Y)
      for (int64_t X = 0; X < OutW; ++X) {
        float G = OutG[(Ch * OutH + Y) * OutW + X] * Inv;
        for (int64_t KY = 0; KY < K; ++KY)
          for (int64_t KX = 0; KX < K; ++KX) {
            int64_t IY = Y * S - P + KY, IX = X * S - P + KX;
            if (IY >= 0 && IY < H && IX >= 0 && IX < W)
              InG[(Ch * H + IY) * W + IX] += G;
          }
      }
}
static void k_softmax_row(float *D, const float *S, int64_t C) {
  float Max = S[0];
  for (int64_t I = 1; I < C; ++I) Max = latte_jit_max(Max, S[I]);
  float Sum = 0;
  for (int64_t I = 0; I < C; ++I) { D[I] = std::exp(S[I] - Max); Sum += D[I]; }
  for (int64_t I = 0; I < C; ++I) D[I] /= Sum;
}
static void k_softmax_fwd(float *D, const float *S, int64_t Rows,
                          int64_t C) {
  for (int64_t R = 0; R < Rows; ++R) k_softmax_row(D + R * C, S + R * C, C);
}
static void k_softmax_loss_fwd(float *Prob, const float *S,
                               const float *Lab, float *Loss, int64_t Rows,
                               int64_t C) {
  for (int64_t R = 0; R < Rows; ++R) {
    k_softmax_row(Prob + R * C, S + R * C, C);
    float P = Prob[R * C + (int64_t)Lab[R]];
    Loss[R] = -std::log(P < 1e-20f ? 1e-20f : P);
  }
}
static void k_softmax_loss_bwd(float *G, const float *Prob,
                               const float *Lab, int64_t Rows, int64_t C,
                               float Scale) {
  for (int64_t R = 0; R < Rows; ++R)
    for (int64_t I = 0; I < C; ++I)
      G[R * C + I] += (Prob[R * C + I] -
                       (I == (int64_t)Lab[R] ? 1.0f : 0.0f)) * Scale;
}
static void k_softmax_bwd(float *Gin, const float *Og, const float *P,
                          int64_t Rows, int64_t C) {
  for (int64_t R = 0; R < Rows; ++R) {
    float Dot = 0;
    for (int64_t I = 0; I < C; ++I) Dot += Og[R * C + I] * P[R * C + I];
    for (int64_t I = 0; I < C; ++I)
      Gin[R * C + I] += P[R * C + I] * (Og[R * C + I] - Dot);
  }
}
// The program's own mask stream (splitmix64), not the engine's RNG.
static uint64_t g_rng_state = 0x1a77e;
static void k_dropout_mask(float *Mask, int64_t N, float Keep) {
  for (int64_t I = 0; I < N; ++I) {
    g_rng_state += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = g_rng_state;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    Z ^= Z >> 31;
    double U = (double)(Z >> 11) / 9007199254740992.0;
    Mask[I] = U < Keep ? 1.0f / Keep : 0.0f;
  }
}
)cpp";

/// How the trampoline runs each kernel kind the task emitter does not
/// clone, on the resolved arguments (layouts in ir/stmt.h). Gradient
/// synchronization has nothing to synchronize with in one process.
const std::pair<KernelKind, const char *> kKernelCalls[] = {
    {KernelKind::MulInto, "k_mul_into(FB[0], FB[1], FB[2], IA[0])"},
    {KernelKind::MulAddTo, "k_mul_add_to(FB[0], FB[1], FB[2], IA[0])"},
    {KernelKind::Scale, "k_scale(FB[0], (float)FA[0], IA[0])"},
    {KernelKind::Sgemm, "k_gemm(FB[0], FB[1], FB[2], IA)"},
    {KernelKind::ActFwdCols, "k_act_fwd(FB[0], FB[1], IA, EA[0])"},
    {KernelKind::ActBwdCols, "k_act_bwd(FB[0], FB[1], FB[2], IA, EA[0])"},
    {KernelKind::RowSumAdd, "k_row_sum(FB[0], FB[1], IA[0], IA[1])"},
    {KernelKind::ColSumAdd, "k_col_sum(FB[0], FB[1], IA[0], IA[1])"},
    {KernelKind::AvgPoolFwdRows, "k_avgpool_fwd(FB[0], FB[1], IA, EA[0])"},
    {KernelKind::AvgPoolBwdRows, "k_avgpool_bwd(FB[0], FB[1], IA, EA[0])"},
    {KernelKind::SoftmaxFwd, "k_softmax_fwd(FB[0], FB[1], IA[0], IA[1])"},
    {KernelKind::SoftmaxLossFwd,
     "k_softmax_loss_fwd(FB[0], FB[1], FB[2], FB[3], IA[0], IA[1])"},
    {KernelKind::SoftmaxLossBwd,
     "k_softmax_loss_bwd(FB[0], FB[1], FB[2], IA[0], IA[1], (float)FA[0])"},
    {KernelKind::SoftmaxBwd,
     "k_softmax_bwd(FB[0], FB[1], FB[2], IA[0], IA[1])"},
    {KernelKind::DropoutMask, "k_dropout_mask(FB[0], IA[0], (float)FA[0])"},
    {KernelKind::GradSyncHook, ""},
};

/// The .ltd entry point: `./prog <in.ltd> <out.ltd> [fwd|fwdbwd]` loads
/// the named buffers it is given, runs the passes and writes every buffer
/// back. Malformed input exits 1, as support/ltd_format.cpp rejects it.
const char *const kLtdMain = R"cpp(
[[noreturn]] static void latte_bad_input(const char *Path,
                                         const std::string &Why) {
  std::fprintf(stderr, "latte: %s: %s\n", Path, Why.c_str());
  std::exit(1);
}
static const size_t kNumNamed = sizeof(latte_named) / sizeof(latte_named[0]);
static void readLtd(const char *Path) {
  FILE *F = std::fopen(Path, "rb");
  if (!F)
    latte_bad_input(Path, "cannot open for reading");
  char Magic[4];
  uint32_t Count = 0;
  if (std::fread(Magic, 1, 4, F) != 4 || std::memcmp(Magic, "LTD1", 4) ||
      std::fread(&Count, 4, 1, F) != 1)
    latte_bad_input(Path, "not a valid .ltd file (bad header)");
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t NameLen = 0, Rank = 0;
    if (std::fread(&NameLen, 4, 1, F) != 1 || NameLen > (1u << 20))
      latte_bad_input(Path, "corrupt tensor name length");
    std::string Name(NameLen, '\0');
    if (std::fread(&Name[0], 1, NameLen, F) != NameLen ||
        std::fread(&Rank, 4, 1, F) != 1 || Rank > 16)
      latte_bad_input(Path, "corrupt tensor record " + std::to_string(I));
    int64_t N = 1;
    for (uint32_t D = 0; D < Rank; ++D) {
      int64_t Dim = 0;
      if (std::fread(&Dim, 8, 1, F) != 1 || Dim < 0 ||
          (Dim > 0 && N > INT64_MAX / 4 / Dim))
        latte_bad_input(Path, "corrupt dimension in " + Name);
      N *= Dim;
    }
    float *Dst = nullptr;
    for (size_t B = 0; B < kNumNamed; ++B) {
      if (Name != latte_named[B].Name)
        continue;
      if (latte_named[B].N != N)
        latte_bad_input(Path, Name + ": " + std::to_string(N) +
                                  " elements, expected " +
                                  std::to_string(latte_named[B].N));
      Dst = latte_bufs[B];
    }
    // An entry this program does not name is read past, a chunk at a time.
    float Chunk[1024];
    for (int64_t Left = N; Left > 0;) {
      const int64_t Part = Dst ? Left : Left < 1024 ? Left : 1024;
      if (std::fread(Dst ? Dst : Chunk, 4, Part, F) != (size_t)Part)
        latte_bad_input(Path, "truncated data for " + Name);
      Left -= Part;
    }
  }
  std::fclose(F);
}
static bool writeLtd(const char *Path) {
  FILE *F = std::fopen(Path, "wb");
  if (!F)
    return false;
  const uint32_t Count = kNumNamed, Rank = 1;
  bool Ok = std::fwrite("LTD1", 1, 4, F) == 4 &&
            std::fwrite(&Count, 4, 1, F) == 1;
  for (size_t B = 0; B < kNumNamed && Ok; ++B) {
    const uint32_t NameLen = (uint32_t)std::strlen(latte_named[B].Name);
    const int64_t N = latte_named[B].N;
    Ok = std::fwrite(&NameLen, 4, 1, F) == 1 &&
         std::fwrite(latte_named[B].Name, 1, NameLen, F) == NameLen &&
         std::fwrite(&Rank, 4, 1, F) == 1 && std::fwrite(&N, 8, 1, F) == 1 &&
         std::fwrite(latte_bufs[B], 4, N, F) == (size_t)N;
  }
  return std::fclose(F) == 0 && Ok;
}

int main(int Argc, char **Argv) {
  if (Argc < 3) {
    std::fprintf(stderr, "usage: %s <in.ltd> <out.ltd> [fwd|fwdbwd]\n",
                 Argv[0]);
    return 2;
  }
  readLtd(Argv[1]);
  latte_forward();
  if (Argc < 4 || std::string(Argv[3]) == "fwdbwd")
    latte_backward();
  if (!writeLtd(Argv[2])) {
    std::fprintf(stderr, "latte: cannot write %s\n", Argv[2]);
    return 1;
  }
  return 0;
}
)cpp";

/// Renders the driver for \p Prog, whose task entry points \p JS names.
std::string standaloneDriver(const Program &Prog, const JitSource &JS) {
  const MemoryPlan &Plan = Prog.Plan;
  if (!Plan.Valid)
    reportFatalError("generateCpp: the program has no memory plan (build "
                     "it with compile(), which always plans its arena)");
  std::ostringstream OS;
  OS << "// --- standalone driver ---\n"
        "#include <cstdio>\n#include <cstdlib>\n#include <string>\n\n";

  // One arena carved up by the liveness-driven memory plan; buffers whose
  // live ranges are disjoint share bytes.
  OS << "// buffer arena (liveness-planned: " << Plan.ArenaBytes
     << " bytes vs " << Plan.EagerBytes << " eager)\n"
     << "alignas(" << Plan.Alignment << ") static float latte_arena["
     << std::max<int64_t>(Plan.ArenaBytes / 4, 1) << "];\n"
     << "static float *latte_bufs[] = {\n";
  for (const BufferInfo &B : Prog.Buffers)
    OS << "  latte_arena + "
       << Plan.Offsets.at(Prog.resolveAlias(B.Name)->Name) / 4 << ", // "
       << B.Name << " " << B.Dims.str()
       << (B.AliasOf.empty() ? "" : " alias of " + B.AliasOf) << "\n";
  OS << "};\n\n// index tables and masks\n";
  for (size_t I = 0; I < Prog.IntBuffers.size(); ++I) {
    const IntBufferInfo &T = Prog.IntBuffers[I];
    OS << "static int32_t latte_ib" << I << "["
       << std::max<int64_t>(T.isStatic() ? T.Entries.size() : T.Count, 1)
       << "] = {";
    for (size_t E = 0; E < T.Entries.size(); ++E)
      OS << (E % 16 == 0 ? "\n  " : "") << T.Entries[E] << ",";
    OS << "}; // " << T.Name << "\n";
  }
  // nullptr-terminated, so never an empty array.
  OS << "static int32_t *latte_ibufs[] = {";
  for (size_t I = 0; I < Prog.IntBuffers.size(); ++I)
    OS << "latte_ib" << I << ", ";
  OS << "nullptr};\n\n";

  OS << "// kernels the tasks reach through LatteJitCtx::kernel"
     << kKernelBodies
     << "static void latte_kernel(void *, int64_t Kind, float **FB, "
        "int32_t **,\n                         const int64_t *IA, const "
        "double *FA, const int64_t *EA) {\n  switch (Kind) {\n";
  for (const auto &[Kind, Call] : kKernelCalls) {
    OS << "  case " << static_cast<int64_t>(Kind) << ": // "
       << kernelKindName(Kind) << "\n";
    if (*Call)
      OS << "    " << Call << ";\n";
    OS << "    return;\n";
  }
  OS << "  }\n  std::fprintf(stderr, \"latte: no kernel body for kind "
        "%lld\\n\", (long long)Kind);\n  std::abort();\n}\n\n"
        "static LatteJitCtx latte_ctx = {nullptr, latte_bufs, latte_ibufs, "
        "1, latte_kernel};\n\n";

  // Each pass clears its pinned roots at the top and every interval root
  // right before its first unit (the plan's ZeroBefore schedule), as
  // engine::Executor::execProgram does, then runs the tasks in order.
  auto Pass = [&](const char *Name, const Stmt *Root,
                  const std::vector<JitTaskInfo> &Tasks,
                  const std::vector<std::string> &PassTop, int GlobalBase) {
    if (Root && !isa<BlockStmt>(Root))
      reportFatalError(std::string("generateCpp: the ") + Name +
                       " pass is not a block of units");
    auto Zero = [&](const std::string &Buf) {
      const BufferInfo *B = Prog.findBuffer(Buf);
      OS << "  std::memset(latte_bufs[" << B - Prog.Buffers.data() << "], 0, "
         << B->Dims.numElements() << " * sizeof(float)); // " << Buf << "\n";
    };
    OS << "void " << Name << "() {\n";
    for (const std::string &Buf : PassTop)
      Zero(Buf);
    for (size_t I = 0; I < Tasks.size(); ++I) {
      auto It = Plan.ZeroBefore.find(GlobalBase + static_cast<int>(I));
      if (It != Plan.ZeroBefore.end())
        for (const std::string &Buf : It->second)
          Zero(Buf);
      OS << "  " << Tasks[I].Symbol << "(&latte_ctx);\n";
    }
    OS << "}\n\n";
  };
  Pass("latte_forward", Prog.Forward.get(), JS.Forward,
       Plan.ZeroOnForwardPinned, 0);
  Pass("latte_backward", Prog.Backward.get(), JS.Backward,
       Plan.ZeroOnBackwardPinned, Plan.NumForwardUnits);

  OS << "// .ltd names, parallel to latte_bufs\n"
        "static const struct { const char *Name; int64_t N; } "
        "latte_named[] = {\n";
  for (const BufferInfo &B : Prog.Buffers)
    OS << "  {\"" << B.Name << "\", " << B.Dims.numElements() << "},\n";
  OS << "};\n" << kLtdMain;
  return OS.str();
}

} // namespace

std::string compiler::generateCpp(const Program &Prog) {
  JitSource JS = JitEmitter(Prog, /*AllUnits=*/true).run();
  return JS.Source + standaloneDriver(Prog, JS);
}

JitSource compiler::generateJitSource(const Program &Prog) {
  return JitEmitter(Prog, /*AllUnits=*/false).run();
}

bool compiler::writeGeneratedProgram(const Program &Prog,
                                     const std::string &Path) {
  std::string Source = generateCpp(Prog);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Source.data(), 1, Source.size(), F) == Source.size();
  std::fclose(F);
  return Ok;
}
