//===- compiler/codegen_cpp.cpp -------------------------------*- C++ -*-===//

#include "compiler/codegen_cpp.h"

#include "jit/jit_abi.h"
#include "support/error.h"
#include "support/string_utils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
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
//  * Float context (store values, decl inits, select conditions,
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
// A parallel-annotated loop is emitted once, under `#pragma omp parallel
// for schedule(static, 1) if (LJ->par != 0)`: the engine sets par to 0
// exactly when its interpreter would not fork, and the loop then runs on
// a team of one in serial order. A collapse(2) loop is always flattened
// (batch x tile), which visits the nested serial order. The one form is
// exact because the verifier rejects a parallel loop body that assigns a
// float local declared outside it (race.local): every local a parallel
// iteration writes is its own, as in both interpreter paths. Loops nested
// inside a parallel body are emitted serial, mirroring the interpreter's
// AllowParallel=false propagation.
//
// Each top-level unit renders with its buffers as SLOTS: the k-th distinct
// buffer the unit touches, in first-use order (float and int32 buffers
// share one numbering), is `_bk = LJ->bufs[S[k]]` (or LJ->ibufs), and the
// rendered text names no buffer. Units that render to the same text —
// the unrolled steps of a recurrent net, mostly — share one `static` class
// function `latte_class_<c>(LatteJitCtx *LJ, const int32_t *S)`. Each unit
// keeps its own slot array of Program buffer indices, and each pass
// exports one table of {class function, slots} entries (jit/jit_abi.h).
// Class functions are reachable only through those tables, so the system
// compiler cannot inline them back into per-unit copies. Comments that
// would carry a name (buffer, block label, barrier reason) stay out of the
// class bodies; the slot-array line lists the buffers and the table entry
// the unit's TaskLabel.
//
// Every kernel call goes through the ctx trampoline, which in the JIT and
// in the standalone program alike is kernels::dispatch: the exact
// functions the interpreter runs, so one kernel implementation serves all
// three and a kernel change lands in each.

class JitEmitter {
public:
  explicit JitEmitter(const Program &Prog) : Prog(Prog) {
    for (size_t I = 0; I < Prog.Buffers.size(); ++I)
      BufIndex[Prog.Buffers[I].Name] = I;
    for (size_t I = 0; I < Prog.IntBuffers.size(); ++I)
      IntBufIndex[Prog.IntBuffers[I].Name] = I;
  }

  JitSource run();

private:
  void prologue();
  void emitPass(const Stmt *Root, char PassTag,
                const std::vector<TaskLabel> &Labels, const char *Table,
                std::vector<JitTaskInfo> &Out);
  int emitUnit(const Stmt *Unit);
  std::string slot(const std::string &Buffer, bool Int);

  void emitStmt(const Stmt *S, int Indent);
  void emitFor(const ForStmt *F, int Indent);
  void emitKernel(const KernelCallStmt *K, int Indent);
  std::string floatExpr(const Expr *E);
  std::string intExpr(const Expr *E) const;
  std::string elemRef(const std::string &Buffer,
                      const std::vector<ExprPtr> &Indices);

  void line(int Indent, const std::string &Text) {
    for (int I = 0; I < Indent; ++I)
      OS << "  ";
    OS << Text << "\n";
  }

  const Program &Prog;
  std::ostringstream OS;
  std::unordered_map<std::string, size_t> BufIndex;
  std::unordered_map<std::string, size_t> IntBufIndex;
  /// The unit being rendered: its slots in first-use order, each an
  /// (int32 table?, Program index) pair, and the slot of each buffer.
  std::vector<std::pair<bool, size_t>> Slots;
  std::map<std::pair<bool, std::string>, size_t> SlotOf;
  /// Rendered class text -> class index; ClassOS holds the class
  /// functions and TableOS the slot arrays and task tables, in first-use
  /// order.
  std::unordered_map<std::string, int> ClassOf;
  std::ostringstream ClassOS;
  std::ostringstream TableOS;
  /// True while emitting a parallel loop's body: inner parallel
  /// annotations are emitted serial, as the interpreter runs them
  /// (AllowParallel=false inside a parallel iteration).
  bool InParallelBody = false;
  /// Names the `_lo` / `_lf` loop temporaries; restarts with each unit.
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

/// The slot of \p Buffer in the unit being rendered, assigned on first use.
std::string JitEmitter::slot(const std::string &Buffer, bool Int) {
  auto [It, New] = SlotOf.emplace(std::make_pair(Int, Buffer), Slots.size());
  if (New) {
    const auto &Index = Int ? IntBufIndex : BufIndex;
    auto Found = Index.find(Buffer);
    if (Found == Index.end())
      reportFatalError("codegen: unknown buffer '" + Buffer + "'");
    Slots.emplace_back(Int, Found->second);
  }
  return "_b" + std::to_string(It->second);
}

std::string JitEmitter::elemRef(const std::string &Buffer,
                                const std::vector<ExprPtr> &Indices) {
  const BufferInfo *B = Prog.findBuffer(Buffer);
  assert(B && "load/store of unknown buffer");
  std::vector<int64_t> Strides = B->Dims.strides();
  assert(Indices.size() == Strides.size() && "index rank mismatch");
  std::string Off = "(int64_t)0";
  for (size_t I = 0; I < Indices.size(); ++I)
    Off += " + " + intExpr(Indices[I].get()) + " * (int64_t)" +
           std::to_string(Strides[I]);
  return slot(Buffer, /*Int=*/false) + "[" + Off + "]";
}

std::string JitEmitter::floatExpr(const Expr *E) {
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

void JitEmitter::emitKernel(const KernelCallStmt *K, int Indent) {
  if (K->bufs().size() > static_cast<size_t>(jit::kMaxKernelBufs) ||
      K->exprArgs().size() > static_cast<size_t>(jit::kMaxKernelExprArgs))
    reportFatalError(std::string("codegen: kernel '") +
                     kernelKindName(K->kernel()) +
                     "' has more arguments than the kernel ABI carries");
  uint32_t IntMask = kernelIntBufMask(K->kernel());
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
    bool Int = IntMask & (1u << I);
    line(Indent + 1, std::string(Int ? "IB[" : "FB[") + std::to_string(I) +
                         "] = " + slot(A.Buffer, Int) + Off + ";");
  }
  // Empty C arrays are illegal; pad with one zero entry.
  std::vector<std::string> Parts;
  for (int64_t V : K->intArgs())
    Parts.push_back(std::to_string(V));
  if (Parts.empty())
    Parts.push_back("0");
  line(Indent + 1, "static const int64_t IA_[] = {" + join(Parts, ", ") + "};");
  Parts.clear();
  for (double V : K->floatArgs())
    Parts.push_back(jitDoubleLit(V));
  if (Parts.empty())
    Parts.push_back("0");
  line(Indent + 1, "static const double FA_[] = {" + join(Parts, ", ") + "};");
  Parts.clear();
  for (const ExprPtr &E : K->exprArgs())
    Parts.push_back(intExpr(E.get()));
  if (Parts.empty())
    Parts.push_back("0");
  line(Indent + 1, "const int64_t EA_[] = {" + join(Parts, ", ") + "};");
  line(Indent + 1, "LJ->kernel(" +
                       std::to_string(static_cast<int64_t>(K->kernel())) +
                       ", FB, IB, IA_, FA_, EA_);");
  line(Indent, "}");
}

void JitEmitter::emitFor(const ForStmt *F, int Indent) {
  int Id = Counter++;
  std::string Lo = "_lo" + std::to_string(Id);
  line(Indent, "const int64_t " + Lo + " = " + intExpr(F->lo()) + ";");
  std::string Var = F->var();
  std::string Header = "for (int64_t " + Var + " = " + Lo + "; " + Var +
                       " < " + Lo + " + (int64_t)" +
                       std::to_string(F->extent()) + "; ++" + Var + ") {";

  bool Par = F->annotations().Parallel && !InParallelBody;
  const TiledLoopStmt *Collapsed = nullptr;
  if (Par && F->annotations().Collapse == 2)
    if (const auto *Body = dyn_cast<BlockStmt>(F->body()))
      if (Body->stmts().size() == 1)
        Collapsed = dyn_cast<TiledLoopStmt>(Body->stmts()[0].get());

  if (!Par || (!Collapsed && F->extent() <= 1)) {
    line(Indent, Header);
    emitStmt(F->body(), Indent + 1);
    line(Indent, "}");
    return;
  }

  line(Indent,
       "#pragma omp parallel for schedule(static, 1) if (LJ->par != 0)");
  InParallelBody = true;
  if (Collapsed) {
    // Batch x tile flattened into one loop; its iteration order is the
    // nested serial order.
    int64_t Tiles = Collapsed->numTiles();
    std::string Lf = "_lf" + std::to_string(Id);
    line(Indent, "for (int64_t " + Lf + " = 0; " + Lf + " < (int64_t)" +
                     std::to_string(F->extent() * Tiles) + "; ++" + Lf +
                     ") {");
    line(Indent + 1, "int64_t " + Var + " = " + Lo + " + " + Lf +
                         " / (int64_t)" + std::to_string(Tiles) + ";");
    line(Indent + 1, "int64_t " + Collapsed->tileVar() + " = " + Lf +
                         " % (int64_t)" + std::to_string(Tiles) + ";");
    emitStmt(Collapsed->body(), Indent + 1);
  } else {
    line(Indent, Header);
    emitStmt(F->body(), Indent + 1);
  }
  line(Indent, "}");
  InParallelBody = false;
}

void JitEmitter::emitStmt(const Stmt *S, int Indent) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block: {
    // No braces: interpreter Decls outlive their Block (matches
    // generateCpp's treatment). No label comment: it would name the unit.
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
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
    emitStmt(T->body(), Indent + 1);
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
    line(Indent, "// fusion barrier");
    return;
  }
  latteUnreachable("unknown statement kind");
}

/// Renders \p Unit over fresh slots and returns its class index, emitting
/// the class function on the first unit that renders to its text. The
/// text — slot declarations included — is the class key, so two units
/// share a function only when they would have emitted the same body.
int JitEmitter::emitUnit(const Stmt *Unit) {
  Slots.clear();
  SlotOf.clear();
  Counter = 0;
  OS.str("");
  emitStmt(Unit, 1);
  std::string Text;
  for (size_t K = 0; K < Slots.size(); ++K)
    Text += formatString(Slots[K].first
                             ? "  int32_t *_b%zu = LJ->ibufs[S[%zu]];\n"
                             : "  float *_b%zu = LJ->bufs[S[%zu]];\n",
                         K, K);
  Text += OS.str();
  auto [It, New] = ClassOf.emplace(std::move(Text), ClassOf.size());
  if (New)
    ClassOS << "static void latte_class_" << It->second
            << "(LatteJitCtx *LJ, const int32_t *S) {\n"
            << It->first << "}\n\n";
  return It->second;
}

void JitEmitter::prologue() {
  OS << "// Latte JIT module: the loop nests of one compiled program; every\n"
        "// kernel runs in the library through the ctx trampoline.\n"
        "// Deterministic emission (content-hashed for the on-disk module\n"
        "// cache).\n"
        "#include <cmath>\n#include <cstdint>\n\n";
  OS << jit::abiStructSource();
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
                          const std::vector<TaskLabel> &Labels,
                          const char *Table, std::vector<JitTaskInfo> &Out) {
  // Only a top-level Block decomposes into units; other roots (hand-built
  // test programs) take the interpreter wholesale and export an empty
  // table.
  const auto *B = dyn_cast_if_present<const BlockStmt>(Root);
  std::vector<std::string> Entries;
  for (size_t I = 0; B && I < B->stmts().size(); ++I) {
    JitTaskInfo Info;
    Info.Class = emitUnit(B->stmts()[I].get());
    std::string SlotArray = "nullptr";
    if (!Slots.empty()) {
      SlotArray = formatString("latte_slots_%c%zu", PassTag, I);
      std::vector<std::string> Indices, Names;
      for (const auto &[Int, Index] : Slots) {
        Indices.push_back(std::to_string(Index));
        Names.push_back(Int ? Prog.IntBuffers[Index].Name
                            : Prog.Buffers[Index].Name);
      }
      TableOS << "static const int32_t " << SlotArray << "[] = {"
              << join(Indices, ", ") << "}; // " << join(Names, " ") << "\n";
    }
    std::string Entry = "  {latte_class_" + std::to_string(Info.Class) +
                        ", " + SlotArray + "},";
    if (I < Labels.size() && !Labels[I].Name.empty())
      Entry += " // " + Labels[I].Name;
    Entries.push_back(std::move(Entry));
    Out.push_back(Info);
  }
  TableOS << "extern \"C\" const LatteJitTask " << Table << "[] = {\n";
  for (const std::string &E : Entries)
    TableOS << E << "\n";
  TableOS << "  {nullptr, nullptr}};\n\n";
}

JitSource JitEmitter::run() {
  JitSource JS;
  prologue();
  std::string Prologue = OS.str();
  emitPass(Prog.Forward.get(), 'f', Prog.ForwardTasks,
           jit::kForwardTasksSymbol, JS.Forward);
  emitPass(Prog.Backward.get(), 'b', Prog.BackwardTasks,
           jit::kBackwardTasksSymbol, JS.Backward);
  JS.Classes = static_cast<int>(ClassOf.size());
  JS.Source = Prologue + ClassOS.str() + TableOS.str();
  return JS;
}

//===----------------------------------------------------------------------===//
// Standalone driver
//===----------------------------------------------------------------------===//
//
// generateCpp appends a driver to the task translation unit: static
// storage laid out by the memory plan, the LatteJitCtx the tasks read, the
// pass functions, and a .ltd file main. The context's trampoline is
// liblatte's kernels::dispatch — the interpreter's and the JIT's. Built
// with jit::compileFlags and linked against liblatte.a, the program runs
// the engine's kernels and equals it bitwise.

/// The .ltd entry point: `./prog <in.ltd> <out.ltd> [fwd|fwdbwd]` loads
/// the named buffers it is given, runs the passes and writes every buffer
/// back, through liblatte's .ltd reader and writer. Malformed input, or a
/// named buffer of another size, aborts through reportFatalError.
const char *const kLtdMain = R"cpp(
static const size_t kNumNamed = sizeof(latte_named) / sizeof(latte_named[0]);

int main(int Argc, char **Argv) {
  if (Argc < 3) {
    std::fprintf(stderr, "usage: %s <in.ltd> <out.ltd> [fwd|fwdbwd]\n",
                 Argv[0]);
    return 2;
  }
  // An entry this program does not name is ignored.
  for (const auto &[Name, T] : latte::readLtdFile(Argv[1]))
    for (size_t B = 0; B < kNumNamed; ++B) {
      if (Name != latte_named[B].Name)
        continue;
      if (T.numElements() != latte_named[B].N)
        latte::reportFatalError(std::string(Argv[1]) + ": " + Name + ": " +
                                std::to_string(T.numElements()) +
                                " elements, expected " +
                                std::to_string(latte_named[B].N));
      std::copy_n(T.data(), T.numElements(), latte_bufs[B]);
    }
  latte_forward();
  if (Argc < 4 || std::string(Argv[3]) == "fwdbwd")
    latte_backward();
  std::vector<latte::LtdView> Out;
  for (size_t B = 0; B < kNumNamed; ++B)
    Out.emplace_back(latte_named[B].Name, latte::Shape{latte_named[B].N},
                     latte_bufs[B]);
  return latte::writeLtdFile(Argv[2], Out) ? 0 : 1;
}
)cpp";

/// Renders the driver for \p Prog, whose task tables \p JS describes.
std::string standaloneDriver(const Program &Prog, const JitSource &JS) {
  const MemoryPlan &Plan = Prog.Plan;
  if (!Plan.Valid)
    reportFatalError("generateCpp: the program has no memory plan (build "
                     "it with compile(), which always plans its arena)");
  std::ostringstream OS;
  OS << "// --- standalone driver ---\n"
        "#include \"kernels/dispatch.h\"\n#include \"support/error.h\"\n"
        "#include \"support/ltd_format.h\"\n\n"
        "#include <algorithm>\n#include <cstdio>\n#include <cstring>\n"
        "#include <string>\n#include <vector>\n\n";

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

  OS << "// kernels run in liblatte's kernels::dispatch, the engine's own\n"
        "static LatteJitCtx latte_ctx = {latte_bufs, latte_ibufs, 1,\n"
        "                               latte::kernels::dispatch};\n"
        "static void latte_run(const LatteJitTask &T) { "
        "T.fn(&latte_ctx, T.slots); }\n\n";

  // Each pass clears its pinned roots at the top and every interval root
  // right before its first unit (the plan's ZeroBefore schedule), as
  // engine::Executor::execProgram does, then runs its table's tasks in
  // order.
  auto Pass = [&](const char *Name, const Stmt *Root, const char *Table,
                  size_t NumTasks, const std::vector<std::string> &PassTop,
                  int GlobalBase) {
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
    for (size_t I = 0; I < NumTasks; ++I) {
      auto It = Plan.ZeroBefore.find(GlobalBase + static_cast<int>(I));
      if (It != Plan.ZeroBefore.end())
        for (const std::string &Buf : It->second)
          Zero(Buf);
      OS << "  latte_run(" << Table << "[" << I << "]);\n";
    }
    OS << "}\n\n";
  };
  Pass("latte_forward", Prog.Forward.get(), jit::kForwardTasksSymbol,
       JS.Forward.size(), Plan.ZeroOnForwardPinned, 0);
  Pass("latte_backward", Prog.Backward.get(), jit::kBackwardTasksSymbol,
       JS.Backward.size(), Plan.ZeroOnBackwardPinned, Plan.NumForwardUnits);

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
  JitSource JS = JitEmitter(Prog).run();
  return JS.Source + standaloneDriver(Prog, JS);
}

JitSource compiler::generateJitSource(const Program &Prog) {
  return JitEmitter(Prog).run();
}

bool compiler::writeGeneratedProgram(const Program &Prog,
                                     const std::string &Path) {
  std::string Source = generateCpp(Prog);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Source.data(), 1, Source.size(), F) == Source.size();
  // fclose flushes the last buffered bytes, so a full disk can first show
  // there.
  return std::fclose(F) == 0 && Ok;
}
