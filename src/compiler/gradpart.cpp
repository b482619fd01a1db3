//===- compiler/gradpart.cpp ----------------------------------*- C++ -*-===//

#include "compiler/gradpart.h"

#include "analyze/effects.h"
#include "analyze/races.h"
#include "compiler/passes.h"
#include "compiler/program.h"
#include "ir/builder.h"
#include "support/casting.h"

#include <algorithm>
#include <set>

using namespace latte;
using namespace latte::compiler;
using namespace latte::ir;

namespace {

/// The least work worth a fork/join. Whole-batch GEMMs with fewer
/// multiply-adds are not row-blocked: there a fork/join costs about as much
/// as the GEMM (the LSTM's 64 x 64 x 32 gate dW GEMMs), and each extra row
/// block re-packs B. Each column block must hold at least this many.
constexpr int64_t kMinBlockedMacs = int64_t(1) << 20;

/// For kernels that compute every output row independently, the index of
/// the output buffer argument and the row count: Sgemm writes M rows of C,
/// RowSumAdd writes Rows entries of Dst. False for every other kernel.
bool rowSplittable(const KernelCallStmt &K, size_t &OutArg, int64_t &Rows) {
  switch (K.kernel()) {
  case KernelKind::Sgemm: // ints: {M, N, K, LdA, LdB, LdC, TA, TB, Acc}
    OutArg = 2;
    Rows = K.intArgs()[0];
    return true;
  case KernelKind::RowSumAdd: // ints: {Rows, Cols}
    OutArg = 0;
    Rows = K.intArgs()[0];
    return true;
  default:
    return false;
  }
}

/// Adds Start * Scale to a buffer argument's element offset.
void shiftOffset(KernelBufArg &Arg, const Expr &Start, int64_t Scale) {
  ExprPtr Delta =
      Scale == 1 ? Start.clone() : mul(Start.clone(), intConst(Scale));
  Arg.Offset = Arg.Offset ? add(std::move(Arg.Offset), std::move(Delta))
                          : std::move(Delta);
}

/// The output dimension a block loop divides: rows (kGradRowBlock, loop
/// variable "rb") or, for Sgemm only, columns (kGemmColBlock, "cb").
enum class Dim { Rows, Cols };

int64_t blockSize(Dim D) {
  return D == Dim::Rows ? kGradRowBlock : kGemmColBlock;
}

/// \p K restricted to the output rows or columns [Start, Start + Extent).
StmtPtr restrictTo(const KernelCallStmt &K, Dim D, const Expr &Start,
                   int64_t Extent) {
  StmtPtr S = K.clone();
  auto *R = cast<KernelCallStmt>(S.get());
  std::vector<int64_t> &IA = R->intArgs();
  if (D == Dim::Cols) {
    shiftOffset(R->bufs()[1], Start, IA[7] != 0 ? IA[4] : 1); // op(B) cols
    shiftOffset(R->bufs()[2], Start, 1);                      // C cols
    IA[1] = Extent;
    return S;
  }
  if (K.kernel() == KernelKind::Sgemm) {
    shiftOffset(R->bufs()[0], Start, IA[6] != 0 ? 1 : IA[3]); // op(A) rows
    shiftOffset(R->bufs()[2], Start, IA[5]);                  // C rows
  } else {
    shiftOffset(R->bufs()[0], Start, 1);     // Dst entries
    shiftOffset(R->bufs()[1], Start, IA[1]); // Src rows
  }
  IA[0] = Extent;
  return S;
}

/// Appends the block loop for \p Calls (all \p Extent rows or columns wide
/// along \p D) to \p Out: the parallel loop over whole blocks plus the
/// static tail. With \p ItemLoop each block runs the calls for every item
/// in ascending order; without it the calls are whole-batch and run once
/// per block.
void emitBlocks(const std::vector<const KernelCallStmt *> &Calls, Dim D,
                int64_t Extent, const ForStmt *ItemLoop,
                std::vector<StmtPtr> &Out) {
  const int64_t Size = blockSize(D);
  const int64_t Blocks = Extent / Size;
  const int64_t Tail = Extent - Blocks * Size;
  // Start == nullptr: the calls unchanged (a tail that is the whole extent).
  auto Part = [&](const Expr *Start, int64_t PartExtent) -> StmtPtr {
    std::vector<StmtPtr> Body;
    for (const KernelCallStmt *K : Calls)
      Body.push_back(Start ? restrictTo(*K, D, *Start, PartExtent)
                           : K->clone());
    if (!ItemLoop)
      return Body.size() == 1 ? std::move(Body.front())
                              : block(std::move(Body));
    return std::make_unique<ForStmt>(ItemLoop->var(), ItemLoop->lo()->clone(),
                                     ItemLoop->extent(),
                                     block(std::move(Body)));
  };
  if (Blocks > 0) {
    const char *Var = D == Dim::Rows ? "rb" : "cb";
    ExprPtr Start = mul(var(Var), intConst(Size));
    std::vector<StmtPtr> Body;
    Body.push_back(Part(Start.get(), Size));
    auto Loop = std::make_unique<ForStmt>(Var, intConst(0), Blocks,
                                          block(std::move(Body)));
    Loop->annotations().Parallel = true;
    Out.push_back(std::move(Loop));
  }
  if (Tail > 0) {
    ExprPtr Start = intConst(Blocks * Size);
    Out.push_back(Part(Blocks > 0 ? Start.get() : nullptr, Tail));
  }
}

/// A top-level whole-batch GEMM unit, split along \p D: the blocks plus
/// the tail as one block statement.
StmtPtr blockedGemm(const KernelCallStmt &K, Dim D, int64_t Extent) {
  std::vector<StmtPtr> Parts;
  emitBlocks({&K}, D, Extent, /*ItemLoop=*/nullptr, Parts);
  return Parts.size() == 1 ? std::move(Parts.front())
                           : block(std::move(Parts));
}

/// Whether a top-level Sgemm unit is worth a column-block loop: too few
/// rows for row blocks, two whole blocks, and enough work in each block
/// for a fork/join. Blocks of a few multiply-adds per column lose: vgg3's
/// training classifier gradients at batch 4 (20 K multiply-adds a block)
/// ran 2-8x slower split than as one call.
bool columnSplittable(const KernelCallStmt &K) {
  if (K.kernel() != KernelKind::Sgemm)
    return false;
  const std::vector<int64_t> &IA = K.intArgs();
  return IA[0] <= kGradRowBlock && IA[1] / kGemmColBlock >= 2 &&
         IA[0] * kGemmColBlock * IA[2] >= kMinBlockedMacs;
}

/// Rewrites every top-level Sgemm unit of \p Root that columnSplittable
/// accepts; units that are loops or blocks are left alone.
void splitColumns(ir::Stmt *Root) {
  auto *Units = dyn_cast_if_present<BlockStmt>(Root);
  if (!Units)
    return;
  for (StmtPtr &Unit : Units->stmts())
    if (const auto *K = dyn_cast<KernelCallStmt>(Unit.get()))
      if (columnSplittable(*K))
        Unit = blockedGemm(*K, Dim::Cols, K->intArgs()[1]);
}

class Partitioner {
public:
  explicit Partitioner(Program &Prog) : Prog(Prog), Bufs(Prog) {}

  void run();

private:
  bool isParamGradRoot(const std::string &Root) const {
    const analyze::BufferTable::FloatInfo *FI = Bufs.floatInfo(Root);
    return FI && FI->Role == BufferRole::ParamGrad;
  }
  std::string rootOf(const std::string &Name) const {
    const analyze::BufferTable::FloatInfo *FI = Bufs.floatInfo(Name);
    return FI ? FI->Root : Name;
  }
  StmtPtr splitBatchLoop(const ForStmt &F,
                         const std::set<std::string> &Grads,
                         std::string &Why) const;

  Program &Prog;
  analyze::BufferTable Bufs;
};

/// Rewrites one parallel batch loop whose body writes the ParamGrad roots
/// \p Grads into the partitioned form; returns null (and the reason in
/// \p Why) when the split cannot be proven legal.
StmtPtr Partitioner::splitBatchLoop(const ForStmt &F,
                                    const std::set<std::string> &Grads,
                                    std::string &Why) const {
  const auto *Body = dyn_cast<BlockStmt>(F.body());
  if (!Body) {
    Why = "loop body is not a statement list";
    return nullptr;
  }

  std::vector<const KernelCallStmt *> Moved;
  std::vector<const Stmt *> Kept;
  std::set<std::string> MovedReads; // roots read by the moved calls so far
  int64_t Rows = 0;
  for (const StmtPtr &S : Body->stmts()) {
    analyze::UnitEffects SE =
        analyze::collectUnitEffects(S.get(), Bufs, nullptr);
    const auto *K = dyn_cast<KernelCallStmt>(S.get());
    size_t OutArg = 0;
    int64_t KRows = 0;
    if (K && rowSplittable(*K, OutArg, KRows) &&
        Grads.count(rootOf(K->bufs()[OutArg].Buffer))) {
      if (Rows != 0 && KRows != Rows) {
        Why = "gradient kernels of different row extents";
        return nullptr;
      }
      Rows = KRows;
      const std::string Out = rootOf(K->bufs()[OutArg].Buffer);
      for (const auto &[Root, Accesses] : SE.Effects.Buffers) {
        if (Root == Out)
          continue;
        if (Grads.count(Root)) {
          Why = "gradient kernel reads another parameter gradient";
          return nullptr;
        }
        MovedReads.insert(Root);
      }
      Moved.push_back(K);
      continue;
    }
    for (const auto &[Root, Accesses] : SE.Effects.Buffers) {
      if (Grads.count(Root)) {
        Why = "'" + Root + "' accumulated outside a row-splittable kernel";
        return nullptr;
      }
      // Same item: this statement ran after a moved call and must not
      // overwrite what that call reads once the call moves behind it.
      bool Writes = std::any_of(Accesses.begin(), Accesses.end(),
                                [](const analyze::Access &A) {
                                  return A.Write;
                                });
      if (Writes && MovedReads.count(Root)) {
        Why = "'" + Root + "' is written after a gradient kernel reads it";
        return nullptr;
      }
    }
    Kept.push_back(S.get());
  }

  // Later items: loop (a) must not write anything a moved call reads. The
  // original unit's races outside the gradient roots are exactly those
  // conflicts (plus races among the kept statements themselves).
  analyze::DiagnosticReport Races;
  analyze::detectRaces(analyze::collectUnitEffects(&F, Bufs, nullptr), "",
                       Races);
  for (const analyze::Diagnostic &D : Races.diagnostics())
    if (!Grads.count(D.Buffer)) {
      Why = "items conflict on '" + D.Buffer + "'";
      return nullptr;
    }

  std::vector<StmtPtr> Parts;
  if (!Kept.empty()) {
    std::vector<StmtPtr> KeptBody;
    for (const Stmt *S : Kept)
      KeptBody.push_back(S->clone());
    auto Items = std::make_unique<ForStmt>(
        F.var(), F.lo()->clone(), F.extent(), block(std::move(KeptBody)));
    annotateBatchLoop(*Items);
    Parts.push_back(std::move(Items));
  }
  emitBlocks(Moved, Dim::Rows, Rows, &F, Parts);
  return block(std::move(Parts));
}

void Partitioner::run() {
  auto *Units = dyn_cast_if_present<BlockStmt>(Prog.Backward.get());
  if (!Units)
    return;
  for (size_t I = 0; I < Units->stmts().size(); ++I) {
    StmtPtr &Unit = Units->stmts()[I];
    if (const auto *K = dyn_cast<KernelCallStmt>(Unit.get())) {
      // Whole-batch gradient GEMM: only the row-block loop applies.
      if (K->kernel() != KernelKind::Sgemm ||
          !isParamGradRoot(rootOf(K->bufs()[2].Buffer)))
        continue;
      const int64_t Rows = K->intArgs()[0];
      if (Rows <= kGradRowBlock ||
          Rows * K->intArgs()[1] * K->intArgs()[2] < kMinBlockedMacs)
        continue;
      Unit = blockedGemm(*K, Dim::Rows, Rows);
      continue;
    }
    auto *F = dyn_cast<ForStmt>(Unit.get());
    if (!F || !F->annotations().Parallel)
      continue;
    std::set<std::string> Grads;
    analyze::UnitEffects UE = analyze::collectUnitEffects(F, Bufs, nullptr);
    for (const auto &[Root, Accesses] : UE.Effects.Buffers)
      if (isParamGradRoot(Root) &&
          std::any_of(Accesses.begin(), Accesses.end(),
                      [](const analyze::Access &A) { return A.Write; }))
        Grads.insert(Root);
    if (Grads.empty())
      continue;
    std::string Why;
    if (StmtPtr Split = splitBatchLoop(*F, Grads, Why)) {
      Unit = std::move(Split);
      continue;
    }
    // Cannot prove the split legal: run the items serially, as the
    // synchronized mode always did.
    LoopAnnotations &A = F->annotations();
    A.Parallel = false;
    if (A.Collapse == 2) {
      A.Collapse = 1;
      cast<TiledLoopStmt>(cast<BlockStmt>(F->body())->stmts()[0].get())
          ->annotations()
          .Parallel = false;
    }
    const std::string Label = I < Prog.BackwardTasks.size()
                                  ? Prog.BackwardTasks[I].Name
                                  : "unit " + std::to_string(I);
    Prog.Report.Notes.push_back("synchronized backward: " + Label +
                                " runs serially (" + Why + ")");
  }
}

} // namespace

void compiler::partitionParamGrads(Program &Prog) {
  Partitioner(Prog).run();
}

void compiler::splitGemmColumns(Program &Prog) {
  splitColumns(Prog.Forward.get());
  splitColumns(Prog.Backward.get());
}
