//===- compiler/passes.cpp ------------------------------------*- C++ -*-===//

#include "compiler/passes.h"

#include "ir/builder.h"
#include "support/error.h"

#include <algorithm>

using namespace latte;
using namespace latte::compiler;
using namespace latte::ir;

namespace {

/// A task plus its tiling plan.
struct PlannedTask {
  EnsembleTask Task;
  bool Tiled = false;
  int64_t NumTiles = 0;
  int64_t TileSize = 0;
  int64_t RowExtent = 0;
};

/// Largest divisor of \p N that is <= \p Target (at least 1).
int64_t largestDivisorAtMost(int64_t N, int64_t Target) {
  assert(N > 0 && Target > 0 && "divisor search needs positive arguments");
  for (int64_t D = std::min(N, Target); D >= 1; --D)
    if (N % D == 0)
      return D;
  return 1;
}

/// Decides the tiling plan for one task (§5.4.1). A task is tiled when
/// tiling is enabled, it has at least one tileable row operation, and the
/// row extent splits into more than one tile.
void planTiling(PlannedTask &P, const CompileOptions &Opts) {
  int64_t Rows = 0;
  bool AnyTileable = false;
  for (const RowOp &Op : P.Task.PerItem) {
    if (Op.RowExtent <= 0)
      continue;
    assert((Rows == 0 || Rows == Op.RowExtent) &&
           "row-structured ops within a task must share an extent");
    Rows = Op.RowExtent;
    AnyTileable |= Op.Tileable;
  }
  P.RowExtent = Rows;
  if (!Opts.Tiling || !AnyTileable || Rows < Opts.MinRowsToTile ||
      Rows <= 1)
    return;
  int64_t T = largestDivisorAtMost(Rows, std::max<int64_t>(1, Opts.TileSize));
  int64_t N = Rows / T;
  if (N < 2)
    return;
  P.Tiled = true;
  P.NumTiles = N;
  P.TileSize = T;
}

/// Materializes one task's per-item statements. When the task is tiled, the
/// tileable ops are instantiated per tile under a TiledLoopStmt (the loop
/// variable is \p TileVar); non-tileable ops follow as whole-extent
/// statements. \p Into receives the statements.
void materializeTask(const PlannedTask &P, const std::string &TileVar,
                     std::vector<StmtPtr> &TiledBody,
                     std::vector<StmtPtr> &Trailing) {
  for (const RowOp &Op : P.Task.PerItem) {
    bool SplitThis = P.Tiled && Op.Tileable && Op.RowExtent > 0;
    if (SplitThis) {
      ExprPtr RowBegin = mul(var(TileVar), intConst(P.TileSize));
      TiledBody.push_back(Op.Make(std::move(RowBegin), P.TileSize));
    } else {
      Trailing.push_back(Op.makeWhole());
    }
  }
}

/// One maximal run of consecutive per-item tasks that will share a batch
/// loop.
struct BatchGroup {
  std::vector<PlannedTask> Tasks;
};

class Assembler {
public:
  Assembler(const CompileOptions &Opts, Program &Prog)
      : Opts(Opts), Prog(Prog) {}

  StmtPtr assemble(std::vector<EnsembleTask> Tasks, const char *Label,
                   bool ReportFusion, std::vector<TaskLabel> &Labels);

private:
  void flushGroup(std::vector<StmtPtr> &Units, BatchGroup &Group,
                  bool ReportFusion);

  /// Pushes a unit and its display label in lockstep (units and labels stay
  /// parallel vectors — the engine's per-task profiler indexes by unit).
  void pushUnit(std::vector<StmtPtr> &Units, StmtPtr S, std::string Name,
                std::vector<std::string> Ensembles) {
    Units.push_back(std::move(S));
    CurLabels->push_back({std::move(Name), std::move(Ensembles)});
  }

  const CompileOptions &Opts;
  Program &Prog;
  std::vector<TaskLabel> *CurLabels = nullptr;
  int TileVarCounter = 0;
};

StmtPtr Assembler::assemble(std::vector<EnsembleTask> Tasks,
                            const char *Label, bool ReportFusion,
                            std::vector<TaskLabel> &Labels) {
  std::vector<StmtPtr> Units;
  BatchGroup Group;
  CurLabels = &Labels;

  for (EnsembleTask &Task : Tasks) {
    bool Barrier = Task.FusionBarrier;
    if (!Task.Pre.empty() || Barrier)
      flushGroup(Units, Group, ReportFusion);
    for (StmtPtr &S : Task.Pre)
      pushUnit(Units, std::move(S), "pre:" + Task.EnsembleName,
               {Task.EnsembleName});
    if (Barrier)
      pushUnit(Units, barrier(Task.EnsembleName),
               "barrier:" + Task.EnsembleName, {Task.EnsembleName});

    bool HasPost = !Task.Post.empty();
    std::vector<StmtPtr> Post = std::move(Task.Post);
    std::string PostName = Task.EnsembleName;
    if (!Task.PerItem.empty()) {
      PlannedTask P;
      P.Task = std::move(Task);
      planTiling(P, Opts);
      Group.Tasks.push_back(std::move(P));
    }
    if (HasPost) {
      flushGroup(Units, Group, ReportFusion);
      for (StmtPtr &S : Post)
        pushUnit(Units, std::move(S), "post:" + PostName, {PostName});
    }
  }
  flushGroup(Units, Group, ReportFusion);
  // Debug-build fast path; the release-mode promotion of this invariant
  // lives in analyze::verifyProgram (program.task-labels), which
  // CompileOptions::VerifyEach runs after every compile, and in the
  // engine's constructor-time label check.
  assert(Units.size() == Labels.size() &&
         "task labels must stay parallel to assembled units");
  return block(std::move(Units), Label);
}

void Assembler::flushGroup(std::vector<StmtPtr> &Units, BatchGroup &Group,
                           bool ReportFusion) {
  if (Group.Tasks.empty())
    return;
  std::vector<PlannedTask> Tasks = std::move(Group.Tasks);
  Group.Tasks.clear();

  // Cross-layer fusion (§5.4.2): partition the group into chains. A task
  // joins the current chain when it consumes the chain's last ensemble
  // (either direction), carries a positive dependence distance, and both
  // sides are tiled. Joining aligns every chain member to a common tile
  // count; producers get their tile size scaled by the dependence distance
  // (Figure 11).
  std::vector<std::vector<size_t>> Chains;
  for (size_t I = 0; I < Tasks.size(); ++I) {
    bool Joined = false;
    if (Opts.Fusion && !Chains.empty() && Tasks[I].Tiled) {
      std::vector<size_t> &Chain = Chains.back();
      PlannedTask &Last = Tasks[Chain.back()];
      PlannedTask &Cur = Tasks[I];
      // Forward direction: Cur consumes Last.
      bool FwdLink = Cur.Task.FuseDist > 0 &&
                     Cur.Task.ProducerName == Last.Task.EnsembleName;
      // Backward direction: Last consumes Cur (reverse program order).
      bool BwdLink = Last.Task.FuseDist > 0 &&
                     Last.Task.ProducerName == Cur.Task.EnsembleName;
      if (Last.Tiled && (FwdLink || BwdLink)) {
        int64_t G = FwdLink ? Cur.NumTiles : Last.NumTiles;
        bool Divides = G > 0 && Cur.RowExtent % G == 0;
        for (size_t J : Chain)
          Divides &= Tasks[J].RowExtent % G == 0;
        if (Divides) {
          for (size_t J : Chain) {
            Tasks[J].NumTiles = G;
            Tasks[J].TileSize = Tasks[J].RowExtent / G;
          }
          Cur.NumTiles = G;
          Cur.TileSize = Cur.RowExtent / G;
          Chain.push_back(I);
          Joined = true;
        }
      }
    }
    if (!Joined)
      Chains.push_back({I});
  }

  // Materialize each chain into its own batch loop (loop fission). One loop
  // per chain — rather than one loop for the whole group — is what makes
  // the memory planner's unit-granularity liveness useful: a fused group is
  // a single timeline unit, so every pass-local buffer inside it conflicts
  // with every other and the arena cannot fold any of them. Fission is
  // semantics-preserving: for every item n, a chain still runs after the
  // chains that feed it (all of a producer chain's items complete before
  // the consumer chain starts), and each buffer's writes still occur in
  // ascending item order, so per-buffer accumulation order is unchanged.
  // Locality is unaffected where it matters — fusion chains stay intact
  // inside one loop; only independent chains are split apart.
  for (const std::vector<size_t> &Chain : Chains) {
    std::vector<StmtPtr> Body;
    std::vector<std::string> ChainEnsembles;
    std::string ChainName = "batch[";
    for (size_t J : Chain) {
      if (J != Chain.front())
        ChainName += '+';
      ChainName += Tasks[J].Task.EnsembleName;
      ChainEnsembles.push_back(Tasks[J].Task.EnsembleName);
    }
    ChainName += ']';

    bool AnyTiled = false;
    for (size_t J : Chain)
      AnyTiled |= Tasks[J].Tiled;
    if (!AnyTiled) {
      for (size_t J : Chain)
        for (const RowOp &Op : Tasks[J].Task.PerItem)
          Body.push_back(Op.makeWhole());
    } else {
      std::string TileVar = "t" + std::to_string(TileVarCounter++);
      std::vector<StmtPtr> TiledBody, Trailing;
      int64_t NumTiles = 0, TileSize = 0, Dist = 1;
      for (size_t J : Chain) {
        materializeTask(Tasks[J], TileVar, TiledBody, Trailing);
        if (Tasks[J].Tiled) {
          NumTiles = Tasks[J].NumTiles;
          TileSize = Tasks[J].TileSize;
          if (Tasks[J].Task.FuseDist > 0)
            Dist = Tasks[J].Task.FuseDist;
        }
      }
      assert(NumTiles > 0 && "tiled chain must produce a tile count");
      auto Loop = std::make_unique<TiledLoopStmt>(
          TileVar, "y", NumTiles, TileSize, Dist,
          block(std::move(TiledBody)));
      ++Prog.Report.NumTiledLoops;
      Body.push_back(std::move(Loop));
      for (StmtPtr &S : Trailing)
        Body.push_back(std::move(S));

      if (ReportFusion && Chain.size() >= 2) {
        std::vector<std::string> Names;
        for (size_t J : Chain)
          Names.push_back(Tasks[J].Task.EnsembleName);
        Prog.Report.FusionGroups.push_back(std::move(Names));
      }
    }

    // The batch loop itself (§5.4.3): data-parallel across items; collapsed
    // with the tile loop when the body is a single tiled loop.
    auto BatchLoop = std::make_unique<ForStmt>(
        "n", intConst(0), Prog.BatchSize, block(std::move(Body)));
    if (Opts.Parallelize)
      annotateBatchLoop(*BatchLoop);
    pushUnit(Units, std::move(BatchLoop), std::move(ChainName),
             std::move(ChainEnsembles));
  }
}

} // namespace

void compiler::annotateBatchLoop(ForStmt &Loop) {
  Loop.annotations().Parallel = true;
  auto *Body = cast<BlockStmt>(Loop.body());
  if (Body->stmts().size() == 1)
    if (auto *TL = dyn_cast<TiledLoopStmt>(Body->stmts()[0].get())) {
      Loop.annotations().Collapse = 2;
      TL->annotations().Parallel = true;
    }
}

void compiler::assemblePrograms(SynthesisResult Tasks,
                                const CompileOptions &Opts, Program &Prog) {
  Assembler A(Opts, Prog);
  Prog.Forward = A.assemble(std::move(Tasks.ForwardTasks), "forward",
                            /*ReportFusion=*/true, Prog.ForwardTasks);
  Prog.Backward = A.assemble(std::move(Tasks.BackwardTasks), "backward",
                             /*ReportFusion=*/false, Prog.BackwardTasks);
}
