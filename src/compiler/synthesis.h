//===- compiler/synthesis.h - Program synthesis ----------------*- C++ -*-===//
///
/// \file
/// The synthesis phase (§5.3): turns each ensemble into executable work.
/// Guided by shared-variable analysis it emits data-copy tasks (gathers
/// through precomputed index tables, or buffer aliasing when inputs are
/// shared / one-to-one), and compute tasks. Compute is produced by pattern
/// matching the neuron functions (§5.4.1): weighted neurons lower to
/// sgemm library calls, pooling and activation neurons to vectorized
/// kernels, and everything else to interpreted SoA loop nests.
///
/// Per-batch-item work is produced as *row operations*: closures
/// parameterized by a row range over the ensemble's tileable spatial
/// dimension. The tiling and fusion passes re-instantiate these closures
/// per tile (this is how a single GEMM becomes per-tile GEMMs, Figure 10).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_COMPILER_SYNTHESIS_H
#define LATTE_COMPILER_SYNTHESIS_H

#include "compiler/analysis.h"
#include "compiler/program.h"

#include <functional>

namespace latte {
namespace compiler {

/// One per-batch-item operation. When RowExtent > 0 the operation covers
/// RowExtent rows of the tileable dimension and Make re-instantiates it
/// for any row range; otherwise Make(0, 0) produces the fixed statement.
/// The batch index is available to Make's output as the loop variable "n".
struct RowOp {
  std::function<ir::StmtPtr(ir::ExprPtr RowBegin, int64_t RowCount)> Make;
  int64_t RowExtent = 0;
  bool Tileable = false;

  ir::StmtPtr makeWhole() const {
    return RowExtent > 0 ? Make(ir::intConst(0), RowExtent)
                         : Make(nullptr, 0);
  }
};

/// All work for one ensemble in one direction. Execution order within the
/// task is Pre (whole-batch), then PerItem (inside the batch loop), then
/// Post (whole-batch). The assembly pass merges adjacent tasks' PerItem
/// phases into shared batch loops; Pre/Post force ordering boundaries.
struct EnsembleTask {
  std::string EnsembleName;
  /// Whole-batch statements that must precede the per-item work.
  std::vector<ir::StmtPtr> Pre;
  /// Per-batch-item row operations, executed inside the batch loop.
  std::vector<RowOp> PerItem;
  /// Whole-batch statements that must follow the per-item work (e.g. the
  /// whole-batch FC GEMM after its per-item gathers).
  std::vector<ir::StmtPtr> Post;
  /// Never fuse across this task (NormalizationEnsembles, §5.5).
  bool FusionBarrier = false;
  /// When > 0 this task may be fused with its producer's task; the value is
  /// the dependence distance along the tiled dimension (§5.4.2) — the
  /// producer's tile size is scaled by it.
  int64_t FuseDist = 0;
  /// The ensemble whose task must precede this one for fusion chaining.
  std::string ProducerName;
};

/// The synthesis result: tasks in execution order plus the Program skeleton
/// (buffers, tables, params, well-known names) filled in.
struct SynthesisResult {
  std::vector<EnsembleTask> ForwardTasks;  ///< topological order
  std::vector<EnsembleTask> BackwardTasks; ///< reverse topological order
};

/// Runs analysis + synthesis over \p Net. Fills \p Prog's buffer/table/param
/// declarations and report fields (matched patterns), and returns the tasks
/// for the optimization pipeline.
SynthesisResult synthesize(const core::Net &Net, const CompileOptions &Opts,
                           Program &Prog);

} // namespace compiler
} // namespace latte

#endif // LATTE_COMPILER_SYNTHESIS_H
