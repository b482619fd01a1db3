//===- analyze/effects.h - Buffer-effect analysis --------------*- C++ -*-===//
///
/// \file
/// Computes per-task may-read/may-write sets over the assembled Program IR.
/// Every Load/Store/KernelCall is summarized as an Access on its
/// alias-resolved root buffer with a *footprint*: an affine base over the
/// task's parallel loop variables plus a set of (extent, stride) levels for
/// the enclosed sequential loops and a contiguous trailing width. The
/// footprint abstraction is exact for everything the Latte compiler emits
/// (batch offsets, tile row/column splits, strided channel walks); data-
/// dependent accesses (gather/scatter index tables) are widened to a
/// conservative superset and marked inexact.
///
/// The race detector (analyze/races.h) intersects these footprints across
/// distinct iterations of the parallel dimensions; the verifier
/// (analyze/verifier.h) bounds-checks them against buffer extents. The
/// per-dimension index summaries reuse the dependence-distance ingredients
/// of compiler/analysis.cpp at the IR level rather than the connection
/// level, so they hold after every optimization pass.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_ANALYZE_EFFECTS_H
#define LATTE_ANALYZE_EFFECTS_H

#include "analyze/diagnostics.h"
#include "compiler/program.h"
#include "ir/stmt.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace latte {
namespace analyze {

/// Linear integer form Const + sum(Coeffs[v] * v). Affine=false means the
/// expression could not be summarized (min/max/div of non-constants, loads
/// inside indices); consumers must widen conservatively.
struct AffineExpr {
  std::map<std::string, int64_t> Coeffs; ///< ordered => deterministic dumps
  int64_t Const = 0;
  bool Affine = true;

  static AffineExpr constant(int64_t V) {
    AffineExpr A;
    A.Const = V;
    return A;
  }
  static AffineExpr unknown() {
    AffineExpr A;
    A.Affine = false;
    return A;
  }

  int64_t coeff(const std::string &Var) const {
    auto It = Coeffs.find(Var);
    return It == Coeffs.end() ? 0 : It->second;
  }
  /// this += Scale * Other (propagates non-affineness).
  void accumulate(const AffineExpr &Other, int64_t Scale);
  bool isConstant() const { return Affine && Coeffs.empty(); }

  /// "8*n + 64*t0 + 12" (terms in variable order, constant last).
  std::string str() const;
};

/// Extracts the affine form of an integer index expression. Supported:
/// IntConst, Var, Add, Sub, Mul-by-constant; anything else yields unknown.
AffineExpr affineOf(const ir::Expr *E);

/// One sequential-loop dimension of a footprint: the access repeats Extent
/// times, Stride elements apart. Strides are normalized non-negative.
struct FootprintLevel {
  int64_t Extent = 1;
  int64_t Stride = 0;
};

/// The element region an access may touch:
///   Base(parallel vars) + sum_i Stride_i*k_i (k_i in [0, Extent_i))
///                       + [0, Width)
/// Base coefficients only mention the task's parallel dimensions; every
/// sequential loop was folded into Levels. Exact=false marks conservative
/// supersets (index-table accesses, padded/clipped window kernels, or
/// non-affine indices widened to the whole buffer).
struct Footprint {
  AffineExpr Base;
  std::vector<FootprintLevel> Levels;
  int64_t Width = 1;
  bool Exact = true;

  /// Largest base-relative end offset: sum(Stride*(Extent-1)) + Width.
  int64_t spanEnd() const;

  /// Sorts levels by stride and merges a level into Width when the level's
  /// stride equals the current width (contiguous coalescing).
  void canonicalize();

  std::string str() const;
};

/// One summarized access to a (root) buffer.
struct Access {
  bool Write = false;
  bool Read = false;
  /// The write combines with the previous value through a commutative
  /// accumulation (+=).
  bool Accumulating = false;
  Footprint Fp;
  /// For inexact footprints that overhang their true region (padded window
  /// kernels: the clamped reads never leave the item slice, but the affine
  /// window model extends Pad rows beyond it), a second footprint that is
  /// GUARANTEED to contain every touched element. The race detector
  /// requires bound overlap in addition to footprint overlap.
  bool HasBound = false;
  Footprint Bound;
  std::string Detail; ///< printable origin: "store w_grad[...]", "Sgemm(...)"
};

/// Effects of one task unit, keyed by alias-resolved root buffer name.
/// Int32 index/mask buffers are keyed with an "int:" prefix so float and
/// integer address spaces never appear to overlap.
struct EffectSet {
  std::map<std::string, std::vector<Access>> Buffers;

  void add(const std::string &Root, Access A) {
    Buffers[Root].push_back(std::move(A));
  }
};

/// One parallel dimension of a task unit (the batch loop variable, plus the
/// tile variable when the loop is collapse(2)).
struct ParallelDim {
  std::string Var;
  int64_t Lo = 0; ///< loop lower bound (constant in assembled programs)
  int64_t Extent = 0;
};

/// Resolves buffer metadata against a Program: alias roots, strides,
/// element counts, int-table value ranges.
class BufferTable {
public:
  explicit BufferTable(const compiler::Program &Prog);

  struct FloatInfo {
    std::string Root; ///< alias-resolved owning buffer
    int rank() const { return static_cast<int>(Strides.size()); }
    std::vector<int64_t> Strides;
    int64_t Count = 0;
    compiler::BufferRole Role = compiler::BufferRole::Scratch;
  };
  struct IntInfo {
    int64_t Count = 0;
    /// [MinEntry, MaxEntry] over static table entries (skipping the -1
    /// padding sentinel); meaningful when HasEntries.
    bool HasEntries = false;
    int64_t MinEntry = 0;
    int64_t MaxEntry = 0;
  };

  const FloatInfo *floatInfo(const std::string &Name) const;
  const IntInfo *intInfo(const std::string &Name) const;
  const compiler::Program &program() const { return Prog; }

private:
  const compiler::Program &Prog;
  std::map<std::string, FloatInfo> Floats;
  std::map<std::string, IntInfo> Ints;
};

/// Effects and parallel structure of one top-level task unit.
struct UnitEffects {
  EffectSet Effects;
  std::vector<ParallelDim> Dims; ///< empty when the unit is sequential
  bool Collapsed = false;        ///< batch x tile collapse(2)
};

/// Summarizes one top-level unit of an assembled program. \p Diags (when
/// non-null) receives structural problems found along the way (unknown
/// buffers, non-integer indices); the effect analysis itself never fails —
/// it widens to conservative footprints instead.
UnitEffects collectUnitEffects(const ir::Stmt *Unit, const BufferTable &Bufs,
                               DiagnosticReport *Diags);

/// Human-readable effect-set dump (deterministic order), one access per
/// line, for latte-lint --dump-effects.
std::string dumpEffects(const EffectSet &Effects);

/// Runtime argument layout of a kernel (mirrors engine::Executor::execKernel,
/// which is authoritative; stmt.h's doc comments predate the expr-arg split).
struct KernelSignature {
  int NumBufs = 0;
  int NumInts = 0;
  int NumExprs = 0;
  int NumFloats = 0;
};

KernelSignature kernelSignature(ir::KernelKind K);

/// True when buffer argument \p BufIdx of kernel \p K names an int32 buffer
/// (gather/scatter index tables, max-pool argmax masks).
bool kernelBufArgIsInt(ir::KernelKind K, size_t BufIdx);

} // namespace analyze
} // namespace latte

#endif // LATTE_ANALYZE_EFFECTS_H
