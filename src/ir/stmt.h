//===- ir/stmt.h - Latte IR statements -------------------------*- C++ -*-===//
///
/// \file
/// Statement nodes of the Latte IR: loop nests, stores, local scalars,
/// plus the domain-specific nodes the paper introduces during compilation —
/// tiled loops carrying dependence-distance metadata (§5.4.1), fusion
/// barriers for unfuseable ensembles (§5.5), and library-kernel calls
/// produced by pattern matching (§5.4.1).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_IR_STMT_H
#define LATTE_IR_STMT_H

#include "ir/expr.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace latte {
namespace ir {

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// Base class of all IR statements.
class Stmt {
public:
  enum class Kind {
    Block,
    For,
    TiledLoop,
    Store,
    Decl,
    AssignVar,
    KernelCall,
    Barrier,
  };

  explicit Stmt(Kind K) : TheKind(K) {}
  virtual ~Stmt();

  Kind kind() const { return TheKind; }

  /// Deep copy of this statement tree.
  virtual StmtPtr clone() const = 0;

private:
  const Kind TheKind;
};

/// Sequence of statements. The optional label records provenance (e.g.
/// "forward conv1") and shows up in the printer; it has no semantics.
class BlockStmt : public Stmt {
public:
  explicit BlockStmt(std::vector<StmtPtr> Stmts = {}, std::string Label = "")
      : Stmt(Kind::Block), Stmts(std::move(Stmts)), Label(std::move(Label)) {}

  const std::vector<StmtPtr> &stmts() const { return Stmts; }
  std::vector<StmtPtr> &stmts() { return Stmts; }
  void append(StmtPtr S) {
    assert(S && "cannot append a null statement");
    Stmts.push_back(std::move(S));
  }

  const std::string &label() const { return Label; }
  void setLabel(std::string NewLabel) { Label = std::move(NewLabel); }

  StmtPtr clone() const override;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Block; }

private:
  std::vector<StmtPtr> Stmts;
  std::string Label;
};

/// Parallelization metadata attached to a for-loop by the parallelization
/// pass (§5.4.3). `Collapse` counts how many perfectly nested loops are
/// collapsed into one parallel iteration space (paper: batch × tile,
/// `collapse(2) schedule(static, 1)`).
struct LoopAnnotations {
  bool Parallel = false;
  int Collapse = 1;
};

/// Counted loop: for Var in [Lo, Lo + Extent). The trip count is a static
/// constant (network shapes are known at compile time); the lower bound may
/// reference enclosing loop variables (e.g. `yTile * TILE_SIZE`).
class ForStmt : public Stmt {
public:
  ForStmt(std::string Var, ExprPtr Lo, int64_t Extent, StmtPtr Body)
      : Stmt(Kind::For), Var(std::move(Var)), Lo(std::move(Lo)),
        Extent(Extent), Body(std::move(Body)) {
    assert(this->Lo && this->Body && "for-loop parts must be non-null");
    assert(Extent >= 0 && "loop extent must be non-negative");
  }

  const std::string &var() const { return Var; }
  const Expr *lo() const { return Lo.get(); }
  Expr *lo() { return Lo.get(); }
  void setLo(ExprPtr NewLo) { Lo = std::move(NewLo); }
  int64_t extent() const { return Extent; }
  void setExtent(int64_t NewExtent) { Extent = NewExtent; }
  const Stmt *body() const { return Body.get(); }
  Stmt *body() { return Body.get(); }
  StmtPtr takeBody() { return std::move(Body); }
  void setBody(StmtPtr NewBody) { Body = std::move(NewBody); }

  const LoopAnnotations &annotations() const { return Annotations; }
  LoopAnnotations &annotations() { return Annotations; }

  StmtPtr clone() const override;

  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }

private:
  std::string Var;
  ExprPtr Lo;
  int64_t Extent;
  StmtPtr Body;
  LoopAnnotations Annotations;
};

/// The tiled-loop node the tiling pass introduces (§5.4.1): iterates TileVar
/// over [0, NumTiles); the body covers TileSize iterations of the original
/// loop variable starting at `TileVar * TileSize`. DependenceDistance is the
/// input dependence distance along the tiled dimension (0 = pointwise;
/// e.g. 2 for a 2×2 pooling layer reading a 2-tall input window), consumed
/// by the fusion pass to scale producer tiles.
class TiledLoopStmt : public Stmt {
public:
  TiledLoopStmt(std::string TileVar, std::string OrigVar, int64_t NumTiles,
                int64_t TileSize, int64_t DependenceDistance, StmtPtr Body)
      : Stmt(Kind::TiledLoop), TileVar(std::move(TileVar)),
        OrigVar(std::move(OrigVar)), NumTiles(NumTiles), TileSize(TileSize),
        DependenceDistance(DependenceDistance), Body(std::move(Body)) {
    assert(NumTiles > 0 && TileSize > 0 && "tile structure must be positive");
  }

  const std::string &tileVar() const { return TileVar; }
  const std::string &origVar() const { return OrigVar; }
  int64_t numTiles() const { return NumTiles; }
  int64_t tileSize() const { return TileSize; }
  int64_t dependenceDistance() const { return DependenceDistance; }
  const Stmt *body() const { return Body.get(); }
  Stmt *body() { return Body.get(); }
  StmtPtr takeBody() { return std::move(Body); }
  void setBody(StmtPtr NewBody) { Body = std::move(NewBody); }
  void rescale(int64_t NewNumTiles, int64_t NewTileSize) {
    assert(NewNumTiles * NewTileSize == NumTiles * TileSize &&
           "rescale must preserve the iteration space");
    NumTiles = NewNumTiles;
    TileSize = NewTileSize;
  }

  const LoopAnnotations &annotations() const { return Annotations; }
  LoopAnnotations &annotations() { return Annotations; }

  StmtPtr clone() const override;

  static bool classof(const Stmt *S) { return S->kind() == Kind::TiledLoop; }

private:
  std::string TileVar;
  std::string OrigVar;
  int64_t NumTiles;
  int64_t TileSize;
  int64_t DependenceDistance;
  StmtPtr Body;
  LoopAnnotations Annotations;
};

/// Update operators for stores and scalar assignments. MaxAssign/MinAssign
/// exist because pooling reductions are first-class in this domain.
enum class AccumKind { Assign, AddAssign, MulAssign, MaxAssign, MinAssign };

/// Buffer element update: Buffer[Indices] <op>= Value.
class StoreStmt : public Stmt {
public:
  StoreStmt(std::string Buffer, std::vector<ExprPtr> Indices, AccumKind Op,
            ExprPtr Value)
      : Stmt(Kind::Store), Buffer(std::move(Buffer)),
        Indices(std::move(Indices)), Op(Op), Value(std::move(Value)) {
    assert(this->Value && "store value must be non-null");
  }

  const std::string &buffer() const { return Buffer; }
  void setBuffer(std::string NewBuffer) { Buffer = std::move(NewBuffer); }
  const std::vector<ExprPtr> &indices() const { return Indices; }
  std::vector<ExprPtr> &indices() { return Indices; }
  AccumKind op() const { return Op; }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }
  ExprPtr takeValue() { return std::move(Value); }
  void setValue(ExprPtr NewValue) { Value = std::move(NewValue); }

  StmtPtr clone() const override;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Store; }

private:
  std::string Buffer;
  std::vector<ExprPtr> Indices;
  AccumKind Op;
  ExprPtr Value;
};

/// Declaration of a local float scalar (e.g. `maxval = -Inf`, Figure 9).
class DeclStmt : public Stmt {
public:
  DeclStmt(std::string Name, ExprPtr Init)
      : Stmt(Kind::Decl), Name(std::move(Name)), Init(std::move(Init)) {
    assert(this->Init && "declaration initializer must be non-null");
  }

  const std::string &name() const { return Name; }
  const Expr *init() const { return Init.get(); }
  Expr *init() { return Init.get(); }
  ExprPtr takeInit() { return std::move(Init); }
  void setInit(ExprPtr NewInit) { Init = std::move(NewInit); }

  StmtPtr clone() const override;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Decl; }

private:
  std::string Name;
  ExprPtr Init;
};

/// Update of a local scalar: Name <op>= Value.
class AssignVarStmt : public Stmt {
public:
  AssignVarStmt(std::string Name, AccumKind Op, ExprPtr Value)
      : Stmt(Kind::AssignVar), Name(std::move(Name)), Op(Op),
        Value(std::move(Value)) {
    assert(this->Value && "assignment value must be non-null");
  }

  const std::string &name() const { return Name; }
  AccumKind op() const { return Op; }
  const Expr *value() const { return Value.get(); }
  Expr *value() { return Value.get(); }
  ExprPtr takeValue() { return std::move(Value); }
  void setValue(ExprPtr NewValue) { Value = std::move(NewValue); }

  StmtPtr clone() const override;

  static bool classof(const Stmt *S) { return S->kind() == Kind::AssignVar; }

private:
  std::string Name;
  AccumKind Op;
  ExprPtr Value;
};

/// Identifies the library kernel a KernelCallStmt invokes. Sgemm is the
/// kernel the paper pattern-matches to MKL (§5.4.1); the others are the
/// vectorized data-movement, elementwise, pooling, and normalization
/// kernels the Latte code generator emits for copy tasks and matched
/// neuron bodies. "Cols" kernels operate on a column range of a row-major
/// Rows x Cols matrix so the tiling pass can split them per tile
/// (Figures 10/12).
enum class KernelKind {
  Zero,           // bufs: {Dst};        ints: {Count}
  Copy,           // bufs: {Dst, Src};   ints: {Count}
  AddTo,          // bufs: {Dst, Src};   ints: {Count}   Dst += Src
  MulInto,        // bufs: {Dst, A, B};  ints: {Count}   Dst = A * B
  MulAddTo,       // bufs: {Dst, A, B};  ints: {Count}   Dst += A * B
  Scale,          // bufs: {Dst};        ints: {Count};  floats: {Factor}
  Sgemm,          // bufs: {A, B, C};    ints: {M, N, K, LdA, LdB, LdC,
                  //                            TransA, TransB, Accumulate}
  Gather2D,       // bufs: {Dst, Src, Table}; ints: {Rows, Cols, ColBegin,
                  //                                 ColCount}
                  //   Dst[r,c] = Table[r,c] >= 0 ? Src[Table[r,c]] : 0
  ScatterAdd2D,   // bufs: {Dst, Src, Table}; ints: {Rows, Cols, ColBegin,
                  //                                 ColCount}
                  //   if Table[r,c] >= 0: Dst[Table[r,c]] += Src[r,c]
  ActFwdCols,     // bufs: {Dst, Src};   ints: {Op, Rows, Cols, ColBegin,
                  //                            ColCount}
  ActBwdCols,     // bufs: {DstGrad, OutGrad, Value}; ints: {Op, Rows, Cols,
                  //                            ColBegin, ColCount}
  BiasAddCols,    // bufs: {Dst, Bias};  ints: {Rows, Cols, ColBegin,
                  //                            ColCount}  Dst[r,c] += Bias[r]
  BiasAddPerRow,  // bufs: {Dst, Bias};  ints: {Rows, Cols}
                  //                            Dst[r,c] += Bias[c]
  RowSumAdd,      // bufs: {Dst, Src};   ints: {Rows, Cols}  Dst[r] += sum_c
  ColSumAdd,      // bufs: {Dst, Src};   ints: {Rows, Cols}  Dst[c] += sum_r
  Im2ColRows,     // bufs: {Col, Image}; ints: {C, InH, InW, K, S, Pad,
                  //                             RowCount}; exprs: {RowBegin}
                  //   structured conv data-copy (affine windows)
  Col2ImRows,     // bufs: {Image, Col}; ints/exprs as Im2ColRows
                  //   adjoint: accumulate columns back into the image
  MaxPoolFwdRows, // bufs: {Out, In, Mask}; ints: {C, InH, InW, K, S, Pad,
                  //                               RowBegin, RowCount}
  MaxPoolBwdRows, // bufs: {InGrad, OutGrad, Mask}; ints: same as fwd
  AvgPoolFwdRows, // bufs: {Out, In};    ints: {C, InH, InW, K, S, Pad,
                  //                            RowBegin, RowCount}
  AvgPoolBwdRows, // bufs: {InGrad, OutGrad}; ints: same as fwd
  SoftmaxFwd,     // bufs: {Prob, Src};  ints: {Rows, Classes}
  SoftmaxLossFwd, // bufs: {Prob, Src, Labels, Loss}; ints: {Rows, Classes}
  SoftmaxLossBwd, // bufs: {SrcGrad, Prob, Labels}; ints: {Rows, Classes};
                  //                            floats: {Scale}
  SoftmaxBwd,     // bufs: {SrcGrad, OutGrad, Prob}; ints: {Rows, Classes}
                  //   SrcGrad[c] += Prob[c]*(OutGrad[c] - sum(OutGrad*Prob))
  DropoutMask,    // bufs: {Mask};       ints: {Count}; floats: {KeepProb}
};

/// Bitmask of the buffer-argument positions of kernel \p K that name int32
/// buffers (the Table of Gather2D / ScatterAdd2D, the Mask of max pooling)
/// rather than float buffers. The engine, the emitter and the verifier all
/// split a call's buffers by this one table.
inline uint32_t kernelIntBufMask(KernelKind K) {
  switch (K) {
  case KernelKind::Gather2D:
  case KernelKind::ScatterAdd2D:
  case KernelKind::MaxPoolFwdRows:
  case KernelKind::MaxPoolBwdRows:
    return 1u << 2;
  default:
    return 0;
  }
}

/// Activation op codes for ActFwdCols / ActBwdCols (IntArgs[0]).
enum class ActOpKind : int64_t { Relu = 0, Sigmoid = 1, Tanh = 2 };

/// One buffer argument of a kernel call: a named buffer plus an element
/// offset expression (which may reference enclosing loop variables — this is
/// how a GEMM call addresses the current batch item / tile, Figure 12).
struct KernelBufArg {
  std::string Buffer;
  ExprPtr Offset; ///< element offset; null means 0

  KernelBufArg(std::string Buffer, ExprPtr Offset = nullptr)
      : Buffer(std::move(Buffer)), Offset(std::move(Offset)) {}

  KernelBufArg clone() const {
    return KernelBufArg(Buffer, Offset ? Offset->clone() : nullptr);
  }
};

/// Call to a library kernel, produced by the pattern-matching and
/// vectorization passes. Integer arguments are static (shapes are known);
/// their meaning per kernel is documented on KernelKind.
class KernelCallStmt : public Stmt {
public:
  KernelCallStmt(KernelKind Kernel, std::vector<KernelBufArg> Bufs,
                 std::vector<int64_t> IntArgs,
                 std::vector<double> FloatArgs = {},
                 std::vector<ExprPtr> ExprArgs = {})
      : Stmt(Kind::KernelCall), Kernel(Kernel), Bufs(std::move(Bufs)),
        IntArgs(std::move(IntArgs)), FloatArgs(std::move(FloatArgs)),
        ExprArgs(std::move(ExprArgs)) {}

  KernelKind kernel() const { return Kernel; }
  const std::vector<KernelBufArg> &bufs() const { return Bufs; }
  std::vector<KernelBufArg> &bufs() { return Bufs; }
  const std::vector<int64_t> &intArgs() const { return IntArgs; }
  std::vector<int64_t> &intArgs() { return IntArgs; }
  const std::vector<double> &floatArgs() const { return FloatArgs; }
  /// Runtime-evaluated integer arguments (tile-dependent row/column
  /// offsets); meaning per kernel documented on KernelKind.
  const std::vector<ExprPtr> &exprArgs() const { return ExprArgs; }
  std::vector<ExprPtr> &exprArgs() { return ExprArgs; }

  StmtPtr clone() const override;

  static bool classof(const Stmt *S) { return S->kind() == Kind::KernelCall; }

private:
  KernelKind Kernel;
  std::vector<KernelBufArg> Bufs;
  std::vector<int64_t> IntArgs;
  std::vector<double> FloatArgs;
  std::vector<ExprPtr> ExprArgs;
};

/// Fusion-preventing marker (§5.5): the fusion pass never merges tiled loops
/// across a barrier. Synthesis places one around NormalizationEnsembles and
/// recurrent boundaries. Lowering removes it.
class BarrierStmt : public Stmt {
public:
  explicit BarrierStmt(std::string Reason = "")
      : Stmt(Kind::Barrier), Reason(std::move(Reason)) {}

  const std::string &reason() const { return Reason; }

  StmtPtr clone() const override;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Barrier; }

private:
  std::string Reason;
};

/// Returns the printable name of a kernel (used by the printer and tests).
const char *kernelKindName(KernelKind K);

} // namespace ir
} // namespace latte

#endif // LATTE_IR_STMT_H
