//===- analyze/races.cpp --------------------------------------*- C++ -*-===//

#include "analyze/races.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

using namespace latte;
using namespace latte::analyze;

namespace {

//===----------------------------------------------------------------------===//
// Feasibility of sum-of-terms hitting a window
//===----------------------------------------------------------------------===//
//
// The element-distance between two access instances decomposes into a sum of
// independent terms: one per parallel dimension, one per footprint level.
// Each term contributes either an arithmetic progression {S*k : k in
// [KMin, KMax]} (optionally excluding k == 0, which encodes "the two
// iterations differ in this dimension") or an explicit value list. The two
// footprints overlap iff the sum can land in the open window
// (-WidthB, WidthA); we decide that with a DFS over terms, pruning with
// suffix min/max sums and narrowing each progression to the k-range that
// can still reach the window.

enum class Feas { No, Yes, Budget };

struct Term {
  int64_t S = 0; ///< progression stride
  int64_t KMin = 0;
  int64_t KMax = 0;
  bool ExcludeZero = false;        ///< k == 0 not allowed (k=0 value may
                                   ///< still arise from another k when S==0)
  std::vector<int64_t> Explicit;   ///< when non-empty, overrides the
                                   ///< progression
  int64_t MinV = 0, MaxV = 0;

  bool isExplicit() const { return !Explicit.empty(); }

  /// Computes MinV/MaxV; returns false when the term has no admissible
  /// value at all (empty iteration range).
  bool finalize() {
    if (isExplicit()) {
      MinV = *std::min_element(Explicit.begin(), Explicit.end());
      MaxV = *std::max_element(Explicit.begin(), Explicit.end());
      return true;
    }
    if (ExcludeZero) {
      // Zero at a boundary just shrinks the contiguous range.
      if (KMin == 0 && KMax == 0)
        return false;
      if (KMin == 0)
        KMin = 1, ExcludeZero = false;
      else if (KMax == 0)
        KMax = -1, ExcludeZero = false;
    }
    if (KMin > KMax)
      return false;
    MinV = std::min(S * KMin, S * KMax);
    MaxV = std::max(S * KMin, S * KMax);
    return true;
  }
};

int64_t floorDiv(int64_t A, int64_t B) {
  int64_t Q = A / B, R = A % B;
  return R != 0 && ((R < 0) != (B < 0)) ? Q - 1 : Q;
}
int64_t ceilDiv(int64_t A, int64_t B) { return -floorDiv(-A, B); }

class Searcher {
public:
  Searcher(std::vector<Term> Terms, int64_t Lo, int64_t Hi)
      : Terms(std::move(Terms)), Lo(Lo), Hi(Hi) {}

  Feas run() {
    // Wide-span terms first: they prune hardest.
    std::sort(Terms.begin(), Terms.end(), [](const Term &A, const Term &B) {
      return (A.MaxV - A.MinV) > (B.MaxV - B.MinV);
    });
    SufMin.assign(Terms.size() + 1, 0);
    SufMax.assign(Terms.size() + 1, 0);
    for (size_t I = Terms.size(); I-- > 0;) {
      SufMin[I] = SufMin[I + 1] + Terms[I].MinV;
      SufMax[I] = SufMax[I + 1] + Terms[I].MaxV;
    }
    return dfs(0, 0);
  }

private:
  Feas dfs(size_t I, int64_t Cur) {
    if (--Budget <= 0)
      return Feas::Budget;
    if (Cur + SufMax[I] < Lo || Cur + SufMin[I] > Hi)
      return Feas::No;
    if (I == Terms.size())
      return Feas::Yes; // window check is the prune above
    const Term &T = Terms[I];
    // Values that can still reach the window given the remaining terms.
    int64_t VLo = Lo - Cur - SufMax[I + 1];
    int64_t VHi = Hi - Cur - SufMin[I + 1];
    bool SawBudget = false;
    auto Step = [&](int64_t V) -> bool {
      Feas F = dfs(I + 1, Cur + V);
      if (F == Feas::Budget)
        SawBudget = true;
      return F == Feas::Yes;
    };
    if (T.isExplicit()) {
      for (int64_t V : T.Explicit)
        if (V >= VLo && V <= VHi && Step(V))
          return Feas::Yes;
      return SawBudget ? Feas::Budget : Feas::No;
    }
    if (T.S == 0) {
      // Every k yields value 0 (any non-excluded k exists after finalize()).
      if (0 >= VLo && 0 <= VHi && Step(0))
        return Feas::Yes;
      return SawBudget ? Feas::Budget : Feas::No;
    }
    int64_t KLo = T.S > 0 ? ceilDiv(VLo, T.S) : ceilDiv(VHi, T.S);
    int64_t KHi = T.S > 0 ? floorDiv(VHi, T.S) : floorDiv(VLo, T.S);
    KLo = std::max(KLo, T.KMin);
    KHi = std::min(KHi, T.KMax);
    for (int64_t K = KLo; K <= KHi; ++K) {
      if (T.ExcludeZero && K == 0)
        continue;
      if (Step(T.S * K))
        return Feas::Yes;
    }
    return SawBudget ? Feas::Budget : Feas::No;
  }

  std::vector<Term> Terms;
  int64_t Lo, Hi;
  std::vector<int64_t> SufMin, SufMax;
  int64_t Budget = 1 << 22;
};

//===----------------------------------------------------------------------===//
// Pairwise overlap across distinct iterations
//===----------------------------------------------------------------------===//

struct ConflictResult {
  bool Conflict = false;
  bool Approx = false;
};

constexpr int64_t kExplicitPairBudget = 4096;

/// Can accesses A (at iteration V1) and B (at iteration V2) with V1 != V2
/// touch a common element? Distance D = addrB(V2) - addrA(V1) must satisfy
/// -WidthB < D < WidthA for some choice of levels and iterations.
ConflictResult overlapDistinct(const Access &A, const Access &B,
                               const std::vector<ParallelDim> &Dims) {
  ConflictResult R;
  R.Approx = !A.Fp.Exact || !B.Fp.Exact;
  int64_t WA = A.Fp.Width, WB = B.Fp.Width;
  if (WA <= 0 || WB <= 0 || Dims.empty())
    return R;

  // Terms independent of which dimension witnesses distinctness.
  std::vector<Term> BaseTerms;
  int64_t ConstD = B.Fp.Base.Const - A.Fp.Base.Const;
  for (const FootprintLevel &L : A.Fp.Levels) {
    Term T;
    T.S = -L.Stride;
    T.KMax = L.Extent - 1;
    BaseTerms.push_back(T);
  }
  for (const FootprintLevel &L : B.Fp.Levels) {
    Term T;
    T.S = L.Stride;
    T.KMax = L.Extent - 1;
    BaseTerms.push_back(T);
  }
  // Any base coefficient outside the parallel dimensions means the
  // footprint was not fully folded — be conservative.
  auto HasUnknownCoeff = [&](const AffineExpr &E) {
    for (const auto &[Var, C] : E.Coeffs) {
      (void)C;
      if (std::none_of(Dims.begin(), Dims.end(),
                       [&](const ParallelDim &D) { return D.Var == Var; }))
        return true;
    }
    return false;
  };
  if (!A.Fp.Base.Affine || !B.Fp.Base.Affine || HasUnknownCoeff(A.Fp.Base) ||
      HasUnknownCoeff(B.Fp.Base)) {
    R.Conflict = true;
    R.Approx = true;
    return R;
  }

  /// Appends the contribution of dimension \p D, either letting both
  /// iterations range freely or constraining them to differ.
  auto AddDimTerms = [&](std::vector<Term> &Terms, int64_t &Const,
                         const ParallelDim &D, bool Constrained,
                         bool &Approx) {
    int64_t CA = A.Fp.Base.coeff(D.Var), CB = B.Fp.Base.coeff(D.Var);
    if (!Constrained) {
      Const += (CB - CA) * D.Lo;
      if (CB != 0) {
        Term T;
        T.S = CB;
        T.KMax = D.Extent - 1;
        Terms.push_back(T);
      }
      if (CA != 0) {
        Term T;
        T.S = -CA;
        T.KMax = D.Extent - 1;
        Terms.push_back(T);
      }
      return;
    }
    if (CA == CB) {
      // D contribution: c * (v2 - v1), v2 != v1.
      Term T;
      T.S = CA;
      T.KMin = -(D.Extent - 1);
      T.KMax = D.Extent - 1;
      T.ExcludeZero = true;
      Terms.push_back(T);
      return;
    }
    if (D.Extent * D.Extent <= kExplicitPairBudget) {
      Term T;
      for (int64_t V1 = D.Lo; V1 < D.Lo + D.Extent; ++V1)
        for (int64_t V2 = D.Lo; V2 < D.Lo + D.Extent; ++V2)
          if (V1 != V2)
            T.Explicit.push_back(CB * V2 - CA * V1);
      if (T.Explicit.empty())
        return; // Extent 1: no distinct pair (caller filters this)
      Terms.push_back(T);
      return;
    }
    // Superset: drop the v1 != v2 constraint for this dimension.
    Approx = true;
    Const += (CB - CA) * D.Lo;
    Term T1;
    T1.S = CB;
    T1.KMax = D.Extent - 1;
    Terms.push_back(T1);
    Term T2;
    T2.S = -CA;
    T2.KMax = D.Extent - 1;
    Terms.push_back(T2);
  };

  auto Feasible = [&](std::vector<Term> Terms, int64_t Const,
                      bool &Approx) -> bool {
    for (Term &T : Terms)
      if (!T.finalize())
        return false;
    Searcher S(std::move(Terms), -WB + 1 - Const, WA - 1 - Const);
    Feas F = S.run();
    if (F == Feas::Budget) {
      Approx = true;
      return true; // cannot prove absence
    }
    return F == Feas::Yes;
  };

  // If some dimension is address-irrelevant to both accesses (and has at
  // least two iterations), any overlap extends to a distinct-iteration
  // overlap for free.
  bool FreeDistinct =
      std::any_of(Dims.begin(), Dims.end(), [&](const ParallelDim &D) {
        return D.Extent >= 2 && A.Fp.Base.coeff(D.Var) == 0 &&
               B.Fp.Base.coeff(D.Var) == 0;
      });
  if (FreeDistinct) {
    std::vector<Term> Terms = BaseTerms;
    int64_t Const = ConstD;
    bool Approx = R.Approx;
    for (const ParallelDim &D : Dims)
      AddDimTerms(Terms, Const, D, /*Constrained=*/false, Approx);
    if (Feasible(std::move(Terms), Const, Approx)) {
      R.Conflict = true;
      R.Approx = Approx;
    }
    return R;
  }

  // Otherwise some dimension must witness v1 != v2; try each in turn.
  for (const ParallelDim &W : Dims) {
    if (W.Extent < 2)
      continue;
    std::vector<Term> Terms = BaseTerms;
    int64_t Const = ConstD;
    bool Approx = R.Approx;
    AddDimTerms(Terms, Const, W, /*Constrained=*/true, Approx);
    for (const ParallelDim &D : Dims)
      if (D.Var != W.Var)
        AddDimTerms(Terms, Const, D, /*Constrained=*/false, Approx);
    if (Feasible(std::move(Terms), Const, Approx)) {
      R.Conflict = true;
      R.Approx = Approx;
      return R;
    }
  }
  return R;
}

std::string dimsString(const std::vector<ParallelDim> &Dims) {
  std::ostringstream OS;
  OS << "{";
  for (size_t I = 0; I < Dims.size(); ++I) {
    if (I)
      OS << ", ";
    OS << Dims[I].Var << " in [" << Dims[I].Lo << ", "
       << Dims[I].Lo + Dims[I].Extent << ")";
  }
  OS << "}";
  return OS.str();
}

} // namespace

void analyze::detectRaces(const UnitEffects &UE, const std::string &TaskLabel,
                          DiagnosticReport &Diags) {
  if (UE.Dims.empty())
    return;
  bool AnyDistinct = std::any_of(
      UE.Dims.begin(), UE.Dims.end(),
      [](const ParallelDim &D) { return D.Extent >= 2; });
  if (!AnyDistinct)
    return; // a single iteration point cannot race with itself

  for (const auto &[Buffer, Accesses] : UE.Effects.Buffers) {
    bool AnyWrite =
        std::any_of(Accesses.begin(), Accesses.end(),
                    [](const Access &A) { return A.Write; });
    if (!AnyWrite)
      continue;
    for (size_t I = 0; I < Accesses.size(); ++I) {
      for (size_t J = I; J < Accesses.size(); ++J) {
        const Access &A = Accesses[I];
        const Access &B = Accesses[J];
        if (!A.Write && !B.Write)
          continue;
        ConflictResult C = overlapDistinct(A, B, UE.Dims);
        if (C.Conflict && (A.HasBound || B.HasBound)) {
          // Inexact window footprints overhang the region they can really
          // touch; the guaranteed bound regions must also meet across
          // distinct iterations for the conflict to be possible.
          Access BA = A;
          if (A.HasBound)
            BA.Fp = A.Bound;
          Access BB = B;
          if (B.HasBound)
            BB.Fp = B.Bound;
          if (!overlapDistinct(BA, BB, UE.Dims).Conflict)
            C.Conflict = false;
        }
        if (!C.Conflict)
          continue;
        std::ostringstream Msg;
        Msg << "iterations of " << dimsString(UE.Dims)
            << " may touch the same element: " << A.Detail << " ["
            << A.Fp.str() << "] vs " << B.Detail << " [" << B.Fp.str()
            << "]";
        Diagnostic *D;
        if (C.Approx) {
          D = &Diags.warning("race.possible",
                             "possible race (conservative footprint): " +
                                 Msg.str());
        } else if (A.Write && B.Write) {
          D = &Diags.error("race.write-write",
                           "write-write race: " + Msg.str());
        } else {
          D = &Diags.error("race.read-write",
                           "read-write race: " + Msg.str());
        }
        D->Task = TaskLabel;
        D->Buffer = Buffer;
      }
    }
  }
}
