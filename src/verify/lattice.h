//===- verify/lattice.h - Optimization-lattice differential oracle --------===//
///
/// \file
/// The differential oracle at the heart of the verification subsystem: one
/// core::Net is compiled under every combination of the CompileOptions
/// optimization switches (PatternMatchGemm, PatternMatchKernels, Tiling,
/// Fusion, Parallelize, VectorKernels, Recompute, Jit — 2^8 lattice
/// points),
/// each variant runs the same seeded inputs/labels/parameters
/// deterministically, and
/// forward outputs plus all parameter gradients must agree with the
/// fully-unoptimized interpreter (mask 0) within tolerance. A failing
/// point reports the first divergent buffer by name with max-abs/rel
/// error, plus the flag set and seeds needed to reproduce it.
///
/// localizeDivergence() narrows a failing flag combination further: the
/// compiler's per-pass snapshots (compiler::compileStaged) are executed in
/// pipeline order and the first stage whose output diverges from the
/// baseline names the offending pass.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_VERIFY_LATTICE_H
#define LATTE_VERIFY_LATTICE_H

#include "compiler/compiler.h"
#include "core/graph.h"

#include <cstdint>
#include <string>
#include <vector>

namespace latte {
namespace verify {

/// Number of swept switches; the lattice has 2^kNumLatticeSwitches points.
constexpr unsigned kNumLatticeSwitches = 8;

/// True when the deep verification tier is requested (LATTE_DEEP=1 in the
/// environment — set by the nightly CI pipeline). Deep-tier consumers
/// sweep all 2^kNumLatticeSwitches masks and run more epochs; the per-PR
/// tier covers a curated subset of equal cost to the pre-recompute
/// lattice.
bool deepTier();

/// The lattice masks to sweep at the current tier. Per-PR: the reference
/// point, the full Recompute-on sub-lattice (the shipping default), the
/// all-but-recompute point, and three JIT probes (JIT alone, JIT over the
/// recompute default, everything on) — 69 masks, about the cost of the
/// old 2^6 sweep. Deep tier (LATTE_DEEP=1): all 2^kNumLatticeSwitches
/// masks. Mask 0 (the reference) is always first.
std::vector<unsigned> sweepMasks();

struct LatticeOptions {
  /// Elementwise agreement: |ref - got| <= AbsTol + RelTol * max(|ref|,
  /// |got|). Defaults absorb float32 reassociation noise (GEMM vs.
  /// interpreted dot products, tiled vs. whole-row accumulation) on the
  /// unit-variance data the harness feeds.
  float AbsTol = 2e-4f;
  float RelTol = 2e-3f;
  uint64_t ParamSeed = 0xA11CE;
  /// Seeds both the random input data and the engine (dropout masks).
  uint64_t DataSeed = 0xDA7A;
  /// Also run backward and compare every parameter gradient and the data
  /// gradient.
  bool CheckGradients = true;
  /// Applied to every lattice point; the defaults make the tiny nets the
  /// tests use actually exercise tiling (the production cost-model default
  /// of MinRowsToTile=32 would leave them untiled).
  int64_t TileSize = 4;
  int64_t MinRowsToTile = 2;
  /// Run the static verifier (analyze::verifyProgram) on every lattice
  /// point's compilation; an Error diagnostic aborts, so a passing lattice
  /// run doubles as a zero-false-positive proof for the verifier.
  bool VerifyEach = false;
};

/// Where a lattice point first disagreed with the reference.
struct BufferDivergence {
  std::string Buffer;
  int64_t Index = -1; ///< first out-of-tolerance element
  float Ref = 0.0f;
  float Got = 0.0f;
  double MaxAbsErr = 0.0; ///< over the whole buffer
  double MaxRelErr = 0.0;
};

struct LatticePointResult {
  unsigned Mask = 0;
  compiler::CompileOptions Opts;
  bool Passed = true;
  BufferDivergence First; ///< meaningful when !Passed
};

struct LatticeReport {
  bool Passed = true;
  int PointsRun = 0;
  int64_t BuffersCompared = 0; ///< per point
  std::string NetDescription;
  uint64_t ParamSeed = 0;
  uint64_t DataSeed = 0;
  std::vector<LatticePointResult> Failures;

  /// Pass/fail overview; on failure, one line per failing point with the
  /// flag string, divergent buffer, errors, and reproduction seeds.
  std::string summary() const;
};

/// Decodes a lattice point: bit 0 = PatternMatchGemm, 1 =
/// PatternMatchKernels, 2 = Tiling, 3 = Fusion, 4 = Parallelize, 5 =
/// VectorKernels, 6 = Recompute, 7 = Jit. Tile geometry comes from \p O.
compiler::CompileOptions optionsForMask(unsigned Mask,
                                        const LatticeOptions &O = {});

/// Renders options as "gemm=1 kernels=0 tiling=1 fusion=0 parallel=0
/// vector=1 recompute=0 jit=0" for failure messages.
std::string flagString(const compiler::CompileOptions &Opts);

/// Runs the full lattice over \p Net. The net must end in a loss ensemble
/// when CheckGradients is set. \p NetDescription is echoed in the report
/// (pass randomNet's return value here).
LatticeReport runLattice(const core::Net &Net, const LatticeOptions &O = {},
                         const std::string &NetDescription = "");

/// Result of per-pass divergence localization.
struct StageDivergence {
  bool Found = false;
  std::string Stage; ///< first diverging pipeline stage ("+tiling", ...)
  BufferDivergence Divergence;
};

/// Executes the per-pass snapshots of compiling \p Net under \p BadOpts
/// (compiler::compileStaged) and returns the first stage whose outputs
/// diverge from the unoptimized baseline beyond \p O's tolerances.
StageDivergence localizeDivergence(const core::Net &Net,
                                   const compiler::CompileOptions &BadOpts,
                                   const LatticeOptions &O = {});

} // namespace verify
} // namespace latte

#endif // LATTE_VERIFY_LATTICE_H
