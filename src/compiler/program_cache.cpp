//===- compiler/program_cache.cpp -----------------------------*- C++ -*-===//

#include "compiler/program_cache.h"

#include <sstream>

using namespace latte;
using namespace latte::compiler;

namespace {

/// FNV-1a, the same cheap content hash the JIT module cache uses.
struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void bytes(const void *P, size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
  }
  void str(const std::string &S) {
    bytes(S.data(), S.size());
    bytes("\0", 1);
  }
  void i64(int64_t V) { bytes(&V, sizeof V); }
  void f64(double V) { bytes(&V, sizeof V); }
};

std::function<void(const std::string &)> &observerSlot() {
  static std::function<void(const std::string &)> Observer;
  return Observer;
}

} // namespace

ProgramCache &ProgramCache::instance() {
  static ProgramCache C;
  return C;
}

void ProgramCache::setCompileObserverForTests(
    std::function<void(const std::string &)> Observer) {
  observerSlot() = std::move(Observer);
}

std::string ProgramCache::key(const models::ModelSpec &Spec,
                              const CompileOptions &Opts, int64_t BatchSize) {
  Fnv F;
  F.str(Spec.Name);
  for (int64_t D : Spec.InputDims.dims())
    F.i64(D);
  F.i64(Spec.NumClasses);
  for (const models::LayerSpec &L : Spec.Layers) {
    F.i64(static_cast<int64_t>(L.K));
    F.str(L.Name);
    // Graph structure: explicit input edges and weight-sharing groups are
    // program-shaping just like the per-layer scalars.
    F.i64(static_cast<int64_t>(L.Inputs.size()));
    for (const std::string &In : L.Inputs)
      F.str(In);
    F.str(L.ShareWith);
    F.i64(L.Filters);
    F.i64(L.Kernel);
    F.i64(L.Stride);
    F.i64(L.Pad);
    F.i64(L.TimeIndex);
  }
  // Every switch that changes the assembled program. VerifyEach is a
  // checking knob, not a program-shaping one, and is deliberately absent.
  // Keep this list in lockstep with CompileOptions: a missing field lets
  // two option sets alias one cache entry and serve the wrong program
  // (the regression the rekey test pins).
  int64_t Bits = 0;
  for (bool B : {Opts.PatternMatchGemm, Opts.PatternMatchKernels, Opts.Tiling,
                 Opts.Fusion, Opts.Parallelize, Opts.Recompute, Opts.Jit,
                 Opts.Inference})
    Bits = (Bits << 1) | (B ? 1 : 0);
  F.i64(Bits);
  F.i64(Opts.TileSize);
  F.i64(Opts.MinRowsToTile);
  F.i64(BatchSize);

  std::ostringstream Os;
  Os << Spec.Name << ":b" << BatchSize << ":" << std::hex << F.H;
  return Os.str();
}

ProgramCache::ProgramPtr
ProgramCache::getOrCompile(const models::ModelSpec &Spec,
                           const CompileOptions &Opts, int64_t BatchSize) {
  const std::string K = key(Spec, Opts, BatchSize);
  std::shared_future<ProgramPtr> Follower;
  std::promise<ProgramPtr> Lead;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    auto It = Cache.find(K);
    if (It != Cache.end()) {
      ++St.Hits;
      return It->second;
    }
    ++St.Misses;
    auto Fl = InFlight.find(K);
    if (Fl != InFlight.end()) {
      // Single-flight: another thread is compiling this key — wait for its
      // install instead of compiling a duplicate.
      ++St.Coalesced;
      Follower = Fl->second;
    } else {
      InFlight.emplace(K, Lead.get_future().share());
    }
  }
  if (Follower.valid())
    return Follower.get();

  // Leader path: compile outside the lock so distinct keys proceed in
  // parallel. compile() aborts on malformed specs, so no exception path
  // needs to clean up the in-flight entry.
  if (auto &Observer = observerSlot())
    Observer(K);
  core::Net Net(BatchSize);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  auto Prog = std::make_shared<Program>(compile(Net, Opts));
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Cache[K] = Prog; // atomic install: absent -> fully compiled
    ++St.Compiles;
    InFlight.erase(K);
  }
  Lead.set_value(Prog);
  return Prog;
}

ProgramCache::ProgramPtr
ProgramCache::lookup(const models::ModelSpec &Spec, const CompileOptions &Opts,
                     int64_t BatchSize) const {
  const std::string K = key(Spec, Opts, BatchSize);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Cache.find(K);
  return It != Cache.end() ? It->second : nullptr;
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Cache.clear();
  St = {};
}
