//===- jit/jit_backend.h - In-process JIT compilation backend --*- C++ -*-===//
///
/// \file
/// Compiles generated C++ (compiler::generateJitSource) into a shared
/// object with the system compiler, dlopens it, and hands out its per-pass
/// task tables. Objects are keyed by a content hash of the generated
/// source (plus compile flags and the ABI version), cached in a directory
/// reused across runs — recompiling the same program is a cache hit, not a
/// compile — and shared process-wide through a registry, so data-parallel
/// workers that compile identical per-worker programs load one module.
/// Builds are single-flight per hash: concurrent callers with one source
/// wait for one compile, and distinct sources compile in parallel.
///
/// Environment:
///   LATTE_JIT=0        kill switch — jit::available() turns false
///   LATTE_JIT_DIR      cache directory (default $XDG_CACHE_HOME/latte-jit
///                      or /tmp/latte-jit-<uid>)
///   LATTE_JIT_CC       compiler command (default: the compiler that built
///                      this binary, baked in by CMake; then "c++")
///
/// Failure policy: a compile failure or a dlopen failure of a
/// freshly-built object records a diagnostic and returns null — the
/// engine falls back to the interpreter, it never crashes. A corrupt
/// *pre-existing* cached object (failed dlopen or ABI-version mismatch)
/// is deleted and recompiled once.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_JIT_JIT_BACKEND_H
#define LATTE_JIT_JIT_BACKEND_H

#include "jit/jit_abi.h"

#include <cstdint>
#include <memory>
#include <string>

namespace latte {
namespace jit {

/// Cumulative backend counters (process-wide), for tests and diagnostics.
struct Stats {
  int64_t Compiles = 0;      ///< source actually compiled to a new .so
  int64_t DiskCacheHits = 0; ///< .so found in the cache dir and loaded
  int64_t MemCacheHits = 0;  ///< live or in-flight module reused
  int64_t LoadFailures = 0;  ///< dlopen / ABI-version failures observed
};

/// One loaded shared object. Destroying the last shared_ptr dlcloses it;
/// the process-wide registry holds weak references only.
class JitModule {
public:
  /// Loads (or compiles, or reuses) the module for \p Source. Returns
  /// null with a human-readable reason in \p Diag on failure.
  static std::shared_ptr<JitModule> getOrCreate(const std::string &Source,
                                                std::string *Diag = nullptr);

  JitModule(const JitModule &) = delete;
  JitModule &operator=(const JitModule &) = delete;
  ~JitModule();

  /// Resolves an exported task table (jit::kForwardTasksSymbol,
  /// kBackwardTasksSymbol); null when absent.
  const LatteJitTask *tasks(const char *Symbol) const;

  /// Content hash (hex) keying this module in the cache.
  const std::string &hash() const { return Hash; }

private:
  /// Loads \p Hash's cached object or compiles \p Source; the leader's
  /// half of getOrCreate, run without the registry lock.
  static std::shared_ptr<JitModule> loadOrCompile(const std::string &Source,
                                                  const std::string &Hash,
                                                  std::string *Diag);
  JitModule(void *Handle, std::string Hash)
      : Handle(Handle), Hash(std::move(Hash)) {}
  void *Handle = nullptr;
  std::string Hash;
};

/// True when the backend can be used at all. False under sanitizer builds
/// (dlopened uninstrumented code is unsafe to mix with ASan/TSan) and when
/// LATTE_JIT=0 is set; \p WhyNot receives the reason.
bool available(std::string *WhyNot = nullptr);

/// The cache directory (created on demand). See header comment for the
/// resolution order.
std::string cacheDir();

/// The system-compiler flags for generated C++: -O3, the host build's arch
/// and OpenMP flags, and the two that keep compiled loop nests bitwise
/// equal to the interpreter (-ffp-contract=off, and
/// -fno-tree-loop-if-convert against a GCC 12 wrong-code bug; see
/// jit_backend.cpp). JIT modules are built with `-fPIC -shared` added
/// (\p SharedObject); the standalone program (compiler::generateCpp) with
/// exactly these flags, linked against liblatte.a.
std::string compileFlags(bool SharedObject);

/// Content hash (hex) of \p Source combined with the compile flags and
/// kLatteJitAbiVersion — the cache key getOrCreate uses.
std::string hashSource(const std::string &Source);

/// Cached object path for a hash (exists only after a compile).
std::string cachedObjectPath(const std::string &Hash);

Stats stats();
void resetStats();

} // namespace jit
} // namespace latte

#endif // LATTE_JIT_JIT_BACKEND_H
