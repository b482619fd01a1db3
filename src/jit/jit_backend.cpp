//===- jit/jit_backend.cpp ------------------------------------*- C++ -*-===//

#include "jit/jit_backend.h"

#include "support/string_utils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <mutex>

#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace latte;
using namespace latte::jit;

namespace {

/// Guards the registry, the in-flight builds and the stats; never held
/// across a compile.
std::mutex RegistryMutex;
std::map<std::string, std::weak_ptr<JitModule>> &registry() {
  static std::map<std::string, std::weak_ptr<JitModule>> R;
  return R;
}

/// What a build hands its waiters: the module, or null and the reason.
struct Built {
  std::shared_ptr<JitModule> Module;
  std::string Diag;
};

/// Builds under way, by hash (the single-flight idiom of
/// compiler::ProgramCache).
std::map<std::string, std::shared_future<Built>> &inFlight() {
  static std::map<std::string, std::shared_future<Built>> F;
  return F;
}

Stats &statsImpl() {
  static Stats S;
  return S;
}

void count(int64_t Stats::*Counter) {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  ++(statsImpl().*Counter);
}

std::string compilerCommand() {
  if (const char *Env = std::getenv("LATTE_JIT_CC"))
    if (Env[0])
      return Env;
#ifdef LATTE_JIT_DEFAULT_CC
  return LATTE_JIT_DEFAULT_CC;
#else
  return "c++";
#endif
}

bool makeDir(const std::string &Path) {
  return ::mkdir(Path.c_str(), 0755) == 0 || errno == EEXIST;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

uint64_t fnv1a(const char *Data, size_t N, uint64_t H = 0xcbf29ce484222325ull) {
  for (size_t I = 0; I < N; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Last ~20 lines of the compiler's captured stderr, for diagnostics.
std::string tailOfFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return "";
  std::string All;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof Buf, F)) > 0)
    All.append(Buf, N);
  std::fclose(F);
  size_t Pos = All.size();
  for (int Lines = 0; Pos > 0 && Lines < 20; --Pos)
    if (All[Pos - 1] == '\n')
      ++Lines;
  return All.substr(Pos);
}

/// dlopens \p Path and checks the exported ABI version. Returns null with
/// a reason when the object cannot be used.
void *loadAndCheck(const std::string &Path, std::string *Why) {
  void *Handle = ::dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    if (Why)
      *Why = std::string("dlopen failed: ") + ::dlerror();
    return nullptr;
  }
  using VersionFn = int64_t (*)();
  auto Version = reinterpret_cast<VersionFn>(
      ::dlsym(Handle, "latte_jit_abi_version"));
  if (!Version || Version() != kLatteJitAbiVersion) {
    if (Why)
      *Why = Version ? formatString("ABI version mismatch (object %lld, "
                                    "engine %lld)",
                                    static_cast<long long>(Version()),
                                    static_cast<long long>(kLatteJitAbiVersion))
                     : "object exports no latte_jit_abi_version";
    ::dlclose(Handle);
    return nullptr;
  }
  return Handle;
}

} // namespace

bool jit::available(std::string *WhyNot) {
#ifdef LATTE_JIT_DISABLED
  if (WhyNot)
    *WhyNot = "JIT disabled in this build (sanitizers cannot instrument "
              "dlopened code)";
  return false;
#else
  if (const char *Env = std::getenv("LATTE_JIT"))
    if (Env[0] == '0') {
      if (WhyNot)
        *WhyNot = "JIT disabled by LATTE_JIT=0";
      return false;
    }
  return true;
#endif
}

/// -ffp-contract=off keeps the host compiler from fusing a*b+c into FMA —
/// the interpreter performs each float operation separately, and bitwise
/// identity requires the compiled loop nests to do the same. Kernels are
/// not compiled here: they run in the library through the trampoline.
/// -O3 plus the host build's arch flags (baked in by CMake) compile the
/// loop nests for the ISA the library was built for.
/// -fno-tree-loop-if-convert works around a GCC 12 wrong-code bug: at -O3
/// -march=native, loop if-conversion miscompiles the emitter's gated
/// accumulates (gi[i] += v[i] > 0 ? g[i] : 0 keeps stale values in some
/// lanes — reproducible in a 12-line standalone file, caught here by
/// jit_diff_test as garbage gradients).
std::string jit::compileFlags(bool SharedObject) {
  return std::string("-std=c++17 -O3") +
         (SharedObject ? " -fPIC -shared" : "") +
         " -ffp-contract=off -fno-tree-loop-if-convert"
#ifdef LATTE_JIT_ARCH_FLAGS
         " " LATTE_JIT_ARCH_FLAGS
#endif
#ifdef LATTE_HAVE_OPENMP
         " -fopenmp"
#endif
      ;
}

std::string jit::cacheDir() {
  std::string Dir;
  if (const char *Env = std::getenv("LATTE_JIT_DIR"))
    if (Env[0])
      Dir = Env;
  if (Dir.empty()) {
    if (const char *Xdg = std::getenv("XDG_CACHE_HOME"))
      if (Xdg[0]) {
        makeDir(Xdg);
        Dir = std::string(Xdg) + "/latte-jit";
      }
  }
  if (Dir.empty())
    Dir = formatString("/tmp/latte-jit-%ld", static_cast<long>(::getuid()));
  makeDir(Dir);
  return Dir;
}

std::string jit::hashSource(const std::string &Source) {
  uint64_t H = fnv1a(Source.data(), Source.size());
  std::string Salt =
      formatString("|abi=%lld|%s|", static_cast<long long>(kLatteJitAbiVersion),
                   compileFlags(/*SharedObject=*/true).c_str());
  H = fnv1a(Salt.data(), Salt.size(), H);
  // A second pass with a different seed widens the key to 128 bits;
  // accidental collisions over cache lifetimes are then implausible.
  uint64_t H2 = fnv1a(Source.data(), Source.size(), H ^ 0x9e3779b97f4a7c15ull);
  return formatString("%016llx%016llx", static_cast<unsigned long long>(H),
                      static_cast<unsigned long long>(H2));
}

std::string jit::cachedObjectPath(const std::string &Hash) {
  return cacheDir() + "/latte_" + Hash + ".so";
}

Stats jit::stats() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  return statsImpl();
}

void jit::resetStats() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  statsImpl() = Stats();
}

JitModule::~JitModule() {
  if (Handle)
    ::dlclose(Handle);
}

const LatteJitTask *JitModule::tasks(const char *Symbol) const {
  return static_cast<const LatteJitTask *>(::dlsym(Handle, Symbol));
}

std::shared_ptr<JitModule>
JitModule::getOrCreate(const std::string &Source, std::string *Diag) {
  std::string Hash = hashSource(Source);
  std::shared_future<Built> Follower;
  std::promise<Built> Lead;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    // Live module already loaded in this process (e.g. another
    // data-parallel worker compiled the same per-worker program)?
    auto It = registry().find(Hash);
    if (It != registry().end()) {
      if (std::shared_ptr<JitModule> M = It->second.lock()) {
        ++statsImpl().MemCacheHits;
        return M;
      }
      registry().erase(It);
    }
    // Another thread is building this hash: wait for its result instead
    // of compiling a duplicate.
    auto Fl = inFlight().find(Hash);
    if (Fl != inFlight().end()) {
      ++statsImpl().MemCacheHits;
      Follower = Fl->second;
    } else {
      inFlight().emplace(Hash, Lead.get_future().share());
    }
  }
  Built B;
  if (Follower.valid()) {
    B = Follower.get();
  } else {
    // Leader: load or compile outside the lock, so distinct hashes build
    // in parallel.
    B.Module = loadOrCompile(Source, Hash, &B.Diag);
    {
      std::lock_guard<std::mutex> Lock(RegistryMutex);
      if (B.Module)
        registry()[Hash] = B.Module;
      inFlight().erase(Hash);
    }
    Lead.set_value(B);
  }
  if (!B.Module && Diag)
    *Diag = B.Diag;
  return B.Module;
}

std::shared_ptr<JitModule>
JitModule::loadOrCompile(const std::string &Source, const std::string &Hash,
                         std::string *Diag) {
  std::string ObjPath = cachedObjectPath(Hash);
  std::string Why;

  // Disk cache from an earlier run. A corrupt or stale object is deleted
  // and recompiled below instead of failing the whole backend.
  if (fileExists(ObjPath)) {
    if (void *Handle = loadAndCheck(ObjPath, &Why)) {
      count(&Stats::DiskCacheHits);
      return std::shared_ptr<JitModule>(new JitModule(Handle, Hash));
    }
    count(&Stats::LoadFailures);
    std::remove(ObjPath.c_str());
  }

  // Compile. Temp names + rename keep concurrent processes from reading a
  // half-written object.
  std::string Dir = cacheDir();
  std::string Tag = formatString("%ld", static_cast<long>(::getpid()));
  std::string SrcPath = Dir + "/latte_" + Hash + "." + Tag + ".cpp";
  std::string TmpObj = Dir + "/latte_" + Hash + "." + Tag + ".so.tmp";
  std::string LogPath = Dir + "/latte_" + Hash + "." + Tag + ".log";
  {
    // fclose flushes the last buffered bytes, so a full disk can first
    // show there.
    std::FILE *F = std::fopen(SrcPath.c_str(), "w");
    bool Written = F && std::fwrite(Source.data(), 1, Source.size(), F) ==
                            Source.size();
    if ((F && std::fclose(F) != 0) || !Written) {
      std::remove(SrcPath.c_str());
      *Diag = "cannot write generated source to " + SrcPath;
      return nullptr;
    }
  }
  std::string Cmd = compilerCommand() + " " +
                    compileFlags(/*SharedObject=*/true) + " -o '" + TmpObj +
                    "' '" + SrcPath + "' >'" + LogPath + "' 2>&1";
  int Rc = std::system(Cmd.c_str());
  if (Rc != 0) {
    *Diag = "JIT compile failed (" + compilerCommand() +
            "): " + tailOfFile(LogPath);
    std::remove(SrcPath.c_str());
    std::remove(TmpObj.c_str());
    std::remove(LogPath.c_str());
    return nullptr;
  }
  std::rename(TmpObj.c_str(), ObjPath.c_str());
  std::remove(SrcPath.c_str());
  std::remove(LogPath.c_str());

  void *Handle = loadAndCheck(ObjPath, &Why);
  if (!Handle) {
    // Freshly built and still unloadable: give up (don't loop).
    count(&Stats::LoadFailures);
    *Diag = "freshly compiled object unusable: " + Why;
    return nullptr;
  }
  count(&Stats::Compiles);
  return std::shared_ptr<JitModule>(new JitModule(Handle, Hash));
}
