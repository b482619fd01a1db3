//===- engine/executor.cpp ------------------------------------*- C++ -*-===//

#include "engine/executor.h"

#include "compiler/codegen_cpp.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/pooling.h"
#include "kernels/softmax.h"
#include "support/error.h"
#include "support/profile.h"

#include <cmath>

#ifdef LATTE_HAVE_OPENMP
#include <omp.h>
#endif

using namespace latte;
using namespace latte::engine;
using namespace latte::compiler;
using namespace latte::ir;

namespace {

/// Small scoped environment: loop variables and float locals. Lookup is a
/// linear scan — the vectors hold a handful of entries.
struct EnvImpl {
  std::vector<std::pair<std::string, int64_t>> IntVars;
  std::vector<std::pair<std::string, float>> FloatVars;
};

/// Whether parallel loops fork. With one OpenMP thread a fork only adds a
/// team setup per loop and runs the body as an outlined function (2-5%
/// slower on the one-thread LSTM step, measured on a 4-vCPU Xeon VM); the
/// serial path computes the same bytes, since parallel loops are race-free
/// in both passes.
bool forkParallelLoops(const ExecOptions &Opts) {
#ifdef LATTE_HAVE_OPENMP
  return Opts.Parallel && omp_get_max_threads() > 1;
#else
  return Opts.Parallel;
#endif
}

/// Labels reach the loss kernels from outside (dataset files, callers'
/// writeBuffer): one outside [0, Classes), or NaN, would index past the
/// probability row. Checked on the float, before the cast.
int64_t checkedLabel(float Label, int64_t Classes) {
  if (!(Label >= 0.0f && Label < static_cast<float>(Classes)))
    reportFatalError("softmax loss: label " + std::to_string(Label) +
                     " is outside [0, " + std::to_string(Classes) + ")");
  return static_cast<int64_t>(Label);
}

} // namespace

struct Executor::Env : EnvImpl {
  bool AllowParallel = false;

  int64_t lookupInt(const std::string &Name) const {
    for (auto It = IntVars.rbegin(); It != IntVars.rend(); ++It)
      if (It->first == Name)
        return It->second;
    reportFatalError("unbound loop variable '" + Name + "'");
  }
  float *lookupFloat(const std::string &Name) {
    for (auto It = FloatVars.rbegin(); It != FloatVars.rend(); ++It)
      if (It->first == Name)
        return &It->second;
    return nullptr;
  }
  const float *lookupFloat(const std::string &Name) const {
    return const_cast<Env *>(this)->lookupFloat(Name);
  }
};

Executor::Executor(Program TheProg, ExecOptions Opts)
    : Prog(std::move(TheProg)), Opts(Opts),
      DropoutRng(Opts.Seed ^ 0xd20b0a7) {
  // Storage: either one aligned arena carved up by the compiler's memory
  // plan, or (eager mode) one private region per alias root.
  PlanActive = !Opts.NoMemPlan && Prog.Plan.Valid;
  std::unordered_map<std::string, size_t> OwnerIndex;
  if (PlanActive) {
    // Over-allocate by one alignment quantum and align the base by hand.
    Arena.assign(static_cast<size_t>(Prog.Plan.ArenaBytes / 4 +
                                     Prog.Plan.Alignment / 4),
                 0.0f);
    uintptr_t Raw = reinterpret_cast<uintptr_t>(Arena.data());
    uintptr_t Mask = static_cast<uintptr_t>(Prog.Plan.Alignment) - 1;
    ArenaBase = reinterpret_cast<float *>((Raw + Mask) & ~Mask);
    if (prof::enabled()) {
      prof::count(prof::Counter::ArenaBytes, Prog.Plan.ArenaBytes);
      prof::count(prof::Counter::EagerBytes, Prog.Plan.EagerBytes);
    }
  } else {
    Storage.reserve(Prog.Buffers.size());
    int64_t EagerBytes = 0;
    for (const BufferInfo &B : Prog.Buffers) {
      if (!B.AliasOf.empty())
        continue;
      OwnerIndex[B.Name] = Storage.size();
      Storage.emplace_back(B.Dims);
      EagerBytes += B.Dims.numElements() * 4;
    }
    if (prof::enabled())
      prof::count(prof::Counter::EagerBytes, EagerBytes);
  }
  if (prof::enabled() && !Prog.Recomputes.empty()) {
    int64_t Flops = 0, Saved = 0;
    for (const RecomputeInfo &RI : Prog.Recomputes) {
      Flops += RI.Flops;
      Saved += RI.Bytes;
    }
    prof::count(prof::Counter::RecomputeFlops, Flops);
    // The bytes the plan no longer retains across the fwd/bwd boundary —
    // the memory half of the recompute trade (only realized when the
    // planned arena is active).
    if (PlanActive)
      prof::count(prof::Counter::RetainedBytesSaved, Saved);
  }
  for (const BufferInfo &B : Prog.Buffers) {
    BufferRT RT;
    RT.Dims = B.Dims;
    RT.Strides = B.Dims.strides();
    RT.Count = B.Dims.numElements();
    RT.ZeroOnForward = B.ZeroOnForward;
    RT.ZeroOnBackward = B.ZeroOnBackward;
    const BufferInfo *Root = Prog.resolveAlias(B.Name);
    if (!Root)
      reportFatalError("buffer '" + B.Name + "' has no resolvable storage");
    if (!Root->AliasOf.empty())
      reportFatalError("buffer '" + B.Name + "' aliases unknown '" +
                       Root->AliasOf + "'");
    if (Root->Dims.numElements() != RT.Count)
      reportFatalError("alias '" + B.Name + "' does not match the size of '" +
                       Root->Name + "'");
    if (PlanActive) {
      auto It = Prog.Plan.Offsets.find(Root->Name);
      if (It == Prog.Plan.Offsets.end())
        reportFatalError("memory plan has no offset for root '" +
                         Root->Name + "'");
      RT.Data = ArenaBase + It->second / 4;
    } else {
      RT.Data = Storage[OwnerIndex.at(Root->Name)].data();
    }
    Buffers[B.Name] = std::move(RT);
  }
  for (const IntBufferInfo &B : Prog.IntBuffers) {
    if (B.isStatic())
      IntBuffers[B.Name] = B.Entries;
    else
      IntBuffers[B.Name].assign(static_cast<size_t>(B.Count), 0);
  }
  // Honor the verified-program label invariant (analyze::verifyProgram,
  // program.task-labels): profiling attributes trace spans to units by
  // position, so a non-parallel label vector would mislabel every span.
  auto CheckLabels = [](const Stmt *Root, const std::vector<TaskLabel> &Labels,
                        const char *Which) {
    if (Labels.empty() || !Root)
      return; // hand-built programs carry no labels
    const auto *B = dyn_cast<BlockStmt>(Root);
    size_t Units = B ? B->stmts().size() : 1;
    if (Labels.size() != Units)
      reportFatalError(std::string(Which) +
                       " task labels are not parallel to the program units (" +
                       std::to_string(Labels.size()) + " labels, " +
                       std::to_string(Units) + " units)");
  };
  CheckLabels(Prog.Forward.get(), Prog.ForwardTasks, "forward");
  CheckLabels(Prog.Backward.get(), Prog.BackwardTasks, "backward");
  setupJit();
  initParams(Opts.Seed);
}

//===----------------------------------------------------------------------===//
// JIT integration
//===----------------------------------------------------------------------===//

namespace {

/// The kernel trampoline generated code calls back through (its address is
/// planted in LatteJitCtx::kernel; generated code never names it). Plain
/// function with the exact ABI signature, casting the opaque self pointer
/// back to the executor.
void latteJitKernelBridge(void *Self, int64_t Kind, float **FB, int32_t **IB,
                          const int64_t *IA, const double *FA,
                          const int64_t *EA) {
  static_cast<Executor *>(Self)->execKernelResolved(
      static_cast<KernelKind>(Kind), FB, IB, IA, FA, EA);
}

} // namespace

void Executor::setupJit() {
  if (!Prog.Jit || Opts.NoJit)
    return;
  if (!jit::available(&JitDiag))
    return;
  compiler::JitSource JS = compiler::generateJitSource(Prog);
  JitMod = jit::JitModule::getOrCreate(JS.Source, &JitDiag);
  if (!JitMod)
    return; // compile/load failed; JitDiag has the reason, interpret all
  auto Resolve = [&](const std::vector<compiler::JitTaskInfo> &Infos,
                     std::vector<jit::TaskFn> &Out) {
    for (const compiler::JitTaskInfo &Info : Infos)
      // A jittable task whose symbol is somehow absent falls back too.
      Out.push_back(Info.Jittable ? JitMod->symbol(Info.Symbol) : nullptr);
  };
  Resolve(JS.Forward, JitFwd);
  Resolve(JS.Backward, JitBwd);
  // Alias-resolved storage pointers in Program declaration order — the
  // indices generated code embeds. Heap storage (Arena / Storage / the
  // int-buffer vectors) is pointer-stable across Executor moves, so these
  // snapshots stay valid; only the views below are refreshed per pass.
  for (const BufferInfo &B : Prog.Buffers)
    CtxBufs.push_back(Buffers.at(B.Name).Data);
  for (const IntBufferInfo &B : Prog.IntBuffers)
    CtxIbufs.push_back(IntBuffers.at(B.Name).data());
  for (jit::TaskFn Fn : JitFwd)
    JitActive |= Fn != nullptr;
  for (jit::TaskFn Fn : JitBwd)
    JitActive |= Fn != nullptr;
  if (!JitActive && JitDiag.empty())
    JitDiag = "no jittable tasks in this program";
}

void Executor::refreshJitCtx() {
  JitCtx.self = this;
  JitCtx.bufs = CtxBufs.data();
  JitCtx.ibufs = CtxIbufs.data();
  JitCtx.par = 0;
  JitCtx.kernel = &latteJitKernelBridge;
}

int Executor::jitTaskCount() const {
  int N = 0;
  for (jit::TaskFn Fn : JitFwd)
    N += Fn != nullptr;
  for (jit::TaskFn Fn : JitBwd)
    N += Fn != nullptr;
  return N;
}

int Executor::jitFallbackCount() const {
  if (!JitActive)
    return 0;
  int N = 0;
  for (jit::TaskFn Fn : JitFwd)
    N += Fn == nullptr;
  for (jit::TaskFn Fn : JitBwd)
    N += Fn == nullptr;
  return N;
}

const Executor::BufferRT &Executor::buffer(const std::string &Name) const {
  auto It = Buffers.find(Name);
  if (It == Buffers.end())
    reportFatalError("unknown buffer '" + Name + "'");
  return It->second;
}

Executor::BufferRT &Executor::buffer(const std::string &Name) {
  return const_cast<BufferRT &>(
      static_cast<const Executor *>(this)->buffer(Name));
}

int32_t *Executor::intBuffer(const std::string &Name) {
  auto It = IntBuffers.find(Name);
  if (It == IntBuffers.end())
    reportFatalError("unknown index buffer '" + Name + "'");
  return It->second.data();
}

float *Executor::data(const std::string &Name) {
  return buffer(Name).Data;
}
const float *Executor::data(const std::string &Name) const {
  return buffer(Name).Data;
}
const Shape &Executor::shape(const std::string &Name) const {
  return buffer(Name).Dims;
}
int64_t Executor::size(const std::string &Name) const {
  return buffer(Name).Count;
}

void Executor::setInput(const Tensor &T) {
  if (Prog.DataBuffer.empty())
    reportFatalError("program has no data ensemble");
  writeBuffer(Prog.DataBuffer, T);
}

void Executor::setLabels(const Tensor &T) {
  if (Prog.LabelBuffer.empty())
    reportFatalError("program has no label ensemble");
  writeBuffer(Prog.LabelBuffer, T);
}

Tensor Executor::readBuffer(const std::string &Name) const {
  const BufferRT &B = buffer(Name);
  Tensor T(B.Dims);
  kernels::copy(T.data(), B.Data, B.Count);
  return T;
}

void Executor::writeBuffer(const std::string &Name, const Tensor &T) {
  BufferRT &B = buffer(Name);
  if (T.numElements() != B.Count)
    reportFatalError("writeBuffer('" + Name + "'): element count mismatch");
  kernels::copy(B.Data, T.data(), B.Count);
}

void Executor::initParams(uint64_t Seed) {
  Rng R(Seed);
  for (const BufferInfo &B : Prog.Buffers) {
    if (B.Role != BufferRole::Param || !B.AliasOf.empty())
      continue;
    BufferRT &RT = buffer(B.Name);
    Tensor View(B.Dims);
    switch (B.Init) {
    case core::FieldInitKind::Zero:
      View.zero();
      break;
    case core::FieldInitKind::Constant:
      View.fill(B.InitValue);
      break;
    case core::FieldInitKind::Xavier:
      R.fillXavier(View, B.FanIn > 0 ? B.FanIn : B.Dims.numElements());
      break;
    case core::FieldInitKind::Gaussian:
      R.fillGaussian(View, 0.0f, B.InitValue);
      break;
    }
    kernels::copy(RT.Data, View.data(), RT.Count);
  }
}

void Executor::shareParamsFrom(const Executor &Src) {
  // Collect this program's Param-role alias roots, then repoint the root
  // and every alias member at the source's storage. CtxBufs (the JIT's
  // buffer table snapshot) is refreshed in lockstep so generated code sees
  // the shared weights too.
  for (const BufferInfo &B : Prog.Buffers) {
    const BufferInfo *Root = Prog.resolveAlias(B.Name);
    if (!Root || Root->Role != BufferRole::Param)
      continue;
    auto It = Src.Buffers.find(B.Name);
    if (It == Src.Buffers.end())
      reportFatalError("shareParamsFrom: source executor has no parameter "
                       "buffer '" + B.Name + "'");
    BufferRT &Mine = buffer(B.Name);
    if (It->second.Count != Mine.Count)
      reportFatalError("shareParamsFrom: parameter '" + B.Name +
                       "' shape mismatch (" + std::to_string(Mine.Count) +
                       " vs " + std::to_string(It->second.Count) +
                       " elements)");
    Mine.Data = It->second.Data;
  }
  if (!CtxBufs.empty())
    for (size_t I = 0; I < Prog.Buffers.size(); ++I)
      CtxBufs[I] = Buffers.at(Prog.Buffers[I].Name).Data;
}

void Executor::forward() {
  // Deterministic mode: every forward pass draws the same dropout masks, so
  // repeated forwards over the same inputs are bitwise identical (finite
  // differencing and cross-variant comparisons rely on this).
  if (Opts.Deterministic)
    DropoutRng = Rng(Opts.Seed ^ 0xd20b0a7);
  if (PlanActive) {
    // Arena mode: only pinned/retained clears happen at pass top; interval
    // buffers are cleared lazily by execProgram (the plan's ZeroBefore
    // schedule) so the clear does not extend their live range.
    for (const std::string &Root : Prog.Plan.ZeroOnForwardPinned)
      kernels::zero(buffer(Root).Data, buffer(Root).Count);
  } else {
    for (const BufferInfo &B : Prog.Buffers)
      if (B.ZeroOnForward)
        kernels::zero(buffer(B.Name).Data, buffer(B.Name).Count);
  }
  Env E;
  E.AllowParallel = forkParallelLoops(Opts);
  const std::vector<jit::TaskFn> *Fns = JitActive ? &JitFwd : nullptr;
  if (JitActive)
    refreshJitCtx();
  if (Opts.Profile && prof::enabled()) {
    prof::ScopedPhase Phase("forward");
    prof::ScopedTimer Whole("forward");
    ProfActive = true;
    execProgram(Prog.Forward.get(), Prog.ForwardTasks, E, /*Profiled=*/true,
                /*GlobalBase=*/0, Fns);
    ProfActive = false;
    return;
  }
  if (PlanActive || JitActive) {
    execProgram(Prog.Forward.get(), Prog.ForwardTasks, E, /*Profiled=*/false,
                /*GlobalBase=*/0, Fns);
    return;
  }
  execStmt(Prog.Forward.get(), E);
}

void Executor::backward() {
  if (Prog.Inference || !Prog.Backward)
    reportFatalError(
        "backward() called on an inference-compiled program: it has no "
        "backward tasks, gradient buffers, or solver bindings (compiled "
        "via CompileOptions::Inference / compileForward). Recompile in "
        "training mode to run backward.");
  if (PlanActive) {
    for (const std::string &Root : Prog.Plan.ZeroOnBackwardPinned)
      kernels::zero(buffer(Root).Data, buffer(Root).Count);
  } else {
    for (const BufferInfo &B : Prog.Buffers)
      if (B.ZeroOnBackward)
        kernels::zero(buffer(B.Name).Data, buffer(B.Name).Count);
  }
  // Seed the loss gradient path: SoftmaxLossBwd reads probabilities
  // directly, so nothing to do here beyond zeroing.
  Env E;
  // Parallel backward loops are race-free: the compiler partitions
  // parameter-gradient accumulation by output row (compiler/gradpart.h),
  // so synchronized summation is parallel and bitwise deterministic.
  E.AllowParallel = forkParallelLoops(Opts);
  const int Base = Prog.Plan.NumForwardUnits;
  const std::vector<jit::TaskFn> *Fns = JitActive ? &JitBwd : nullptr;
  if (JitActive)
    refreshJitCtx();
  if (Opts.Profile && prof::enabled()) {
    prof::ScopedPhase Phase("backward");
    prof::ScopedTimer Whole("backward");
    ProfActive = true;
    execProgram(Prog.Backward.get(), Prog.BackwardTasks, E,
                /*Profiled=*/true, /*GlobalBase=*/Base, Fns);
    ProfActive = false;
    return;
  }
  if (PlanActive || JitActive) {
    execProgram(Prog.Backward.get(), Prog.BackwardTasks, E,
                /*Profiled=*/false, /*GlobalBase=*/Base, Fns);
    return;
  }
  execStmt(Prog.Backward.get(), E);
}

double Executor::lossValue() const {
  if (Prog.LossBuffer.empty())
    return 0.0;
  const BufferRT &B = buffer(Prog.LossBuffer);
  double Sum = 0;
  for (int64_t I = 0; I < B.Count; ++I)
    Sum += B.Data[I];
  return Sum / static_cast<double>(B.Count);
}

double Executor::accuracy() const {
  if (Prog.ProbBuffer.empty() || Prog.LabelBuffer.empty())
    return 0.0;
  const BufferRT &P = buffer(Prog.ProbBuffer);
  const BufferRT &L = buffer(Prog.LabelBuffer);
  int64_t Rows = Prog.BatchSize;
  int64_t Classes = P.Count / Rows;
  int64_t Correct = 0;
  for (int64_t R = 0; R < Rows; ++R) {
    const float *Row = P.Data + R * Classes;
    int64_t Best = 0;
    for (int64_t C = 1; C < Classes; ++C)
      if (Row[C] > Row[Best])
        Best = C;
    if (Best == static_cast<int64_t>(L.Data[R]))
      ++Correct;
  }
  return static_cast<double>(Correct) / static_cast<double>(Rows);
}

//===----------------------------------------------------------------------===//
// Interpretation
//===----------------------------------------------------------------------===//

int64_t Executor::evalInt(const Expr *Ex, Env &E) const {
  switch (Ex->kind()) {
  case Expr::Kind::IntConst:
    return cast<IntConstExpr>(Ex)->value();
  case Expr::Kind::Var:
    return E.lookupInt(cast<VarExpr>(Ex)->name());
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(Ex);
    int64_t L = evalInt(B->lhs(), E), R = evalInt(B->rhs(), E);
    switch (B->op()) {
    case BinaryOpKind::Add:
      return L + R;
    case BinaryOpKind::Sub:
      return L - R;
    case BinaryOpKind::Mul:
      return L * R;
    case BinaryOpKind::Div:
      assert(R != 0 && "integer division by zero in index expression");
      return L / R;
    case BinaryOpKind::Min:
      return std::min(L, R);
    case BinaryOpKind::Max:
      return std::max(L, R);
    }
    latteUnreachable("unknown binary op");
  }
  default:
    reportFatalError("expression is not integer-evaluable");
  }
}

float Executor::evalFloat(const Expr *Ex, Env &E) const {
  switch (Ex->kind()) {
  case Expr::Kind::IntConst:
    return static_cast<float>(cast<IntConstExpr>(Ex)->value());
  case Expr::Kind::FloatConst:
    return static_cast<float>(cast<FloatConstExpr>(Ex)->value());
  case Expr::Kind::Var: {
    const std::string &Name = cast<VarExpr>(Ex)->name();
    if (const float *F = E.lookupFloat(Name))
      return *F;
    return static_cast<float>(E.lookupInt(Name));
  }
  case Expr::Kind::Load: {
    const auto *L = cast<LoadExpr>(Ex);
    const BufferRT &B = buffer(L->buffer());
    assert(static_cast<int>(L->indices().size()) == B.Dims.rank() &&
           "load index rank mismatch");
    int64_t Off = 0;
    for (size_t I = 0; I < L->indices().size(); ++I)
      Off += evalInt(L->indices()[I].get(), E) * B.Strides[I];
    assert(Off >= 0 && Off < B.Count && "load out of bounds");
    return B.Data[Off];
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(Ex);
    float L = evalFloat(B->lhs(), E), R = evalFloat(B->rhs(), E);
    switch (B->op()) {
    case BinaryOpKind::Add:
      return L + R;
    case BinaryOpKind::Sub:
      return L - R;
    case BinaryOpKind::Mul:
      return L * R;
    case BinaryOpKind::Div:
      return L / R;
    case BinaryOpKind::Min:
      return std::min(L, R);
    case BinaryOpKind::Max:
      return std::max(L, R);
    }
    latteUnreachable("unknown binary op");
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(Ex);
    float V = evalFloat(U->operand(), E);
    switch (U->op()) {
    case UnaryOpKind::Neg:
      return -V;
    case UnaryOpKind::Exp:
      return std::exp(V);
    case UnaryOpKind::Log:
      return std::log(V);
    case UnaryOpKind::Tanh:
      return std::tanh(V);
    case UnaryOpKind::Sigmoid:
      return 1.0f / (1.0f + std::exp(-V));
    case UnaryOpKind::Sqrt:
      return std::sqrt(V);
    case UnaryOpKind::Abs:
      return std::fabs(V);
    }
    latteUnreachable("unknown unary op");
  }
  case Expr::Kind::Compare: {
    const auto *C = cast<CompareExpr>(Ex);
    float L = evalFloat(C->lhs(), E), R = evalFloat(C->rhs(), E);
    bool Result = false;
    switch (C->op()) {
    case CompareOpKind::LT:
      Result = L < R;
      break;
    case CompareOpKind::LE:
      Result = L <= R;
      break;
    case CompareOpKind::GT:
      Result = L > R;
      break;
    case CompareOpKind::GE:
      Result = L >= R;
      break;
    case CompareOpKind::EQ:
      Result = L == R;
      break;
    case CompareOpKind::NE:
      Result = L != R;
      break;
    }
    return Result ? 1.0f : 0.0f;
  }
  case Expr::Kind::Select: {
    const auto *S = cast<SelectExpr>(Ex);
    return evalFloat(S->cond(), E) != 0.0f
               ? evalFloat(S->trueValue(), E)
               : evalFloat(S->falseValue(), E);
  }
  }
  latteUnreachable("unknown expression kind");
}

namespace {

void applyAccum(float *Target, AccumKind Op, float V) {
  switch (Op) {
  case AccumKind::Assign:
    *Target = V;
    return;
  case AccumKind::AddAssign:
    *Target += V;
    return;
  case AccumKind::MulAssign:
    *Target *= V;
    return;
  case AccumKind::MaxAssign:
    *Target = std::max(*Target, V);
    return;
  case AccumKind::MinAssign:
    *Target = std::min(*Target, V);
    return;
  }
  latteUnreachable("unknown accumulation kind");
}

} // namespace

void Executor::execStmt(const Stmt *S, Env &E) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      execStmt(Child.get(), E);
    return;
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    int64_t Lo = evalInt(F->lo(), E);
    int64_t Extent = F->extent();
    bool Par = F->annotations().Parallel && E.AllowParallel;

    // Collapsed batch x tile parallel loop (§5.4.3).
    const TiledLoopStmt *CollapsedTile = nullptr;
    if (Par && F->annotations().Collapse == 2)
      if (const auto *Body = dyn_cast<BlockStmt>(F->body()))
        if (Body->stmts().size() == 1)
          CollapsedTile = dyn_cast<TiledLoopStmt>(Body->stmts()[0].get());

    if (Par && CollapsedTile) {
      int64_t Tiles = CollapsedTile->numTiles();
      int64_t Total = Extent * Tiles;
#ifdef LATTE_HAVE_OPENMP
#pragma omp parallel for schedule(static, 1)
#endif
      for (int64_t I = 0; I < Total; ++I) {
        Env Local = E;
        Local.AllowParallel = false;
        Local.IntVars.emplace_back(F->var(), Lo + I / Tiles);
        Local.IntVars.emplace_back(CollapsedTile->tileVar(), I % Tiles);
        execStmt(CollapsedTile->body(), Local);
      }
      return;
    }
    if (Par && Extent > 1) {
#ifdef LATTE_HAVE_OPENMP
#pragma omp parallel for schedule(static, 1)
#endif
      for (int64_t I = 0; I < Extent; ++I) {
        Env Local = E;
        Local.AllowParallel = false;
        Local.IntVars.emplace_back(F->var(), Lo + I);
        execStmt(F->body(), Local);
      }
      return;
    }
    E.IntVars.emplace_back(F->var(), 0);
    for (int64_t I = 0; I < Extent; ++I) {
      E.IntVars.back().second = Lo + I;
      execStmt(F->body(), E);
    }
    E.IntVars.pop_back();
    return;
  }
  case Stmt::Kind::TiledLoop: {
    const auto *T = cast<TiledLoopStmt>(S);
    E.IntVars.emplace_back(T->tileVar(), 0);
    for (int64_t I = 0; I < T->numTiles(); ++I) {
      E.IntVars.back().second = I;
      execStmt(T->body(), E);
    }
    E.IntVars.pop_back();
    return;
  }
  case Stmt::Kind::Store: {
    const auto *St = cast<StoreStmt>(S);
    BufferRT &B = buffer(St->buffer());
    assert(static_cast<int>(St->indices().size()) == B.Dims.rank() &&
           "store index rank mismatch");
    int64_t Off = 0;
    for (size_t I = 0; I < St->indices().size(); ++I)
      Off += evalInt(St->indices()[I].get(), E) * B.Strides[I];
    assert(Off >= 0 && Off < B.Count && "store out of bounds");
    applyAccum(B.Data + Off, St->op(), evalFloat(St->value(), E));
    return;
  }
  case Stmt::Kind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    E.FloatVars.emplace_back(D->name(), evalFloat(D->init(), E));
    return;
  }
  case Stmt::Kind::AssignVar: {
    const auto *A = cast<AssignVarStmt>(S);
    float *Target = E.lookupFloat(A->name());
    if (!Target)
      reportFatalError("assignment to undeclared local '" + A->name() + "'");
    applyAccum(Target, A->op(), evalFloat(A->value(), E));
    return;
  }
  case Stmt::Kind::KernelCall:
    execKernel(cast<KernelCallStmt>(S), E);
    return;
  case Stmt::Kind::Barrier:
    return; // fusion metadata only
  }
  latteUnreachable("unknown statement kind");
}

void Executor::execProgram(const Stmt *Root,
                           const std::vector<compiler::TaskLabel> &Labels,
                           Env &E, bool Profiled, int GlobalBase,
                           const std::vector<jit::TaskFn> *Fns) {
  const auto *B = dyn_cast_if_present<const BlockStmt>(Root);
  if (!B) {
    if (Root)
      execStmt(Root, E);
    return;
  }
  if (Fns)
    JitCtx.par = E.AllowParallel ? 1 : 0;
  const std::vector<StmtPtr> &Stmts = B->stmts();
  for (size_t I = 0; I < Stmts.size(); ++I) {
    if (PlanActive) {
      // Lazy zeroing: interval-allocated ZeroOn* roots are cleared right
      // before their first referencing unit. Any buffer previously sharing
      // these bytes is already past its last use.
      auto It = Prog.Plan.ZeroBefore.find(GlobalBase + static_cast<int>(I));
      if (It != Prog.Plan.ZeroBefore.end())
        for (const std::string &Name : It->second) {
          BufferRT &RT = buffer(Name);
          kernels::zero(RT.Data, RT.Count);
        }
    }
    // JIT dispatch table: a non-null entry replaces interpretation of
    // this unit (kernels still run engine-side via the trampoline).
    jit::TaskFn Fn = Fns && I < Fns->size() ? (*Fns)[I] : nullptr;
    if (!Profiled) {
      if (Fn)
        Fn(&JitCtx);
      else
        execStmt(Stmts[I].get(), E);
      continue;
    }
    // Hand-built programs (engine tests) carry no labels; fall back to the
    // unit index.
    std::string Name = I < Labels.size() && !Labels[I].Name.empty()
                           ? Labels[I].Name
                           : "task#" + std::to_string(I);
    prof::ScopedTimer T(std::move(Name));
    if (Fn)
      Fn(&JitCtx);
    else
      execStmt(Stmts[I].get(), E);
    prof::count(prof::Counter::TasksExecuted, 1);
  }
}

void Executor::profileKernel(KernelKind Kind, const int64_t *IA) const {
  using prof::Counter;
  prof::count(Counter::KernelCalls, 1);
  switch (Kind) {
  case KernelKind::Sgemm: {
    // ints: {M, N, K, ...} — one multiply-add per inner-product element.
    uint64_t MNK = static_cast<uint64_t>(IA[0]) *
                   static_cast<uint64_t>(IA[1]) *
                   static_cast<uint64_t>(IA[2]);
    prof::count(Counter::GemmCalls, 1);
    prof::count(Counter::Flops, 2 * MNK);
    return;
  }
  case KernelKind::Zero:
    prof::count(Counter::BytesMoved, 4ull * IA[0]);
    return;
  case KernelKind::Copy:
    prof::count(Counter::BytesMoved, 8ull * IA[0]); // read + write
    return;
  case KernelKind::AddTo:
  case KernelKind::MulInto:
    prof::count(Counter::BytesMoved, 12ull * IA[0]); // 2 reads + write
    return;
  case KernelKind::MulAddTo:
    prof::count(Counter::BytesMoved, 16ull * IA[0]); // 3 reads + write
    return;
  case KernelKind::Scale:
    prof::count(Counter::BytesMoved, 8ull * IA[0]);
    return;
  case KernelKind::Gather2D:
    // ints: {Rows, Cols, ColCount} — value + index read, write per cell.
    prof::count(Counter::BytesMoved, 12ull * IA[0] * IA[2]);
    return;
  case KernelKind::ScatterAdd2D:
    prof::count(Counter::BytesMoved, 16ull * IA[0] * IA[2]);
    return;
  case KernelKind::ActFwdCols:
    // ints: {Op, Rows, Cols, ColCount} — read + write per cell.
    prof::count(Counter::BytesMoved, 8ull * IA[1] * IA[3]);
    return;
  case KernelKind::ActBwdCols:
    prof::count(Counter::BytesMoved, 16ull * IA[1] * IA[3]);
    return;
  case KernelKind::BiasAddCols:
    // ints: {Rows, Cols, ColCount} — value read + bias read + write.
    prof::count(Counter::BytesMoved, 12ull * IA[0] * IA[2]);
    return;
  default:
    return;
  }
}

void Executor::execKernel(const KernelCallStmt *K, Env &E) {
  // Resolve every argument eagerly, then run the shared dispatch — the
  // same entry the JIT's kernel trampoline calls, so both paths are one
  // code path from here on (bitwise identity by construction).
  assert(K->bufs().size() <= static_cast<size_t>(jit::kMaxKernelBufs) &&
         "kernel has more buffer args than the resolved ABI carries");
  assert(K->exprArgs().size() <=
             static_cast<size_t>(jit::kMaxKernelExprArgs) &&
         "kernel has more expr args than the resolved ABI carries");
  float *FB[jit::kMaxKernelBufs] = {nullptr, nullptr, nullptr, nullptr};
  int32_t *IB[jit::kMaxKernelBufs] = {nullptr, nullptr, nullptr, nullptr};
  uint32_t IntMask = kernelIntBufMask(K->kernel());
  for (size_t I = 0; I < K->bufs().size(); ++I) {
    const KernelBufArg &A = K->bufs()[I];
    int64_t Off = A.Offset ? evalInt(A.Offset.get(), E) : 0;
    if (IntMask & (1u << I))
      IB[I] = intBuffer(A.Buffer) + Off;
    else
      FB[I] = buffer(A.Buffer).Data + Off;
  }
  int64_t EA[jit::kMaxKernelExprArgs] = {0, 0};
  for (size_t I = 0; I < K->exprArgs().size(); ++I)
    EA[I] = evalInt(K->exprArgs()[I].get(), E);
  execKernelResolved(K->kernel(), FB, IB, K->intArgs().data(),
                     K->floatArgs().data(), EA);
}

void Executor::execKernelResolved(KernelKind Kind, float *const *FB,
                                  int32_t *const *IB, const int64_t *IA,
                                  const double *FA, const int64_t *EA) {
  if (ProfActive)
    profileKernel(Kind, IA);
  auto FloatArg = [&](size_t I) -> float * { return FB[I]; };
  auto IntArg = [&](size_t I) -> int32_t * { return IB[I]; };
  auto ExprArg = [&](size_t I) -> int64_t { return EA[I]; };

  switch (Kind) {
  case KernelKind::Zero:
    kernels::zero(FloatArg(0), IA[0]);
    return;
  case KernelKind::Copy:
    kernels::copy(FloatArg(0), FloatArg(1), IA[0]);
    return;
  case KernelKind::AddTo:
    kernels::addTo(FloatArg(0), FloatArg(1), IA[0]);
    return;
  case KernelKind::MulInto:
    kernels::mulInto(FloatArg(0), FloatArg(1), FloatArg(2), IA[0]);
    return;
  case KernelKind::MulAddTo:
    kernels::mulAddTo(FloatArg(0), FloatArg(1), FloatArg(2), IA[0]);
    return;
  case KernelKind::Scale:
    kernels::scale(FloatArg(0), static_cast<float>(FA[0]), IA[0]);
    return;
  case KernelKind::Sgemm: {
    // ints: {M, N, K, LdA, LdB, LdC, TransA, TransB, Accumulate}
    auto Gemm = Opts.VectorKernels ? kernels::sgemm : kernels::sgemmNaive;
    Gemm(IA[6] != 0, IA[7] != 0, IA[0], IA[1], IA[2], FloatArg(0), IA[3],
         FloatArg(1), IA[4], FloatArg(2), IA[5], IA[8] != 0);
    return;
  }
  case KernelKind::Gather2D: {
    // ints: {Rows, Cols, ColCount}; exprs: {ColBegin}
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2], Cb = ExprArg(0);
    float *Dst = FloatArg(0);
    const float *Src = FloatArg(1);
    const int32_t *Table = IntArg(2);
    auto GatherFn =
        Opts.VectorKernels ? kernels::gather : kernels::gatherScalar;
    for (int64_t R = 0; R < Rows; ++R)
      GatherFn(Dst + R * Cols + Cb, Src, Table + R * Cols + Cb, Cnt);
    return;
  }
  case KernelKind::ScatterAdd2D: {
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2], Cb = ExprArg(0);
    float *Dst = FloatArg(0);
    const float *Src = FloatArg(1);
    const int32_t *Table = IntArg(2);
    for (int64_t R = 0; R < Rows; ++R)
      kernels::scatterAdd(Dst, Src + R * Cols + Cb, Table + R * Cols + Cb,
                          Cnt);
    return;
  }
  case KernelKind::ActFwdCols: {
    // ints: {Op, Rows, Cols, ColCount}; exprs: {ColBegin}
    auto Op = static_cast<ActOpKind>(IA[0]);
    int64_t Rows = IA[1], Cols = IA[2], Cnt = IA[3], Cb = ExprArg(0);
    float *Dst = FloatArg(0);
    const float *Src = FloatArg(1);
    for (int64_t R = 0; R < Rows; ++R) {
      float *D = Dst + R * Cols + Cb;
      const float *Sp = Src + R * Cols + Cb;
      switch (Op) {
      case ActOpKind::Relu:
        (Opts.VectorKernels ? kernels::reluFwd : kernels::reluFwdScalar)(
            D, Sp, Cnt);
        break;
      case ActOpKind::Sigmoid:
        kernels::sigmoidFwd(D, Sp, Cnt);
        break;
      case ActOpKind::Tanh:
        kernels::tanhFwd(D, Sp, Cnt);
        break;
      }
    }
    return;
  }
  case KernelKind::ActBwdCols: {
    // ints: {Op, Rows, Cols, ColCount, InPlace}; exprs: {ColBegin}
    auto Op = static_cast<ActOpKind>(IA[0]);
    int64_t Rows = IA[1], Cols = IA[2], Cnt = IA[3], Cb = ExprArg(0);
    bool InPlace = IA[4] != 0;
    float *DstG = FloatArg(0);
    const float *OutG = FloatArg(1);
    const float *Val = FloatArg(2);
    for (int64_t R = 0; R < Rows; ++R) {
      int64_t Base = R * Cols + Cb;
      float *Dg = DstG + Base;
      const float *Og = OutG + Base;
      const float *V = Val + Base;
      switch (Op) {
      case ActOpKind::Relu:
        if (InPlace) {
          for (int64_t I = 0; I < Cnt; ++I)
            Dg[I] = V[I] > 0.0f ? Og[I] : 0.0f;
        } else {
          (Opts.VectorKernels ? kernels::reluBwd
                              : kernels::reluBwdScalar)(Dg, Og, V, Cnt);
        }
        break;
      case ActOpKind::Sigmoid:
        for (int64_t I = 0; I < Cnt; ++I) {
          float D = Og[I] * V[I] * (1.0f - V[I]);
          Dg[I] = InPlace ? D : Dg[I] + D;
        }
        break;
      case ActOpKind::Tanh:
        for (int64_t I = 0; I < Cnt; ++I) {
          float D = Og[I] * (1.0f - V[I] * V[I]);
          Dg[I] = InPlace ? D : Dg[I] + D;
        }
        break;
      }
    }
    return;
  }
  case KernelKind::BiasAddCols: {
    // ints: {Rows, Cols, ColCount}; exprs: {ColBegin}
    int64_t Rows = IA[0], Cols = IA[1], Cnt = IA[2], Cb = ExprArg(0);
    float *Dst = FloatArg(0);
    const float *Bias = FloatArg(1);
    for (int64_t R = 0; R < Rows; ++R)
      kernels::addScalar(Dst + R * Cols + Cb, Bias[R], Cnt);
    return;
  }
  case KernelKind::BiasAddPerRow: {
    int64_t Rows = IA[0], Cols = IA[1];
    float *Dst = FloatArg(0);
    const float *Bias = FloatArg(1);
    for (int64_t R = 0; R < Rows; ++R)
      kernels::addTo(Dst + R * Cols, Bias, Cols);
    return;
  }
  case KernelKind::RowSumAdd: {
    int64_t Rows = IA[0], Cols = IA[1];
    float *Dst = FloatArg(0);
    const float *Src = FloatArg(1);
    for (int64_t R = 0; R < Rows; ++R)
      Dst[R] += kernels::sum(Src + R * Cols, Cols);
    return;
  }
  case KernelKind::ColSumAdd: {
    int64_t Rows = IA[0], Cols = IA[1];
    float *Dst = FloatArg(0);
    const float *Src = FloatArg(1);
    for (int64_t R = 0; R < Rows; ++R)
      kernels::addTo(Dst, Src + R * Cols, Cols);
    return;
  }
  case KernelKind::Im2ColRows:
  case KernelKind::Col2ImRows: {
    kernels::ConvGeometry G;
    G.Channels = IA[0];
    G.Height = IA[1];
    G.Width = IA[2];
    G.KernelH = G.KernelW = IA[3];
    G.StrideH = G.StrideW = IA[4];
    G.PadH = G.PadW = IA[5];
    int64_t Rc = IA[6], Rb = ExprArg(0);
    if (Kind == KernelKind::Im2ColRows)
      kernels::im2colRows(FloatArg(1), G, FloatArg(0), Rb, Rc);
    else
      kernels::col2imRows(FloatArg(1), G, FloatArg(0), Rb, Rc);
    return;
  }
  case KernelKind::MaxPoolFwdRows:
  case KernelKind::MaxPoolBwdRows:
  case KernelKind::AvgPoolFwdRows:
  case KernelKind::AvgPoolBwdRows: {
    // ints: {C, InH, InW, K, S, Pad, RowCount}; exprs: {RowBegin}
    kernels::ConvGeometry G;
    G.Channels = IA[0];
    G.Height = IA[1];
    G.Width = IA[2];
    G.KernelH = G.KernelW = IA[3];
    G.StrideH = G.StrideW = IA[4];
    G.PadH = G.PadW = IA[5];
    int64_t Rc = IA[6], Rb = ExprArg(0);
    switch (Kind) {
    case KernelKind::MaxPoolFwdRows:
      kernels::maxPoolFwdRows(FloatArg(1), G, FloatArg(0), IntArg(2), Rb,
                              Rc);
      return;
    case KernelKind::MaxPoolBwdRows:
      kernels::maxPoolBwdRows(FloatArg(1), G, IntArg(2), FloatArg(0), Rb,
                              Rc);
      return;
    case KernelKind::AvgPoolFwdRows:
      kernels::avgPoolFwdRows(FloatArg(1), G, FloatArg(0), Rb, Rc);
      return;
    case KernelKind::AvgPoolBwdRows:
      kernels::avgPoolBwdRows(FloatArg(1), G, FloatArg(0), Rb, Rc);
      return;
    default:
      latteUnreachable("pool kernel dispatch");
    }
  }
  case KernelKind::SoftmaxFwd: {
    int64_t Rows = IA[0], Classes = IA[1];
    float *Dst = FloatArg(0);
    const float *Src = FloatArg(1);
    for (int64_t R = 0; R < Rows; ++R)
      kernels::softmaxFwd(Dst + R * Classes, Src + R * Classes, Classes);
    return;
  }
  case KernelKind::SoftmaxLossFwd: {
    int64_t Rows = IA[0], Classes = IA[1];
    float *Prob = FloatArg(0);
    const float *Src = FloatArg(1);
    const float *Labels = FloatArg(2);
    float *Loss = FloatArg(3);
    for (int64_t R = 0; R < Rows; ++R) {
      kernels::softmaxFwd(Prob + R * Classes, Src + R * Classes, Classes);
      Loss[R] = kernels::crossEntropyLoss(Prob + R * Classes, Classes,
                                          checkedLabel(Labels[R], Classes));
    }
    return;
  }
  case KernelKind::SoftmaxLossBwd: {
    int64_t Rows = IA[0], Classes = IA[1];
    float Scale = static_cast<float>(FA[0]);
    float *Grad = FloatArg(0);
    const float *Prob = FloatArg(1);
    const float *Labels = FloatArg(2);
    for (int64_t R = 0; R < Rows; ++R)
      kernels::softmaxLossBwd(Grad + R * Classes, Prob + R * Classes,
                              Classes, checkedLabel(Labels[R], Classes),
                              Scale);
    return;
  }
  case KernelKind::SoftmaxBwd: {
    int64_t Rows = IA[0], Classes = IA[1];
    float *Gin = FloatArg(0);
    const float *Og = FloatArg(1);
    const float *P = FloatArg(2);
    for (int64_t R = 0; R < Rows; ++R) {
      const float *Ogr = Og + R * Classes;
      const float *Pr = P + R * Classes;
      float Dot = 0.0f;
      for (int64_t C = 0; C < Classes; ++C)
        Dot += Ogr[C] * Pr[C];
      float *G = Gin + R * Classes;
      for (int64_t C = 0; C < Classes; ++C)
        G[C] += Pr[C] * (Ogr[C] - Dot);
    }
    return;
  }
  case KernelKind::DropoutMask: {
    int64_t Count = IA[0];
    float Keep = static_cast<float>(FA[0]);
    float *Mask = FloatArg(0);
    float Inv = Keep > 0.0f ? 1.0f / Keep : 0.0f;
    for (int64_t I = 0; I < Count; ++I)
      Mask[I] = DropoutRng.uniform() < Keep ? Inv : 0.0f;
    return;
  }
  }
  latteUnreachable("unknown kernel kind");
}
