//===- engine/executor.cpp ------------------------------------*- C++ -*-===//

#include "engine/executor.h"

#include "compiler/codegen_cpp.h"
#include "kernels/dispatch.h"
#include "kernels/elementwise.h"
#include "support/error.h"
#include "support/profile.h"

#include <algorithm>
#include <cmath>
#include <optional>

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

/// Adds \p Trips calls of kernel \p Kind with int args \p IA to the
/// library-kernel counters in \p Out.
void addKernelCost(KernelKind Kind, const int64_t *IA, uint64_t Trips,
                   prof::CounterSet &Out) {
  using prof::Counter;
  Out.add(Counter::KernelCalls, Trips);
  uint64_t Bytes = 0;
  switch (Kind) {
  case KernelKind::Sgemm:
    // ints: {M, N, K, ...} — one multiply-add per inner-product element.
    Out.add(Counter::GemmCalls, Trips);
    Out.add(Counter::Flops, Trips * 2 * static_cast<uint64_t>(IA[0]) *
                                static_cast<uint64_t>(IA[1]) *
                                static_cast<uint64_t>(IA[2]));
    return;
  case KernelKind::Zero:
    Bytes = 4ull * IA[0];
    break;
  case KernelKind::Copy: // read + write
  case KernelKind::Scale:
    Bytes = 8ull * IA[0];
    break;
  case KernelKind::AddTo: // 2 reads + write
  case KernelKind::MulInto:
    Bytes = 12ull * IA[0];
    break;
  case KernelKind::MulAddTo: // 3 reads + write
    Bytes = 16ull * IA[0];
    break;
  case KernelKind::Gather2D: // ints: {Rows, Cols, ColCount}
  case KernelKind::BiasAddCols:
    // value + index (bias) read, write per cell
    Bytes = 12ull * IA[0] * IA[2];
    break;
  case KernelKind::ScatterAdd2D:
    Bytes = 16ull * IA[0] * IA[2];
    break;
  case KernelKind::ActFwdCols: // ints: {Op, Rows, Cols, ColCount}
    Bytes = 8ull * IA[1] * IA[3];
    break;
  case KernelKind::ActBwdCols:
    Bytes = 16ull * IA[1] * IA[3];
    break;
  default:
    break;
  }
  Out.add(Counter::BytesMoved, Trips * Bytes);
}

/// Adds \p Trips runs of \p S to \p Out: every kernel's int args and
/// every loop's extent are compile-time constants, so a unit's counters
/// are each kernel's cost times the trip counts of its enclosing loops.
void addStmtCost(const Stmt *S, uint64_t Trips, prof::CounterSet &Out) {
  auto TripsOf = [Trips](int64_t N) {
    return Trips * static_cast<uint64_t>(std::max<int64_t>(N, 0));
  };
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      addStmtCost(Child.get(), Trips, Out);
    return;
  case Stmt::Kind::For:
    addStmtCost(cast<ForStmt>(S)->body(),
                TripsOf(cast<ForStmt>(S)->extent()), Out);
    return;
  case Stmt::Kind::TiledLoop:
    addStmtCost(cast<TiledLoopStmt>(S)->body(),
                TripsOf(cast<TiledLoopStmt>(S)->numTiles()), Out);
    return;
  case Stmt::Kind::KernelCall: {
    const auto *K = cast<KernelCallStmt>(S);
    addKernelCost(K->kernel(), K->intArgs().data(), Trips, Out);
    return;
  }
  default:
    return;
  }
}

/// Kernel counters per unit of \p Root, in execProgram's unit order.
std::vector<prof::CounterSet> unitCounters(const Stmt *Root) {
  const auto *B = dyn_cast_if_present<const BlockStmt>(Root);
  std::vector<prof::CounterSet> Out(B ? B->stmts().size() : Root ? 1 : 0);
  for (size_t I = 0; I < Out.size(); ++I)
    addStmtCost(B ? B->stmts()[I].get() : Root, 1, Out[I]);
  return Out;
}

} // namespace

void engine::forEachChunk(
    bool Fork, const std::vector<int64_t> &Sizes,
    const std::function<void(size_t, int64_t, int64_t)> &Fn) {
#ifdef LATTE_HAVE_OPENMP
  int64_t Total = 0;
  for (int64_t Size : Sizes)
    Total += Size;
  if (Fork && Total >= kMinForkedElements) {
#pragma omp parallel
    {
      const int64_t T = omp_get_thread_num(), Team = omp_get_num_threads();
      for (size_t I = 0; I < Sizes.size(); ++I) {
        // Boundaries rounded down to 16 floats, so no two threads write
        // one cache line; the last thread takes the ragged end.
        const int64_t Begin = Sizes[I] * T / Team / 16 * 16;
        const int64_t End =
            T + 1 == Team ? Sizes[I] : Sizes[I] * (T + 1) / Team / 16 * 16;
        if (Begin < End)
          Fn(I, Begin, End);
      }
    }
    return;
  }
#endif
  for (size_t I = 0; I < Sizes.size(); ++I)
    if (Sizes[I] > 0)
      Fn(I, 0, Sizes[I]);
}

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
    : Prog(std::move(TheProg)), Opts(Opts) {
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
  if (Opts.Profile) {
    FwdCounters = unitCounters(Prog.Forward.get());
    BwdCounters = unitCounters(Prog.Backward.get());
  }
  setupJit();
  initParams(Opts.Seed);
}

//===----------------------------------------------------------------------===//
// JIT integration
//===----------------------------------------------------------------------===//

void Executor::setupJit() {
  if (!Prog.Jit || Opts.NoJit)
    return;
  if (!jit::available(&JitDiag))
    return;
  compiler::JitSource JS = compiler::generateJitSource(Prog);
  JitMod = jit::JitModule::getOrCreate(JS.Source, &JitDiag);
  if (!JitMod)
    return; // compile/load failed; JitDiag has the reason, interpret all
  // A pass's table holds one entry per unit, then a null entry. A table
  // that is missing or of another length leaves its pass interpreted.
  auto Resolve = [&](const char *Symbol, size_t Units,
                     std::vector<LatteJitTask> &Out) {
    Out.assign(Units, LatteJitTask{});
    const LatteJitTask *Table = JitMod->tasks(Symbol);
    size_t N = 0;
    while (Table && N <= Units && Table[N].fn)
      ++N;
    if (!Table || N != Units) {
      JitDiag = std::string("JIT module's ") + Symbol +
                (Table ? " does not match the program" : " is missing");
      return;
    }
    std::copy(Table, Table + Units, Out.begin());
  };
  Resolve(jit::kForwardTasksSymbol, JS.Forward.size(), JitFwd);
  Resolve(jit::kBackwardTasksSymbol, JS.Backward.size(), JitBwd);
  // Alias-resolved storage pointers in Program declaration order — the
  // indices generated code embeds. Heap storage (Arena / Storage / the
  // int-buffer vectors) is pointer-stable across Executor moves, so these
  // snapshots stay valid; only the views below are refreshed per pass.
  for (const BufferInfo &B : Prog.Buffers)
    CtxBufs.push_back(Buffers.at(B.Name).Data);
  for (const IntBufferInfo &B : Prog.IntBuffers)
    CtxIbufs.push_back(IntBuffers.at(B.Name).data());
  JitActive = jitTaskCount() > 0;
  if (!JitActive && JitDiag.empty())
    JitDiag = "no tasks in this program's JIT module";
}

int Executor::jitTaskCount() const {
  int N = 0;
  for (const LatteJitTask &T : JitFwd)
    N += T.fn != nullptr;
  for (const LatteJitTask &T : JitBwd)
    N += T.fn != nullptr;
  return N;
}

int Executor::jitFallbackCount() const {
  return JitActive ? static_cast<int>(JitFwd.size() + JitBwd.size()) -
                         jitTaskCount()
                   : 0;
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

// With one OpenMP thread a fork only adds a team setup per loop and runs
// the body as an outlined function (2-5% slower on the one-thread LSTM
// step, measured on a 4-vCPU Xeon VM); the serial path computes the same
// bytes, since parallel loops are race-free in both passes.
bool Executor::forksParallelLoops() const {
#ifdef LATTE_HAVE_OPENMP
  return Opts.Parallel && omp_get_max_threads() > 1;
#else
  return Opts.Parallel;
#endif
}

void Executor::zeroAtPassTop(const std::vector<std::string> &Pinned,
                             bool BufferInfo::*ZeroFlag) {
  // Arena mode: only pinned/retained clears happen at pass top; interval
  // buffers are cleared lazily by execProgram (the plan's ZeroBefore
  // schedule) so the clear does not extend their live range.
  std::vector<const BufferRT *> Clears;
  if (PlanActive) {
    for (const std::string &Root : Pinned)
      Clears.push_back(&buffer(Root));
  } else {
    for (const BufferInfo &B : Prog.Buffers)
      if (B.*ZeroFlag)
        Clears.push_back(&buffer(B.Name));
  }
  std::vector<int64_t> Sizes;
  for (const BufferRT *B : Clears)
    Sizes.push_back(B->Count);
  forEachChunk(forksParallelLoops(), Sizes,
               [&](size_t I, int64_t Begin, int64_t End) {
                 kernels::zero(Clears[I]->Data + Begin, End - Begin);
               });
}

void Executor::forward() {
  zeroAtPassTop(Prog.Plan.ZeroOnForwardPinned, &BufferInfo::ZeroOnForward);
  execProgram("forward", Prog.Forward.get(), Prog.ForwardTasks,
              /*GlobalBase=*/0, JitFwd, FwdCounters);
}

void Executor::backward() {
  if (Prog.Inference || !Prog.Backward)
    reportFatalError(
        "backward() called on an inference-compiled program: it has no "
        "backward tasks, gradient buffers, or solver bindings (compiled "
        "via CompileOptions::Inference / compileForward). Recompile in "
        "training mode to run backward.");
  zeroAtPassTop(Prog.Plan.ZeroOnBackwardPinned, &BufferInfo::ZeroOnBackward);
  // Seed the loss gradient path: SoftmaxLossBwd reads probabilities
  // directly, so nothing to do here beyond zeroing. Parallel backward loops
  // are race-free: the compiler partitions parameter-gradient accumulation
  // by output row (compiler/gradpart.h), so synchronized summation is
  // parallel and bitwise deterministic.
  execProgram("backward", Prog.Backward.get(), Prog.BackwardTasks,
              /*GlobalBase=*/Prog.Plan.NumForwardUnits, JitBwd, BwdCounters);
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

void Executor::execProgram(const char *Pass, const Stmt *Root,
                           const std::vector<compiler::TaskLabel> &Labels,
                           int GlobalBase,
                           const std::vector<LatteJitTask> &Tasks,
                           const std::vector<prof::CounterSet> &Counters) {
  Env E;
  E.AllowParallel = forksParallelLoops();
  // Repointed per pass so moved executors stay valid; par is 0 exactly
  // when the interpreter would not fork.
  if (JitActive)
    JitCtx = {CtxBufs.data(), CtxIbufs.data(), E.AllowParallel ? 1 : 0,
              &kernels::dispatch};
  const bool Profiled = Opts.Profile && prof::enabled();
  std::optional<prof::ScopedPhase> Phase;
  std::optional<prof::ScopedTimer> Whole;
  if (Profiled) {
    Phase.emplace(Pass);
    Whole.emplace(Pass);
  }
  // A non-block root (a hand-built program) is one unit, as the memory
  // plan counts it.
  const auto *B = dyn_cast_if_present<const BlockStmt>(Root);
  const size_t NumUnits = B ? B->stmts().size() : Root ? 1 : 0;
  for (size_t I = 0; I < NumUnits; ++I) {
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
    // JIT dispatch table: an entry with a class function replaces
    // interpretation of this unit (kernels still run engine-side via the
    // trampoline).
    const LatteJitTask *Task =
        I < Tasks.size() && Tasks[I].fn ? &Tasks[I] : nullptr;
    // Hand-built programs (engine tests) carry no labels; fall back to the
    // unit index.
    std::optional<prof::ScopedTimer> T;
    if (Profiled)
      T.emplace(I < Labels.size() && !Labels[I].Name.empty()
                    ? Labels[I].Name
                    : "task#" + std::to_string(I));
    if (Task)
      Task->fn(&JitCtx, Task->slots);
    else
      execStmt(B ? B->stmts()[I].get() : Root, E);
    if (!Profiled)
      continue;
    prof::count(prof::Counter::TasksExecuted, 1);
    for (int C = 0; C < prof::NumCounters; ++C)
      if (uint64_t V = Counters[I].Values[C])
        prof::count(static_cast<prof::Counter>(C), V);
  }
}

void Executor::execKernel(const KernelCallStmt *K, Env &E) {
  // Resolve every argument eagerly, then run the one kernel dispatch — the
  // function the JIT's trampoline and the standalone program call too, so
  // every backend is one code path from here on (bitwise identity by
  // construction).
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
  kernels::dispatch(static_cast<int64_t>(K->kernel()), FB, IB,
                    K->intArgs().data(), K->floatArgs().data(), EA);
}
