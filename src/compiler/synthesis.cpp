//===- compiler/synthesis.cpp ---------------------------------*- C++ -*-===//

#include "compiler/synthesis.h"

#include "ir/printer.h"
#include "ir/visitor.h"
#include "support/error.h"

#include <algorithm>
#include <unordered_map>

using namespace latte;
using namespace latte::compiler;
using namespace latte::core;
using namespace latte::ir;

namespace {

/// Batch-item offset expression: n * Stride.
ExprPtr nOff(int64_t Stride) { return mul(var("n"), intConst(Stride)); }

class Synthesizer {
public:
  Synthesizer(const Net &TheNet, const CompileOptions &Opts, Program &Prog)
      : TheNet(TheNet), Opts(Opts), Prog(Prog) {}

  SynthesisResult run();

private:
  // Buffer declaration helpers -------------------------------------------
  BufferInfo &declareBuffer(const std::string &Name, Shape Dims,
                            BufferRole Role, std::string AliasOf = "") {
    assert(!Prog.findBuffer(Name) && "duplicate buffer declaration");
    BufferInfo Info;
    Info.Name = Name;
    Info.Dims = std::move(Dims);
    Info.Role = Role;
    Info.AliasOf = std::move(AliasOf);
    Prog.Buffers.push_back(std::move(Info));
    return Prog.Buffers.back();
  }

  void declareTable(const std::string &Name, std::vector<int32_t> Entries) {
    IntBufferInfo Info;
    Info.Name = Name;
    Info.Count = static_cast<int64_t>(Entries.size());
    Info.Entries = std::move(Entries);
    Prog.IntBuffers.push_back(std::move(Info));
  }

  void declareIntBuffer(const std::string &Name, int64_t Count) {
    IntBufferInfo Info;
    Info.Name = Name;
    Info.Count = Count;
    Prog.IntBuffers.push_back(std::move(Info));
  }

  // Per-ensemble synthesis -------------------------------------------------
  void processEnsemble(Ensemble *E);
  void handleData(Ensemble *E);
  void handleNorm(Ensemble *E);
  void handleNeuronEnsemble(Ensemble *E);

  bool tryWeightedFc(Ensemble *E, const ConnectionInfo &Info);
  bool tryWeightedTimeFc(Ensemble *E, const ConnectionInfo &Info);
  bool tryWeightedConv(Ensemble *E, const ConnectionInfo &Info);
  bool tryPool(Ensemble *E, const ConnectionInfo &Info);
  bool tryActivation(Ensemble *E, const ConnectionInfo &Info);
  bool trySumMul(Ensemble *E, const std::vector<ConnectionInfo> &Infos);
  void synthesizeInterpreted(Ensemble *E,
                             const std::vector<ConnectionInfo> &Infos);

  // Shared pieces ----------------------------------------------------------
  NeuronContext contextFor(const std::vector<ConnectionInfo> &Infos) const {
    NeuronContext Ctx;
    for (const ConnectionInfo &I : Infos)
      Ctx.InputLengths.push_back(I.WindowVolume);
    return Ctx;
  }

  /// Declares value and grad buffers for \p E. In-place activations alias
  /// their VALUE onto the source (the paragraph-3.2 memory optimization);
  /// gradients always get private storage, because backward propagation
  /// accumulates with += into the source gradient -- accumulating through
  /// an alias of the very gradient being consumed would double-count.
  void declareValueGrad(Ensemble *E, bool InPlace) {
    Shape VDims = E->dims().withPrefix(Batch);
    if (InPlace) {
      Ensemble *Src = E->inputs()[0].Source;
      declareBuffer(E->valueBuffer(), VDims, BufferRole::Value,
                    Src->valueBuffer());
    } else {
      declareBuffer(E->valueBuffer(), VDims, BufferRole::Value);
    }
    BufferInfo &G = declareBuffer(E->gradBuffer(), VDims, BufferRole::Grad);
    G.ZeroOnBackward = true;
  }

  /// Declares field (and grad-field) buffers for every field of \p E's
  /// neuron type. \p DefaultElem resolves fields declared with an empty
  /// shape (the window-sized weights of WeightedNeuron).
  void declareFields(Ensemble *E, const Shape &DefaultElem);

  /// Shape of a field's buffer: storage dims + element dims.
  Shape fieldBufferShape(const FieldStorage &S) const {
    std::vector<int64_t> Dims = S.StorageDims.dims();
    for (int64_t D : S.ElemDims.dims())
      Dims.push_back(D);
    return Shape(Dims);
  }

  /// Resolved storage for field \p F on ensemble \p E (explicit storage or
  /// the identity default).
  FieldStorage resolvedStorage(Ensemble *E, const FieldSpec &F,
                               const Shape &DefaultElem) const {
    if (const FieldStorage *S = E->findFieldStorage(F.Name)) {
      FieldStorage R = *S;
      if (R.ElemDims.rank() == 0)
        R.ElemDims = F.Dims.rank() > 0 ? F.Dims : DefaultElem;
      return R;
    }
    FieldStorage R;
    R.StorageDims = E->dims();
    R.ElemDims = F.Dims.rank() > 0 ? F.Dims : DefaultElem;
    return R;
  }

  /// Builds the gather table for connection \p Conn of ensemble \p E with
  /// analysis \p Info: layout [WindowVolume][NonSharedVolume], entries are
  /// source-item-linear indices or -1 for out-of-bounds (padding).
  std::vector<int32_t> buildGatherTable(Ensemble *E, const Connection &Conn,
                                        const ConnectionInfo &Info) const;

  const Net &TheNet;
  const CompileOptions &Opts;
  Program &Prog;
  int64_t Batch = 0;

  std::vector<EnsembleTask> Fwd, Bwd;
  /// Canonical neuron types used by the pattern matchers.
  NeuronType CanonWeighted = makeWeightedNeuronType();
  NeuronType CanonMax = makeMaxNeuronType();
  NeuronType CanonAvg = makeAvgNeuronType();
  NeuronType CanonRelu = makeReluNeuronType();
  NeuronType CanonSigmoid = makeSigmoidNeuronType();
  NeuronType CanonTanh = makeTanhNeuronType();
  NeuronType CanonSum = makeSumNeuronType();
  NeuronType CanonMul = makeMulNeuronType();
};

/// True when \p Type's forward and backward bodies are alpha-equivalent to
/// \p Canon's under context \p Ctx. This is the pattern-matching test: it
/// recognizes the computation's *shape*, not the type's name.
bool matchesCanonical(const NeuronType *Type, const NeuronType &Canon,
                      const NeuronContext &Ctx) {
  if (!Type)
    return false;
  StmtPtr F1 = Type->makeForward(Ctx);
  StmtPtr F2 = Canon.makeForward(Ctx);
  if (!stmtEquivalent(F1.get(), F2.get()))
    return false;
  if (Type->hasBackward() != Canon.hasBackward())
    return false;
  if (!Type->hasBackward())
    return true;
  StmtPtr B1 = Type->makeBackward(Ctx);
  StmtPtr B2 = Canon.makeBackward(Ctx);
  return stmtEquivalent(B1.get(), B2.get());
}

SynthesisResult Synthesizer::run() {
  Batch = TheNet.batchSize();
  Prog.BatchSize = Batch;
  for (Ensemble *E : TheNet.topologicalOrder())
    processEnsemble(E);
  SynthesisResult Result;
  Result.ForwardTasks = std::move(Fwd);
  // Backward tasks were produced in topological order; execution needs the
  // reverse.
  std::reverse(Bwd.begin(), Bwd.end());
  Result.BackwardTasks = std::move(Bwd);
  return Result;
}

void Synthesizer::processEnsemble(Ensemble *E) {
  for (const Connection &C : E->inputs())
    if (C.Recurrent)
      reportFatalError("ensemble '" + E->name() +
                       "' has a recurrent connection; unroll the network "
                       "over time before compiling (see core/recurrent.h)");
  switch (E->kind()) {
  case EnsembleKind::Data:
    handleData(E);
    return;
  case EnsembleKind::Normalization:
  case EnsembleKind::Loss:
    handleNorm(E);
    return;
  case EnsembleKind::Standard:
  case EnsembleKind::Activation:
    handleNeuronEnsemble(E);
    return;
  }
  latteUnreachable("unknown ensemble kind");
}

void Synthesizer::handleData(Ensemble *E) {
  declareBuffer(E->valueBuffer(), E->dims().withPrefix(Batch),
                BufferRole::Data);
  BufferInfo &G = declareBuffer(E->gradBuffer(), E->dims().withPrefix(Batch),
                                BufferRole::Grad);
  G.ZeroOnBackward = true;
  if (Prog.DataBuffer.empty())
    Prog.DataBuffer = E->valueBuffer();
}

void Synthesizer::handleNorm(Ensemble *E) {
  if (E->inputs().size() != 1)
    reportFatalError("normalization ensemble '" + E->name() +
                     "' must have exactly one input");
  Ensemble *Src = E->inputs()[0].Source;
  if (E->dims() != Src->dims() && E->normOp() != NormOpKind::SoftmaxLoss)
    reportFatalError("normalization ensemble '" + E->name() +
                     "' must preserve its input shape");

  declareValueGrad(E, /*InPlace=*/false);
  int64_t Elems = E->dims().numElements();
  int64_t Count = Batch * Elems;

  EnsembleTask FwdTask, BwdTask;
  FwdTask.EnsembleName = BwdTask.EnsembleName = E->name();
  FwdTask.FusionBarrier = BwdTask.FusionBarrier = true;

  switch (E->normOp()) {
  case NormOpKind::Softmax: {
    // Normalize over the LAST axis. Rank-1 ensembles are one row per batch
    // item (the classifier softmax); higher-rank ensembles normalize each
    // trailing-axis row independently — e.g. attention's (T, T) score
    // ensemble softmaxes over keys. Both flatten to the same row-major
    // {Rows, Classes} kernel geometry, so rank-1 nets are bitwise
    // unchanged.
    int64_t Last = E->dims().rank() ? E->dims()[E->dims().rank() - 1] : 1;
    int64_t Rows = Batch * (Elems / Last);
    FwdTask.Pre.push_back(kernelCall(
        KernelKind::SoftmaxFwd,
        bufArgs(KernelBufArg(E->valueBuffer()),
                KernelBufArg(Src->valueBuffer())),
        {Rows, Last}));
    BwdTask.Pre.push_back(kernelCall(
        KernelKind::SoftmaxBwd,
        bufArgs(KernelBufArg(Src->gradBuffer()),
                KernelBufArg(E->gradBuffer()),
                KernelBufArg(E->valueBuffer())),
        {Rows, Last}));
    if (Prog.ProbBuffer.empty())
      Prog.ProbBuffer = E->valueBuffer();
    break;
  }
  case NormOpKind::SoftmaxLoss: {
    Ensemble *Labels = E->labelSource();
    if (!Labels)
      reportFatalError("softmax loss '" + E->name() + "' has no label source");
    std::string LossBuf = E->name() + "_loss";
    declareBuffer(LossBuf, Shape{Batch}, BufferRole::Scratch);
    FwdTask.Pre.push_back(kernelCall(
        KernelKind::SoftmaxLossFwd,
        bufArgs(KernelBufArg(E->valueBuffer()),
                KernelBufArg(Src->valueBuffer()),
                KernelBufArg(Labels->valueBuffer()),
                KernelBufArg(LossBuf)),
        {Batch, Elems}));
    BwdTask.Pre.push_back(kernelCall(
        KernelKind::SoftmaxLossBwd,
        bufArgs(KernelBufArg(Src->gradBuffer()),
                KernelBufArg(E->valueBuffer()),
                KernelBufArg(Labels->valueBuffer())),
        {Batch, Elems}, {1.0 / static_cast<double>(Batch)}));
    Prog.LossBuffer = LossBuf;
    Prog.ProbBuffer = E->valueBuffer();
    if (Prog.LabelBuffer.empty())
      Prog.LabelBuffer = Labels->valueBuffer();
    break;
  }
  case NormOpKind::Dropout: {
    double Keep = E->normParams().empty() ? 0.5 : E->normParams()[0];
    // Expectation-scaled eval mode (inference opt-in): out = KeepProb * in
    // with no mask RNG and no mask buffer. The default keeps the sampled
    // mask so compileForward stays bitwise identical to the training-mode
    // forward pass; backward never runs under Inference.
    if (Opts.Inference && Opts.EvalDropout) {
      FwdTask.Pre.push_back(kernelCall(
          KernelKind::Copy,
          bufArgs(KernelBufArg(E->valueBuffer()),
                  KernelBufArg(Src->valueBuffer())),
          {Count}));
      FwdTask.Pre.push_back(kernelCall(KernelKind::Scale,
                                       bufArgs(KernelBufArg(E->valueBuffer())),
                                       {Count}, {Keep}));
      break;
    }
    std::string MaskBuf = E->name() + "_mask";
    declareBuffer(MaskBuf, E->dims().withPrefix(Batch), BufferRole::Scratch);
    FwdTask.Pre.push_back(kernelCall(KernelKind::DropoutMask,
                                       bufArgs(KernelBufArg(MaskBuf)),
                                       {Count}, {Keep}));
    FwdTask.Pre.push_back(kernelCall(
        KernelKind::MulInto,
        bufArgs(KernelBufArg(E->valueBuffer()),
                KernelBufArg(Src->valueBuffer()), KernelBufArg(MaskBuf)),
        {Count}));
    BwdTask.Pre.push_back(kernelCall(
        KernelKind::MulAddTo,
        bufArgs(KernelBufArg(Src->gradBuffer()),
                KernelBufArg(E->gradBuffer()), KernelBufArg(MaskBuf)),
        {Count}));
    break;
  }
  case NormOpKind::Lrn:
    reportFatalError("LRN normalization is not implemented yet");
  case NormOpKind::None:
    reportFatalError("normalization ensemble '" + E->name() +
                     "' has no operation configured");
  }
  Fwd.push_back(std::move(FwdTask));
  Bwd.push_back(std::move(BwdTask));
}

void Synthesizer::declareFields(Ensemble *E, const Shape &DefaultElem) {
  const NeuronType *Type = E->type();
  if (!Type)
    return;
  for (const FieldSpec &F : Type->fields()) {
    FieldStorage S = resolvedStorage(E, F, DefaultElem);
    // Cross-timestep weight tying (unrolled recurrent networks): alias the
    // owner ensemble's field storage. The owner carries the solver binding
    // and the backward zeroing; gradients of all sharers accumulate into
    // the same memory.
    if (!S.ShareWithEnsemble.empty()) {
      std::string Owner = S.ShareWithEnsemble + "_" + F.Name;
      if (!Prog.findBuffer(Owner))
        reportFatalError("field of '" + E->name() + "' shares with '" +
                         S.ShareWithEnsemble +
                         "', which has no such field buffer yet");
      declareBuffer(E->fieldBuffer(F.Name), fieldBufferShape(S),
                    F.IsParam ? BufferRole::Param : BufferRole::Scratch,
                    Owner);
      if (F.HasGrad)
        declareBuffer(E->fieldBuffer("grad_" + F.Name), fieldBufferShape(S),
                      F.IsParam ? BufferRole::ParamGrad
                                : BufferRole::Scratch,
                      S.ShareWithEnsemble + "_grad_" + F.Name);
      continue;
    }
    BufferInfo &B = declareBuffer(E->fieldBuffer(F.Name), fieldBufferShape(S),
                                  F.IsParam ? BufferRole::Param
                                            : BufferRole::Scratch);
    B.Init = S.Init;
    B.InitValue = S.InitValue;
    B.FanIn = S.FanIn;
    if (!F.HasGrad)
      continue;
    std::string GradName = E->fieldBuffer("grad_" + F.Name);
    BufferInfo &G =
        declareBuffer(GradName, fieldBufferShape(S),
                      F.IsParam ? BufferRole::ParamGrad : BufferRole::Scratch);
    G.ZeroOnBackward = true;
    if (F.IsParam)
      Prog.Params.push_back({E->fieldBuffer(F.Name), GradName, F.LrMult});
  }
}

std::vector<int32_t>
Synthesizer::buildGatherTable(Ensemble *E, const Connection &Conn,
                              const ConnectionInfo &Info) const {
  const Shape &SinkDims = E->dims();
  const Shape &SrcDims = Conn.Source->dims();
  const int SinkRank = SinkDims.rank();

  // Non-shared sink dims in order.
  std::vector<int> NonShared;
  for (int D = 0; D < SinkRank; ++D)
    if (!Info.SharedDims[D])
      NonShared.push_back(D);
  int64_t NsVolume = 1;
  for (int D : NonShared)
    NsVolume *= SinkDims[D];

  std::vector<int32_t> Table(
      static_cast<size_t>(Info.WindowVolume * NsVolume));

  // Iterate the non-shared index space.
  std::vector<int64_t> SinkIndex(SinkRank, 0);
  for (int64_t Ns = 0; Ns < NsVolume; ++Ns) {
    // Decode Ns into the non-shared dims (row-major over NonShared).
    int64_t Rest = Ns;
    for (int I = static_cast<int>(NonShared.size()) - 1; I >= 0; --I) {
      int D = NonShared[I];
      SinkIndex[D] = Rest % SinkDims[D];
      Rest /= SinkDims[D];
    }
    std::vector<Range> Box = Conn.Mapping(SinkIndex);
    if (static_cast<int64_t>(Box.size()) != SrcDims.rank())
      reportFatalError("mapping of '" + E->name() +
                       "' returns a box whose rank does not match the "
                       "source ensemble");
    // Enumerate the window (row-major over the box dims).
    std::vector<int64_t> SrcIndex(Box.size());
    int64_t W = 0;
    std::function<void(int)> Enumerate = [&](int Dim) {
      if (Dim == static_cast<int>(Box.size())) {
        bool InBounds = true;
        for (int S = 0; S < SrcDims.rank(); ++S)
          InBounds &= SrcIndex[S] >= 0 && SrcIndex[S] < SrcDims[S];
        int64_t Linear = 0;
        if (InBounds)
          for (int S = 0; S < SrcDims.rank(); ++S)
            Linear = Linear * SrcDims[S] + SrcIndex[S];
        Table[static_cast<size_t>(W * NsVolume + Ns)] =
            InBounds ? static_cast<int32_t>(Linear) : -1;
        ++W;
        return;
      }
      for (int64_t I = Box[Dim].Begin; I < Box[Dim].End; ++I) {
        SrcIndex[Dim] = I;
        Enumerate(Dim + 1);
      }
    };
    Enumerate(0);
  }
  return Table;
}

void Synthesizer::handleNeuronEnsemble(Ensemble *E) {
  std::vector<ConnectionInfo> Infos;
  Infos.reserve(E->inputs().size());
  for (const Connection &C : E->inputs())
    Infos.push_back(analyzeConnection(C, E->dims()));
  if (Infos.empty())
    reportFatalError("ensemble '" + E->name() + "' has no inputs");

  bool InPlace = E->kind() == EnsembleKind::Activation &&
                 Infos.size() == 1 && Infos[0].OneToOne;
  declareValueGrad(E, InPlace);

  if (Infos.size() == 1) {
    const ConnectionInfo &I0 = Infos[0];
    if (Opts.PatternMatchGemm && tryWeightedFc(E, I0))
      return;
    if (Opts.PatternMatchGemm && tryWeightedTimeFc(E, I0))
      return;
    if (Opts.PatternMatchGemm && tryWeightedConv(E, I0))
      return;
    if (Opts.PatternMatchKernels && tryPool(E, I0))
      return;
    if (Opts.PatternMatchKernels && tryActivation(E, I0))
      return;
  }
  if (Opts.PatternMatchKernels && trySumMul(E, Infos))
    return;
  synthesizeInterpreted(E, Infos);
}

} // namespace

SynthesisResult compiler::synthesize(const Net &Net,
                                     const CompileOptions &Opts,
                                     Program &Prog) {
  Synthesizer S(Net, Opts, Prog);
  return S.run();
}

//===----------------------------------------------------------------------===//
// Matched paths
//===----------------------------------------------------------------------===//

namespace {

bool Synthesizer::tryWeightedFc(Ensemble *E, const ConnectionInfo &Info) {
  if (!Info.FullyShared || !Info.Linear)
    return false;
  NeuronContext Ctx = contextFor({Info});
  if (!matchesCanonical(E->type(), CanonWeighted, Ctx))
    return false;

  const Connection &Conn = E->inputs()[0];
  Ensemble *Src = Conn.Source;
  const int64_t K = Info.WindowVolume;
  const int64_t O = E->numNeurons();
  const int64_t SrcElems = Src->dims().numElements();

  // Weights must be per-neuron (identity projection).
  const FieldSpec *WF = E->type()->findField("weights");
  assert(WF && E->type()->findField("bias") &&
         "weighted neuron must declare weights and bias");
  FieldStorage WS = resolvedStorage(E, *WF, Shape{K});
  if (WS.StorageDims.numElements() != O || WS.ElemDims.numElements() != K)
    return false;

  declareFields(E, Shape{K});

  // Input buffer: alias the source values when the base box covers the
  // whole source (the shared-variable optimization of Figure 8); gather
  // otherwise.
  bool CoversSource = true;
  for (int D = 0; D < Src->dims().rank(); ++D)
    CoversSource &= Info.BaseBox[D].Begin == 0 &&
                    Info.BaseBox[D].End == Src->dims()[D];
  std::string InBuf = E->inputBuffer(0);
  std::string GinBuf = E->gradInputBuffer(0);
  EnsembleTask FwdTask, BwdTask;
  FwdTask.EnsembleName = BwdTask.EnsembleName = E->name();

  if (CoversSource) {
    declareBuffer(InBuf, Shape{Batch, K}, BufferRole::Input,
                  Src->valueBuffer());
    declareBuffer(GinBuf, Shape{Batch, K}, BufferRole::GradInput,
                  Src->gradBuffer());
  } else {
    declareBuffer(InBuf, Shape{Batch, K}, BufferRole::Input);
    BufferInfo &G = declareBuffer(GinBuf, Shape{Batch, K},
                                  BufferRole::GradInput);
    G.ZeroOnBackward = true;
    std::string TableName = E->name() + "_table0";
    declareTable(TableName, buildGatherTable(E, Conn, Info));
    // One gather per batch item (row 0..K in a 1 x K layout).
    RowOp Gather;
    Gather.RowExtent = 0;
    Gather.Make = [=](ExprPtr, int64_t) {
      return kernelCall(KernelKind::Gather2D,
                        bufArgs(KernelBufArg(InBuf, nOff(K)),
                                KernelBufArg(Src->valueBuffer(),
                                             nOff(SrcElems)),
                                KernelBufArg(TableName)),
                        {1, K, K}, {}, indexList(intConst(0)));
    };
    FwdTask.PerItem.push_back(std::move(Gather));
  }

  // Forward: one whole-batch GEMM plus bias (value = inputs * W^T + b).
  FwdTask.Pre.push_back(kernelCall(
      KernelKind::Sgemm,
      bufArgs(KernelBufArg(InBuf), KernelBufArg(E->fieldBuffer("weights")),
              KernelBufArg(E->valueBuffer())),
      {Batch, O, K, K, K, O, 0, 1, 0}));
  FwdTask.Pre.push_back(kernelCall(
      KernelKind::BiasAddPerRow,
      bufArgs(KernelBufArg(E->valueBuffer()),
              KernelBufArg(E->fieldBuffer("bias"))),
      {Batch, O}));

  // Backward: grad wrt inputs, weights, bias.
  BwdTask.Pre.push_back(kernelCall(
      KernelKind::Sgemm,
      bufArgs(KernelBufArg(E->gradBuffer()),
              KernelBufArg(E->fieldBuffer("weights")), KernelBufArg(GinBuf)),
      {Batch, K, O, O, K, K, 0, 0, 1}));
  BwdTask.Pre.push_back(kernelCall(
      KernelKind::Sgemm,
      bufArgs(KernelBufArg(E->gradBuffer()), KernelBufArg(InBuf),
              KernelBufArg(E->fieldBuffer("grad_weights"))),
      {O, K, Batch, O, K, K, 1, 0, 1}));
  BwdTask.Pre.push_back(kernelCall(
      KernelKind::ColSumAdd,
      bufArgs(KernelBufArg(E->fieldBuffer("grad_bias")),
              KernelBufArg(E->gradBuffer())),
      {Batch, O}));
  if (!CoversSource) {
    std::string TableName = E->name() + "_table0";
    RowOp Scatter;
    Scatter.RowExtent = 0;
    Scatter.Make = [=](ExprPtr, int64_t) {
      return kernelCall(KernelKind::ScatterAdd2D,
                        bufArgs(KernelBufArg(Src->gradBuffer(),
                                             nOff(SrcElems)),
                                KernelBufArg(GinBuf, nOff(K)),
                                KernelBufArg(TableName)),
                        {1, K, K}, {}, indexList(intConst(0)));
    };
    BwdTask.PerItem.push_back(std::move(Scatter));
  }

  Prog.Report.MatchedGemmEnsembles.push_back(E->name());
  Fwd.push_back(std::move(FwdTask));
  Bwd.push_back(std::move(BwdTask));
  return true;
}

bool Synthesizer::tryWeightedTimeFc(Ensemble *E, const ConnectionInfo &Info) {
  // Time-distributed FC: a (T, D) sink over a (T, F) source whose mapping
  // reads exactly source row t, with weights shared along time (storage
  // {D} x elem {F} projecting the output dim — the same per-channel
  // sharing mechanism as convolution filters, projecting out time instead
  // of space). The stacked windows are the source value buffer itself in
  // row-major order, so one sgemm over M = Batch*T rows lowers every
  // timestep at once, and the tied grad_weights accumulate all timesteps'
  // contributions inside the single backward GEMM.
  if (E->dims().rank() != 2 || !Info.Linear || Info.FullyShared)
    return false;
  if (Info.SharedDims[0] || !Info.SharedDims[1])
    return false;
  Ensemble *Src = E->inputs()[0].Source;
  const Shape &SrcDims = Src->dims();
  const int64_t T = E->dims()[0];
  const int64_t D = E->dims()[1];
  if (SrcDims.rank() != 2 || SrcDims[0] != T)
    return false;
  const int64_t F = SrcDims[1];
  // The window at sink (t, *) must be exactly row t of the source.
  if (Info.WindowSizes.size() != 2 || Info.WindowSizes[0] != 1 ||
      Info.WindowSizes[1] != F || Info.WindowVolume != F)
    return false;
  if (Info.Strides[0][0] != 1 || Info.Strides[0][1] != 0)
    return false;
  if (Info.BaseBox[0].Begin != 0 || Info.BaseBox[0].End != 1 ||
      Info.BaseBox[1].Begin != 0 || Info.BaseBox[1].End != F)
    return false;
  NeuronContext Ctx = contextFor({Info});
  if (!matchesCanonical(E->type(), CanonWeighted, Ctx))
    return false;

  const FieldSpec *WF = E->type()->findField("weights");
  const FieldSpec *BF = E->type()->findField("bias");
  assert(WF && BF && "weighted neuron must declare weights and bias");
  FieldStorage WS = resolvedStorage(E, *WF, Shape{F});
  FieldMapInfo WMap = analyzeFieldMap(WS, E->dims());
  // A singleton output dimension cannot be probed (selector -1) but is
  // trivially compatible, as in the convolution matcher.
  bool SelectsOut = WMap.DimSelectors.size() == 1 &&
                    (WMap.DimSelectors[0] == 1 ||
                     (D == 1 && WMap.DimSelectors[0] == -1));
  if (!WMap.IsProjection || WS.StorageDims.rank() != 1 ||
      WS.StorageDims[0] != D || !SelectsOut || WS.ElemDims.numElements() != F)
    return false;
  FieldStorage BS = resolvedStorage(E, *BF, Shape{1});
  FieldMapInfo BMap = analyzeFieldMap(BS, E->dims());
  bool BiasSelectsOut = BMap.DimSelectors.size() == 1 &&
                        (BMap.DimSelectors[0] == 1 ||
                         (D == 1 && BMap.DimSelectors[0] == -1));
  if (!BMap.IsProjection || BS.StorageDims.numElements() != D ||
      BS.ElemDims.numElements() != 1 || !BiasSelectsOut)
    return false;

  declareFields(E, Shape{F});

  // (Batch, T, F) row-major viewed as an (M x F) matrix is exactly the
  // per-sink window stack — alias instead of gathering (Figure 8's
  // shared-variable optimization extended over the time axis).
  const int64_t M = Batch * T;
  std::string InBuf = E->inputBuffer(0);
  std::string GinBuf = E->gradInputBuffer(0);
  declareBuffer(InBuf, Shape{Batch, T, F}, BufferRole::Input,
                Src->valueBuffer());
  declareBuffer(GinBuf, Shape{Batch, T, F}, BufferRole::GradInput,
                Src->gradBuffer());

  EnsembleTask FwdTask, BwdTask;
  FwdTask.EnsembleName = BwdTask.EnsembleName = E->name();

  // Forward: value = inputs * W^T + b over all Batch*T rows.
  FwdTask.Pre.push_back(kernelCall(
      KernelKind::Sgemm,
      bufArgs(KernelBufArg(InBuf), KernelBufArg(E->fieldBuffer("weights")),
              KernelBufArg(E->valueBuffer())),
      {M, D, F, F, F, D, 0, 1, 0}));
  FwdTask.Pre.push_back(kernelCall(
      KernelKind::BiasAddPerRow,
      bufArgs(KernelBufArg(E->valueBuffer()),
              KernelBufArg(E->fieldBuffer("bias"))),
      {M, D}));

  // Backward: grad wrt inputs (accumulated straight into the aliased
  // source gradient), the time-tied weights, and the bias.
  BwdTask.Pre.push_back(kernelCall(
      KernelKind::Sgemm,
      bufArgs(KernelBufArg(E->gradBuffer()),
              KernelBufArg(E->fieldBuffer("weights")), KernelBufArg(GinBuf)),
      {M, F, D, D, F, F, 0, 0, 1}));
  BwdTask.Pre.push_back(kernelCall(
      KernelKind::Sgemm,
      bufArgs(KernelBufArg(E->gradBuffer()), KernelBufArg(InBuf),
              KernelBufArg(E->fieldBuffer("grad_weights"))),
      {D, F, M, D, F, F, 1, 0, 1}));
  BwdTask.Pre.push_back(kernelCall(
      KernelKind::ColSumAdd,
      bufArgs(KernelBufArg(E->fieldBuffer("grad_bias")),
              KernelBufArg(E->gradBuffer())),
      {M, D}));

  Prog.Report.MatchedGemmEnsembles.push_back(E->name());
  Fwd.push_back(std::move(FwdTask));
  Bwd.push_back(std::move(BwdTask));
  return true;
}

bool Synthesizer::tryWeightedConv(Ensemble *E, const ConnectionInfo &Info) {
  // Shape requirements: (c_out, y, x) neurons; mapping shared along c_out
  // only; linear windows.
  if (E->dims().rank() != 3 || !Info.Linear || Info.FullyShared)
    return false;
  if (!(Info.SharedDims[0] && !Info.SharedDims[1] && !Info.SharedDims[2]))
    return false;
  NeuronContext Ctx = contextFor({Info});
  if (!matchesCanonical(E->type(), CanonWeighted, Ctx))
    return false;

  const Connection &Conn = E->inputs()[0];
  Ensemble *Src = Conn.Source;
  const int64_t C = E->dims()[0];
  const int64_t Y = E->dims()[1];
  const int64_t X = E->dims()[2];
  const int64_t YX = Y * X;
  const int64_t K = Info.WindowVolume;
  const int64_t SrcElems = Src->dims().numElements();

  // Weights must be shared per output channel: storage {C} x elem {K}.
  const FieldSpec *WF = E->type()->findField("weights");
  assert(WF && "weighted neuron must declare weights");
  FieldStorage WS = resolvedStorage(E, *WF, Shape{K});
  FieldMapInfo WMap = analyzeFieldMap(WS, E->dims());
  // A singleton channel dimension cannot be probed; its selector is
  // indeterminate (-1) but trivially compatible.
  bool SelectsChannel =
      WMap.DimSelectors.size() == 1 &&
      (WMap.DimSelectors[0] == 0 || (C == 1 && WMap.DimSelectors[0] == -1));
  if (!WMap.IsProjection || WS.StorageDims.rank() != 1 ||
      WS.StorageDims[0] != C || !SelectsChannel ||
      WS.ElemDims.numElements() != K)
    return false;

  declareFields(E, Shape{K});

  // Uniform geometry (square kernel, equal strides and pads, full input
  // channel range) lowers the data-copy task to the structured im2col loop
  // nest of the paper's synthesis instead of a general gather table.
  const Shape &SrcDims = Src->dims();
  int64_t GeoK = 0, GeoS = 0, GeoP = 0;
  bool UniformGeometry = false;
  if (SrcDims.rank() == 3 && Info.WindowSizes.size() == 3 &&
      Info.WindowSizes[0] == SrcDims[0] && Info.BaseBox[0].Begin == 0) {
    GeoK = Info.WindowSizes[1];
    GeoS = Info.Strides[1][1];
    GeoP = -Info.BaseBox[1].Begin;
    UniformGeometry = Info.WindowSizes[2] == GeoK &&
                      Info.Strides[2][2] == GeoS &&
                      -Info.BaseBox[2].Begin == GeoP && GeoS > 0 &&
                      GeoP >= 0 && Info.Strides[1][2] == 0 &&
                      Info.Strides[2][1] == 0;
  }

  std::string InBuf = E->inputBuffer(0);
  std::string GinBuf = E->gradInputBuffer(0);
  std::string TableName = E->name() + "_table0";
  std::string WBuf = E->fieldBuffer("weights");
  std::string GwBuf = E->fieldBuffer("grad_weights");
  std::string BBuf = E->fieldBuffer("bias");
  std::string GbBuf = E->fieldBuffer("grad_bias");
  std::string VBuf = E->valueBuffer();
  std::string GBuf = E->gradBuffer();
  std::string SrcV = Src->valueBuffer();
  std::string SrcG = Src->gradBuffer();

  declareBuffer(InBuf, Shape{Batch, K, Y, X}, BufferRole::Input);
  declareBuffer(GinBuf, Shape{Batch, K, Y, X}, BufferRole::GradInput);
  if (!UniformGeometry)
    declareTable(TableName, buildGatherTable(E, Conn, Info));
  const int64_t SrcC = SrcDims[0];
  const int64_t SrcH = SrcDims.rank() == 3 ? SrcDims[1] : 0;
  const int64_t SrcW = SrcDims.rank() == 3 ? SrcDims[2] : 0;

  const int64_t KYX = K * YX;
  const int64_t CYX = C * YX;

  EnsembleTask FwdTask, BwdTask;
  FwdTask.EnsembleName = BwdTask.EnsembleName = E->name();

  // Forward per item, all row-splittable along y: gather, GEMM, bias.
  RowOp Gather;
  Gather.RowExtent = Y;
  Gather.Tileable = true;
  if (UniformGeometry) {
    Gather.Make = [=](ExprPtr Rb, int64_t Rc) {
      return kernelCall(KernelKind::Im2ColRows,
                        bufArgs(KernelBufArg(InBuf, nOff(KYX)),
                                KernelBufArg(SrcV, nOff(SrcElems))),
                        {SrcC, SrcH, SrcW, GeoK, GeoS, GeoP, Rc}, {},
                        indexList(std::move(Rb)));
    };
  } else {
    Gather.Make = [=](ExprPtr Rb, int64_t Rc) {
      return kernelCall(
          KernelKind::Gather2D,
          bufArgs(KernelBufArg(InBuf, nOff(KYX)),
                  KernelBufArg(SrcV, nOff(SrcElems)),
                  KernelBufArg(TableName)),
          {K, YX, Rc * X}, {}, indexList(mul(std::move(Rb), intConst(X))));
    };
  }
  RowOp Gemm;
  Gemm.RowExtent = Y;
  Gemm.Tileable = true;
  Gemm.Make = [=](ExprPtr Rb, int64_t Rc) {
    // Clone eagerly: function-argument evaluation order is unspecified.
    ExprPtr ColOff = mul(Rb->clone(), intConst(X));
    ExprPtr InOff = add(nOff(KYX), ColOff->clone());
    ExprPtr OutOff = add(nOff(CYX), std::move(ColOff));
    return kernelCall(
        KernelKind::Sgemm,
        bufArgs(KernelBufArg(WBuf), KernelBufArg(InBuf, std::move(InOff)),
                KernelBufArg(VBuf, std::move(OutOff))),
        {C, Rc * X, K, K, YX, YX, 0, 0, 0});
  };
  RowOp Bias;
  Bias.RowExtent = Y;
  Bias.Tileable = true;
  Bias.Make = [=](ExprPtr Rb, int64_t Rc) {
    return kernelCall(KernelKind::BiasAddCols,
                      bufArgs(KernelBufArg(VBuf, nOff(CYX)),
                              KernelBufArg(BBuf)),
                      {C, YX, Rc * X}, {},
                      indexList(mul(std::move(Rb), intConst(X))));
  };
  FwdTask.PerItem.push_back(std::move(Gather));
  FwdTask.PerItem.push_back(std::move(Gemm));
  FwdTask.PerItem.push_back(std::move(Bias));

  // Fusion metadata: distance along y is the window's y-stride; fusable
  // only for non-overlapping, unpadded windows (§5.4.2).
  int SrcYDim = -1;
  for (int S = 0; S < static_cast<int>(Info.WindowSizes.size()); ++S)
    if (Info.Strides[1][S] != 0)
      SrcYDim = S;
  bool ScatterSafe = false;
  if (SrcYDim >= 0) {
    int64_t StrideY = Info.Strides[1][SrcYDim];
    int64_t WindowY = Info.WindowSizes[SrcYDim];
    ScatterSafe = StrideY >= WindowY;
    if (StrideY > 0 && WindowY == StrideY &&
        Info.BaseBox[SrcYDim].Begin == 0) {
      FwdTask.FuseDist = StrideY;
      FwdTask.ProducerName = Src->name();
      BwdTask.FuseDist = StrideY;
      BwdTask.ProducerName = Src->name();
    }
  }

  // Backward per item: input-gradient GEMM (tileable), scatter (tileable
  // when windows do not overlap along y), then whole-item weight/bias
  // gradient reductions.
  RowOp GinGemm;
  GinGemm.RowExtent = Y;
  GinGemm.Tileable = true;
  GinGemm.Make = [=](ExprPtr Rb, int64_t Rc) {
    ExprPtr ColOff = mul(Rb->clone(), intConst(X));
    ExprPtr GOff = add(nOff(CYX), ColOff->clone());
    ExprPtr GinOff = add(nOff(KYX), std::move(ColOff));
    return kernelCall(
        KernelKind::Sgemm,
        bufArgs(KernelBufArg(WBuf), KernelBufArg(GBuf, std::move(GOff)),
                KernelBufArg(GinBuf, std::move(GinOff))),
        {K, Rc * X, C, K, YX, YX, 1, 0, 0});
  };
  RowOp Scatter;
  Scatter.RowExtent = Y;
  Scatter.Tileable = ScatterSafe;
  if (UniformGeometry) {
    Scatter.Make = [=](ExprPtr Rb, int64_t Rc) {
      return kernelCall(KernelKind::Col2ImRows,
                        bufArgs(KernelBufArg(SrcG, nOff(SrcElems)),
                                KernelBufArg(GinBuf, nOff(KYX))),
                        {SrcC, SrcH, SrcW, GeoK, GeoS, GeoP, Rc}, {},
                        indexList(std::move(Rb)));
    };
  } else {
    Scatter.Make = [=](ExprPtr Rb, int64_t Rc) {
      return kernelCall(
          KernelKind::ScatterAdd2D,
          bufArgs(KernelBufArg(SrcG, nOff(SrcElems)),
                  KernelBufArg(GinBuf, nOff(KYX)),
                  KernelBufArg(TableName)),
          {K, YX, Rc * X}, {}, indexList(mul(std::move(Rb), intConst(X))));
    };
  }
  RowOp GwGemm;
  GwGemm.RowExtent = 0;
  GwGemm.Make = [=](ExprPtr, int64_t) {
    return kernelCall(KernelKind::Sgemm,
                      bufArgs(KernelBufArg(GBuf, nOff(CYX)),
                              KernelBufArg(InBuf, nOff(KYX)),
                              KernelBufArg(GwBuf)),
                      {C, K, YX, YX, YX, K, 0, 1, 1});
  };
  RowOp GBias;
  GBias.RowExtent = 0;
  GBias.Make = [=](ExprPtr, int64_t) {
    return kernelCall(KernelKind::RowSumAdd,
                      bufArgs(KernelBufArg(GbBuf),
                              KernelBufArg(GBuf, nOff(CYX))),
                      {C, YX});
  };
  BwdTask.PerItem.push_back(std::move(GinGemm));
  BwdTask.PerItem.push_back(std::move(Scatter));
  BwdTask.PerItem.push_back(std::move(GwGemm));
  BwdTask.PerItem.push_back(std::move(GBias));

  Prog.Report.MatchedGemmEnsembles.push_back(E->name());
  Fwd.push_back(std::move(FwdTask));
  Bwd.push_back(std::move(BwdTask));
  return true;
}

bool Synthesizer::tryPool(Ensemble *E, const ConnectionInfo &Info) {
  if (E->dims().rank() != 3 || !Info.Linear || Info.FullyShared)
    return false;
  if (Info.SharedDims[0] || Info.SharedDims[1] || Info.SharedDims[2])
    return false;
  const Connection &Conn = E->inputs()[0];
  Ensemble *Src = Conn.Source;
  if (Src->dims().rank() != 3)
    return false;

  // Channel dim must be one-to-one; spatial dims square windows with equal
  // stride/pad.
  auto Rel = [&](int SinkD, int SrcD) {
    return std::pair<int64_t, int64_t>(Info.Strides[SinkD][SrcD],
                                       Info.WindowSizes[SrcD]);
  };
  if (Rel(0, 0) != std::pair<int64_t, int64_t>(1, 1))
    return false;
  if (Info.Strides[0][1] != 0 || Info.Strides[0][2] != 0 ||
      Info.Strides[1][0] != 0 || Info.Strides[2][0] != 0 ||
      Info.Strides[1][2] != 0 || Info.Strides[2][1] != 0)
    return false;
  int64_t S = Info.Strides[1][1], W = Info.WindowSizes[1];
  if (S <= 0 || Info.Strides[2][2] != S || Info.WindowSizes[2] != W)
    return false;
  int64_t Pad = -Info.BaseBox[1].Begin;
  if (Pad < 0 || -Info.BaseBox[2].Begin != Pad || Info.BaseBox[0].Begin != 0)
    return false;

  NeuronContext Ctx = contextFor({Info});
  bool IsMax = matchesCanonical(E->type(), CanonMax, Ctx);
  bool IsAvg = !IsMax && matchesCanonical(E->type(), CanonAvg, Ctx);
  if (!IsMax && !IsAvg)
    return false;

  const int64_t C = E->dims()[0], Y = E->dims()[1], X = E->dims()[2];
  const int64_t CYX = C * Y * X;
  const int64_t InH = Src->dims()[1], InW = Src->dims()[2];
  const int64_t SrcElems = Src->dims().numElements();
  std::string VBuf = E->valueBuffer(), GBuf = E->gradBuffer();
  std::string SrcV = Src->valueBuffer(), SrcG = Src->gradBuffer();
  std::string MaskBuf = E->name() + "_mask";
  if (IsMax)
    declareIntBuffer(MaskBuf, Batch * CYX);

  EnsembleTask FwdTask, BwdTask;
  FwdTask.EnsembleName = BwdTask.EnsembleName = E->name();

  RowOp FwdOp;
  FwdOp.RowExtent = Y;
  FwdOp.Tileable = true;
  FwdOp.Make = [=](ExprPtr Rb, int64_t Rc) {
    std::vector<KernelBufArg> Bufs;
    Bufs.push_back(KernelBufArg(VBuf, nOff(CYX)));
    Bufs.push_back(KernelBufArg(SrcV, nOff(SrcElems)));
    if (IsMax)
      Bufs.push_back(KernelBufArg(MaskBuf, nOff(CYX)));
    return kernelCall(IsMax ? KernelKind::MaxPoolFwdRows
                            : KernelKind::AvgPoolFwdRows,
                      std::move(Bufs), {C, InH, InW, W, S, Pad, Rc}, {},
                      indexList(std::move(Rb)));
  };
  FwdTask.PerItem.push_back(std::move(FwdOp));

  bool NonOverlapping = W <= S;
  RowOp BwdOp;
  BwdOp.RowExtent = Y;
  BwdOp.Tileable = NonOverlapping;
  BwdOp.Make = [=](ExprPtr Rb, int64_t Rc) {
    std::vector<KernelBufArg> Bufs;
    Bufs.push_back(KernelBufArg(SrcG, nOff(SrcElems)));
    Bufs.push_back(KernelBufArg(GBuf, nOff(CYX)));
    if (IsMax)
      Bufs.push_back(KernelBufArg(MaskBuf, nOff(CYX)));
    return kernelCall(IsMax ? KernelKind::MaxPoolBwdRows
                            : KernelKind::AvgPoolBwdRows,
                      std::move(Bufs), {C, InH, InW, W, S, Pad, Rc}, {},
                      indexList(std::move(Rb)));
  };
  BwdTask.PerItem.push_back(std::move(BwdOp));

  if (W == S && Pad == 0) {
    FwdTask.FuseDist = S;
    FwdTask.ProducerName = Src->name();
    BwdTask.FuseDist = S;
    BwdTask.ProducerName = Src->name();
  }

  Prog.Report.MatchedPoolEnsembles.push_back(E->name());
  Fwd.push_back(std::move(FwdTask));
  Bwd.push_back(std::move(BwdTask));
  return true;
}

bool Synthesizer::tryActivation(Ensemble *E, const ConnectionInfo &Info) {
  if (!Info.OneToOne)
    return false;
  NeuronContext Ctx = contextFor({Info});
  ActOpKind Op;
  if (matchesCanonical(E->type(), CanonRelu, Ctx))
    Op = ActOpKind::Relu;
  else if (matchesCanonical(E->type(), CanonSigmoid, Ctx))
    Op = ActOpKind::Sigmoid;
  else if (matchesCanonical(E->type(), CanonTanh, Ctx))
    Op = ActOpKind::Tanh;
  else
    return false;

  Ensemble *Src = E->inputs()[0].Source;
  const int64_t Elems = E->dims().numElements();
  std::string VBuf = E->valueBuffer(), GBuf = E->gradBuffer();
  std::string SrcV = Src->valueBuffer(), SrcG = Src->gradBuffer();

  EnsembleTask FwdTask, BwdTask;
  FwdTask.EnsembleName = BwdTask.EnsembleName = E->name();

  if (E->dims().rank() >= 3) {
    const int64_t Rows = E->dims()[0];
    const int64_t Y = E->dims()[1];
    const int64_t Cols = Elems / Rows;
    const int64_t X = Cols / Y;
    RowOp FwdOp;
    FwdOp.RowExtent = Y;
    FwdOp.Tileable = true;
    FwdOp.Make = [=](ExprPtr Rb, int64_t Rc) {
      return kernelCall(
          KernelKind::ActFwdCols,
          bufArgs(KernelBufArg(VBuf, nOff(Elems)),
                  KernelBufArg(SrcV, nOff(Elems))),
          {static_cast<int64_t>(Op), Rows, Cols, Rc * X}, {},
          indexList(mul(std::move(Rb), intConst(X))));
    };
    FwdTask.PerItem.push_back(std::move(FwdOp));
    RowOp BwdOp;
    BwdOp.RowExtent = Y;
    BwdOp.Tileable = true;
    BwdOp.Make = [=](ExprPtr Rb, int64_t Rc) {
      return kernelCall(
          KernelKind::ActBwdCols,
          bufArgs(KernelBufArg(SrcG, nOff(Elems)),
                  KernelBufArg(GBuf, nOff(Elems)),
                  KernelBufArg(VBuf, nOff(Elems))),
          {static_cast<int64_t>(Op), Rows, Cols, Rc * X, /*InPlace=*/0},
          {}, indexList(mul(std::move(Rb), intConst(X))));
    };
    BwdTask.PerItem.push_back(std::move(BwdOp));
    FwdTask.FuseDist = 1;
    FwdTask.ProducerName = Src->name();
    BwdTask.FuseDist = 1;
    BwdTask.ProducerName = Src->name();
  } else {
    // Low-rank ensembles (activations after FC layers): one whole-batch op.
    FwdTask.Pre.push_back(kernelCall(
        KernelKind::ActFwdCols,
        bufArgs(KernelBufArg(VBuf), KernelBufArg(SrcV)),
        {static_cast<int64_t>(Op), Batch, Elems, Elems}, {},
        indexList(intConst(0))));
    BwdTask.Pre.push_back(kernelCall(
        KernelKind::ActBwdCols,
        bufArgs(KernelBufArg(SrcG), KernelBufArg(GBuf), KernelBufArg(VBuf)),
        {static_cast<int64_t>(Op), Batch, Elems, Elems, /*InPlace=*/0},
        {}, indexList(intConst(0))));
  }

  Prog.Report.MatchedActivationEnsembles.push_back(E->name());
  Fwd.push_back(std::move(FwdTask));
  Bwd.push_back(std::move(BwdTask));
  return true;
}

bool Synthesizer::trySumMul(Ensemble *E,
                            const std::vector<ConnectionInfo> &Infos) {
  for (const ConnectionInfo &I : Infos)
    if (!I.OneToOne)
      return false;
  NeuronContext Ctx = contextFor(Infos);
  bool IsSum = matchesCanonical(E->type(), CanonSum, Ctx);
  bool IsMul = !IsSum && Infos.size() == 2 &&
               matchesCanonical(E->type(), CanonMul, Ctx);
  if (!IsSum && !IsMul)
    return false;

  const int64_t Count = Batch * E->dims().numElements();
  EnsembleTask FwdTask, BwdTask;
  FwdTask.EnsembleName = BwdTask.EnsembleName = E->name();

  if (IsSum) {
    for (size_t K = 0; K < E->inputs().size(); ++K) {
      Ensemble *Src = E->inputs()[K].Source;
      FwdTask.Pre.push_back(kernelCall(
          K == 0 ? KernelKind::Copy : KernelKind::AddTo,
          bufArgs(KernelBufArg(E->valueBuffer()),
                  KernelBufArg(Src->valueBuffer())),
          {Count}));
      BwdTask.Pre.push_back(kernelCall(
          KernelKind::AddTo,
          bufArgs(KernelBufArg(Src->gradBuffer()),
                  KernelBufArg(E->gradBuffer())),
          {Count}));
    }
  } else {
    Ensemble *A = E->inputs()[0].Source;
    Ensemble *B = E->inputs()[1].Source;
    FwdTask.Pre.push_back(kernelCall(
        KernelKind::MulInto,
        bufArgs(KernelBufArg(E->valueBuffer()),
                KernelBufArg(A->valueBuffer()),
                KernelBufArg(B->valueBuffer())),
        {Count}));
    BwdTask.Pre.push_back(kernelCall(
        KernelKind::MulAddTo,
        bufArgs(KernelBufArg(A->gradBuffer()),
                KernelBufArg(E->gradBuffer()),
                KernelBufArg(B->valueBuffer())),
        {Count}));
    BwdTask.Pre.push_back(kernelCall(
        KernelKind::MulAddTo,
        bufArgs(KernelBufArg(B->gradBuffer()),
                KernelBufArg(E->gradBuffer()),
                KernelBufArg(A->valueBuffer())),
        {Count}));
  }

  Prog.Report.MatchedActivationEnsembles.push_back(E->name());
  Fwd.push_back(std::move(FwdTask));
  Bwd.push_back(std::move(BwdTask));
  return true;
}

//===----------------------------------------------------------------------===//
// Interpreted fallback: general SoA loop-nest synthesis
//===----------------------------------------------------------------------===//

void Synthesizer::synthesizeInterpreted(
    Ensemble *E, const std::vector<ConnectionInfo> &Infos) {
  const NeuronType *Type = E->type();
  if (!Type)
    reportFatalError("ensemble '" + E->name() + "' cannot be synthesized");
  const Shape &D = E->dims();
  const int Rank = D.rank();
  NeuronContext Ctx = contextFor(Infos);

  // Per-connection layout info.
  struct ConnLayout {
    bool Aliased = false;       // input buffer aliases the source values
    std::vector<int> NonShared; // non-shared sink dims in order
    int64_t NsVolume = 1;
    int64_t K = 0; // window volume
  };
  std::vector<ConnLayout> Layouts(Infos.size());

  for (size_t CI = 0; CI < Infos.size(); ++CI) {
    const ConnectionInfo &I = Infos[CI];
    const Connection &Conn = E->inputs()[CI];
    Ensemble *Src = Conn.Source;
    ConnLayout &L = Layouts[CI];
    L.K = I.WindowVolume;
    for (int DD = 0; DD < Rank; ++DD)
      if (!I.SharedDims[DD]) {
        L.NonShared.push_back(DD);
        L.NsVolume *= D[DD];
      }

    // Buffer shape: [batch, K, nonshared dims...].
    std::vector<int64_t> BufDims = {Batch, L.K};
    for (int DD : L.NonShared)
      BufDims.push_back(D[DD]);
    Shape BufShape{BufDims};

    bool CoversSource = I.FullyShared;
    if (CoversSource)
      for (int SD = 0; SD < Src->dims().rank(); ++SD)
        CoversSource &= I.BaseBox[SD].Begin == 0 &&
                        I.BaseBox[SD].End == Src->dims()[SD];
    // Value aliasing is safe (one-to-one reinterprets [batch, 1, dims...]
    // onto [batch, dims...]; fully-shared views [batch, K] onto the whole
    // source). Gradient-input buffers are NEVER aliased on this path: the
    // neuron backward accumulates with +=, which would double-count when
    // the buffer aliases the very gradient being propagated (in-place
    // activations). They get private storage and an explicit scatter.
    L.Aliased = I.OneToOne || CoversSource;

    if (L.Aliased)
      declareBuffer(E->inputBuffer(CI), BufShape, BufferRole::Input,
                    Src->valueBuffer());
    else
      declareBuffer(E->inputBuffer(CI), BufShape, BufferRole::Input);
    BufferInfo &G = declareBuffer(E->gradInputBuffer(CI), BufShape,
                                  BufferRole::GradInput);
    G.ZeroOnBackward = true;
    declareTable(E->name() + "_table" + std::to_string(CI),
                 buildGatherTable(E, Conn, I));
  }

  declareFields(E, Shape{Infos.empty() ? 0 : Infos[0].WindowVolume});

  // Resolve field storages (including auto grad fields) for SoA rewriting.
  std::unordered_map<std::string, std::pair<FieldStorage, FieldMapInfo>>
      FieldLayouts;
  for (const FieldSpec &F : Type->fields()) {
    FieldStorage S = resolvedStorage(
        E, F, Shape{Infos.empty() ? 0 : Infos[0].WindowVolume});
    FieldMapInfo M = analyzeFieldMap(S, D);
    if (!M.IsProjection)
      reportFatalError("field '" + F.Name + "' of ensemble '" + E->name() +
                       "' uses a non-projection sharing map, which the "
                       "synthesizer does not support");
    FieldLayouts[F.Name] = {S, M};
    if (F.HasGrad)
      FieldLayouts["grad_" + F.Name] = {S, M};
  }

  // The SoA rewrite: map surface buffers onto ensemble buffers with
  // explicit neuron indices (paper §5.3, "Compute").
  auto NeuronVar = [](int DD) { return var("d" + std::to_string(DD)); };
  auto Rewrite = [&](StmtPtr Body) {
    rewriteExprsInStmt(Body.get(), [&](const Expr *Node) -> ExprPtr {
      const auto *L = dyn_cast<LoadExpr>(Node);
      if (!L)
        return nullptr;
      const std::string &Buf = L->buffer();
      std::string FieldName;
      int K = 0;
      std::vector<ExprPtr> Indices;
      if (Buf == core::dsl::valueBuf() || Buf == core::dsl::gradBuf()) {
        Indices.push_back(var("n"));
        for (int DD = 0; DD < Rank; ++DD)
          Indices.push_back(NeuronVar(DD));
        return load(Buf == core::dsl::valueBuf() ? E->valueBuffer()
                                                 : E->gradBuffer(),
                    std::move(Indices));
      }
      if (core::dsl::isInputBuf(Buf, K) ||
          core::dsl::isGradInputBuf(Buf, K)) {
        bool IsGrad = core::dsl::isGradInputBuf(Buf, K);
        const ConnLayout &CL = Layouts[K];
        Indices.push_back(var("n"));
        Indices.push_back(L->indices()[0]->clone());
        for (int DD : CL.NonShared)
          Indices.push_back(NeuronVar(DD));
        return load(IsGrad ? E->gradInputBuffer(K) : E->inputBuffer(K),
                    std::move(Indices));
      }
      if (core::dsl::isFieldBuf(Buf, FieldName)) {
        auto It = FieldLayouts.find(FieldName);
        if (It == FieldLayouts.end())
          reportFatalError("neuron function of '" + E->name() +
                           "' references unknown field '" + FieldName + "'");
        const FieldMapInfo &M = It->second.second;
        for (size_t J = 0; J < M.DimSelectors.size(); ++J)
          Indices.push_back(M.DimSelectors[J] >= 0
                                ? NeuronVar(M.DimSelectors[J])
                                : intConst(0));
        for (const ExprPtr &I : L->indices())
          Indices.push_back(I->clone());
        return load(E->fieldBuffer(FieldName), std::move(Indices));
      }
      return nullptr;
    });
    // Stores to surface buffers: same mapping on StoreStmt targets.
    walkStmts(Body.get(), [&](Stmt *S) {
      auto *St = dyn_cast<StoreStmt>(S);
      if (!St)
        return;
      const std::string &Buf = St->buffer();
      std::string FieldName;
      int K = 0;
      std::vector<ExprPtr> Indices;
      if (Buf == core::dsl::valueBuf() || Buf == core::dsl::gradBuf()) {
        Indices.push_back(var("n"));
        for (int DD = 0; DD < Rank; ++DD)
          Indices.push_back(NeuronVar(DD));
        St->setBuffer(Buf == core::dsl::valueBuf() ? E->valueBuffer()
                                                   : E->gradBuffer());
        St->indices() = std::move(Indices);
        return;
      }
      if (core::dsl::isGradInputBuf(Buf, K) ||
          core::dsl::isInputBuf(Buf, K)) {
        bool IsGrad = core::dsl::isGradInputBuf(Buf, K);
        const ConnLayout &CL = Layouts[K];
        Indices.push_back(var("n"));
        Indices.push_back(St->indices()[0]->clone());
        for (int DD : CL.NonShared)
          Indices.push_back(NeuronVar(DD));
        St->setBuffer(IsGrad ? E->gradInputBuffer(K) : E->inputBuffer(K));
        St->indices() = std::move(Indices);
        return;
      }
      if (core::dsl::isFieldBuf(Buf, FieldName)) {
        auto It = FieldLayouts.find(FieldName);
        if (It == FieldLayouts.end())
          reportFatalError("neuron function of '" + E->name() +
                           "' stores to unknown field '" + FieldName + "'");
        const FieldMapInfo &M = It->second.second;
        for (size_t J = 0; J < M.DimSelectors.size(); ++J)
          Indices.push_back(M.DimSelectors[J] >= 0
                                ? NeuronVar(M.DimSelectors[J])
                                : intConst(0));
        for (ExprPtr &I : St->indices())
          Indices.push_back(std::move(I));
        St->setBuffer(E->fieldBuffer(FieldName));
        St->indices() = std::move(Indices);
      }
    });
    return Body;
  };

  auto WrapLoops = [&](StmtPtr Body) {
    for (int DD = Rank - 1; DD >= 0; --DD)
      Body = forLoop("d" + std::to_string(DD), D[DD], std::move(Body));
    return Body;
  };

  EnsembleTask FwdTask, BwdTask;
  FwdTask.EnsembleName = BwdTask.EnsembleName = E->name();

  // Gathers, then the compute nest.
  for (size_t CI = 0; CI < Infos.size(); ++CI) {
    if (Layouts[CI].Aliased)
      continue;
    const ConnLayout &CL = Layouts[CI];
    Ensemble *Src = E->inputs()[CI].Source;
    int64_t SrcElems = Src->dims().numElements();
    std::string Table = E->name() + "_table" + std::to_string(CI);
    std::string InBuf = E->inputBuffer(CI);
    int64_t PerItem = CL.K * CL.NsVolume;
    RowOp Gather;
    Gather.RowExtent = 0;
    Gather.Make = [=, SrcName = Src->valueBuffer()](ExprPtr, int64_t) {
      return kernelCall(KernelKind::Gather2D,
                        bufArgs(KernelBufArg(InBuf, nOff(PerItem)),
                                KernelBufArg(SrcName, nOff(SrcElems)),
                                KernelBufArg(Table)),
                        {CL.K, CL.NsVolume, CL.NsVolume}, {},
                        indexList(intConst(0)));
    };
    FwdTask.PerItem.push_back(std::move(Gather));
  }

  StmtPtr FwdBody = Rewrite(Type->makeForward(Ctx));
  StmtPtr FwdNest = WrapLoops(std::move(FwdBody));
  RowOp FwdCompute;
  FwdCompute.RowExtent = 0;
  // The nest is re-cloned per instantiation because RowOp::Make may be
  // called more than once (untiled and tiled materializations).
  FwdCompute.Make = [Nest = std::shared_ptr<Stmt>(std::move(FwdNest))](
                        ExprPtr, int64_t) { return Nest->clone(); };
  FwdTask.PerItem.push_back(std::move(FwdCompute));

  if (Type->forwardAccumulates(Ctx)) {
    BufferInfo *V =
        const_cast<BufferInfo *>(Prog.findBuffer(E->valueBuffer()));
    if (!V->AliasOf.empty())
      reportFatalError("ensemble '" + E->name() +
                       "' accumulates into its value and therefore cannot "
                       "run in place; use a Standard ensemble");
    V->ZeroOnForward = true;
  }

  if (Type->hasBackward()) {
    StmtPtr BwdBody = Rewrite(Type->makeBackward(Ctx));
    StmtPtr BwdNest = WrapLoops(std::move(BwdBody));
    RowOp BwdCompute;
    BwdCompute.RowExtent = 0;
    BwdCompute.Make = [Nest = std::shared_ptr<Stmt>(std::move(BwdNest))](
                          ExprPtr, int64_t) { return Nest->clone(); };
    BwdTask.PerItem.push_back(std::move(BwdCompute));

    // Scatter input gradients back to the sources (every connection:
    // grad-input buffers are always private on the interpreted path).
    for (size_t CI = 0; CI < Infos.size(); ++CI) {
      const ConnLayout &CL = Layouts[CI];
      Ensemble *Src = E->inputs()[CI].Source;
      int64_t SrcElems = Src->dims().numElements();
      std::string Table = E->name() + "_table" + std::to_string(CI);
      std::string GinBuf = E->gradInputBuffer(CI);
      int64_t PerItem = CL.K * CL.NsVolume;
      RowOp Scatter;
      Scatter.RowExtent = 0;
      Scatter.Make = [=, SrcName = Src->gradBuffer()](ExprPtr, int64_t) {
        return kernelCall(KernelKind::ScatterAdd2D,
                          bufArgs(KernelBufArg(SrcName, nOff(SrcElems)),
                                  KernelBufArg(GinBuf, nOff(PerItem)),
                                  KernelBufArg(Table)),
                          {CL.K, CL.NsVolume, CL.NsVolume}, {},
                          indexList(intConst(0)));
      };
      BwdTask.PerItem.push_back(std::move(Scatter));
    }
  }

  Prog.Report.InterpretedEnsembles.push_back(E->name());
  Fwd.push_back(std::move(FwdTask));
  Bwd.push_back(std::move(BwdTask));
}

} // namespace
