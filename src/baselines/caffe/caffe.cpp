//===- baselines/caffe/caffe.cpp ------------------------------*- C++ -*-===//

#include "baselines/caffe/caffe.h"

#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/pooling.h"
#include "kernels/softmax.h"
#include "support/error.h"

using namespace latte;
using namespace latte::caffe;

Layer::~Layer() = default;

//===----------------------------------------------------------------------===//
// ConvolutionLayer
//===----------------------------------------------------------------------===//

void ConvolutionLayer::reshape(const std::vector<Blob *> &Bottom,
                               const std::vector<Blob *> &Top) {
  const Shape &In = Bottom[0]->shape();
  assert(In.rank() == 4 && "conv bottom must be (batch, C, H, W)");
  Geom = kernels::ConvGeometry{In[1], In[2], In[3], Kernel, Kernel,
                               Stride,  Stride, Pad,   Pad};
  if (Geom.outH() <= 0 || Geom.outW() <= 0)
    reportFatalError("conv layer '" + Name + "' has empty output");
  *Top[0] = Blob(Shape{In[0], NumFilters, Geom.outH(), Geom.outW()});
  Params.clear();
  Params.emplace_back(Shape{NumFilters, Geom.colRows()});
  Params.emplace_back(Shape{NumFilters});
  ColBuffer = Tensor(Shape{Geom.colRows(), Geom.colCols()});
}

void ConvolutionLayer::initParams(Rng &R) {
  R.fillXavier(Params[0].Data, Geom.colRows());
  Params[1].Data.zero();
}

void ConvolutionLayer::forward(const std::vector<Blob *> &Bottom,
                               const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t InItem = Bottom[0]->itemCount();
  const int64_t OutItem = Top[0]->itemCount();
  const int64_t M = NumFilters, N = Geom.colCols(), K = Geom.colRows();
  for (int64_t I = 0; I < B; ++I) {
    kernels::im2col(Bottom[0]->Data.data() + I * InItem, Geom,
                    ColBuffer.data());
    kernels::sgemm(false, false, M, N, K, Params[0].Data.data(), K,
                   ColBuffer.data(), N, Top[0]->Data.data() + I * OutItem, N,
                   /*Accumulate=*/false);
    float *Out = Top[0]->Data.data() + I * OutItem;
    for (int64_t F = 0; F < M; ++F)
      kernels::addScalar(Out + F * N, Params[1].Data.at(F), N);
  }
}

void ConvolutionLayer::backward(const std::vector<Blob *> &Bottom,
                                const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t InItem = Bottom[0]->itemCount();
  const int64_t OutItem = Top[0]->itemCount();
  const int64_t M = NumFilters, N = Geom.colCols(), K = Geom.colRows();
  for (int64_t I = 0; I < B; ++I) {
    const float *OutGrad = Top[0]->Grad.data() + I * OutItem;
    // Weight gradient: gW += gOut * col(x)^T.
    kernels::im2col(Bottom[0]->Data.data() + I * InItem, Geom,
                    ColBuffer.data());
    kernels::sgemm(false, true, M, K, N, OutGrad, N, ColBuffer.data(), N,
                   Params[0].Grad.data(), K, /*Accumulate=*/true);
    // Bias gradient.
    for (int64_t F = 0; F < M; ++F)
      Params[1].Grad.at(F) += kernels::sum(OutGrad + F * N, N);
    // Input gradient: col grad = W^T * gOut, then col2im.
    kernels::sgemm(true, false, K, N, M, Params[0].Data.data(), K, OutGrad,
                   N, ColBuffer.data(), N, /*Accumulate=*/false);
    kernels::col2im(ColBuffer.data(), Geom,
                    Bottom[0]->Grad.data() + I * InItem);
  }
}

//===----------------------------------------------------------------------===//
// InnerProductLayer
//===----------------------------------------------------------------------===//

void InnerProductLayer::reshape(const std::vector<Blob *> &Bottom,
                                const std::vector<Blob *> &Top) {
  NumInputs = Bottom[0]->itemCount();
  *Top[0] = Blob(Shape{Bottom[0]->shape()[0], NumOutputs});
  Params.clear();
  Params.emplace_back(Shape{NumOutputs, NumInputs});
  Params.emplace_back(Shape{NumOutputs});
}

void InnerProductLayer::initParams(Rng &R) {
  R.fillXavier(Params[0].Data, NumInputs);
  Params[1].Data.zero();
}

void InnerProductLayer::forward(const std::vector<Blob *> &Bottom,
                                const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  kernels::sgemm(false, true, B, NumOutputs, NumInputs,
                 Bottom[0]->Data.data(), NumInputs, Params[0].Data.data(),
                 NumInputs, Top[0]->Data.data(), NumOutputs,
                 /*Accumulate=*/false);
  for (int64_t I = 0; I < B; ++I)
    kernels::addTo(Top[0]->Data.data() + I * NumOutputs,
                   Params[1].Data.data(), NumOutputs);
}

void InnerProductLayer::backward(const std::vector<Blob *> &Bottom,
                                 const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  // gW += gOut^T * x.
  kernels::sgemm(true, false, NumOutputs, NumInputs, B,
                 Top[0]->Grad.data(), NumOutputs, Bottom[0]->Data.data(),
                 NumInputs, Params[0].Grad.data(), NumInputs,
                 /*Accumulate=*/true);
  // gb += column sums of gOut.
  for (int64_t I = 0; I < B; ++I)
    kernels::addTo(Params[1].Grad.data(),
                   Top[0]->Grad.data() + I * NumOutputs, NumOutputs);
  // gx += gOut * W.
  kernels::sgemm(false, false, B, NumInputs, NumOutputs,
                 Top[0]->Grad.data(), NumOutputs, Params[0].Data.data(),
                 NumInputs, Bottom[0]->Grad.data(), NumInputs,
                 /*Accumulate=*/true);
}

//===----------------------------------------------------------------------===//
// ReluLayer (in place)
//===----------------------------------------------------------------------===//

void ReluLayer::reshape(const std::vector<Blob *> &Bottom,
                        const std::vector<Blob *> &Top) {
  assert(Bottom[0] == Top[0] && "caffe relu runs in place");
}

void ReluLayer::forward(const std::vector<Blob *> &Bottom,
                        const std::vector<Blob *> &Top) {
  kernels::reluFwd(Top[0]->Data.data(), Bottom[0]->Data.data(),
                   Bottom[0]->count());
}

void ReluLayer::backward(const std::vector<Blob *> &Bottom,
                         const std::vector<Blob *> &Top) {
  float *G = Bottom[0]->Grad.data();
  const float *V = Top[0]->Data.data();
  for (int64_t I = 0, E = Bottom[0]->count(); I < E; ++I)
    G[I] = V[I] > 0.0f ? G[I] : 0.0f;
}

//===----------------------------------------------------------------------===//
// PoolingLayer
//===----------------------------------------------------------------------===//

void PoolingLayer::reshape(const std::vector<Blob *> &Bottom,
                           const std::vector<Blob *> &Top) {
  const Shape &In = Bottom[0]->shape();
  assert(In.rank() == 4 && "pooling bottom must be (batch, C, H, W)");
  Geom = kernels::ConvGeometry{In[1], In[2], In[3], Kernel, Kernel,
                               Stride,  Stride, Pad,   Pad};
  *Top[0] = Blob(Shape{In[0], In[1], Geom.outH(), Geom.outW()});
  Mask.assign(static_cast<size_t>(Top[0]->count()), -1);
}

void PoolingLayer::forward(const std::vector<Blob *> &Bottom,
                           const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t InItem = Bottom[0]->itemCount();
  const int64_t OutItem = Top[0]->itemCount();
  for (int64_t I = 0; I < B; ++I) {
    if (M == Mode::Max)
      kernels::maxPoolFwd(Bottom[0]->Data.data() + I * InItem, Geom,
                          Top[0]->Data.data() + I * OutItem,
                          Mask.data() + I * OutItem);
    else
      kernels::avgPoolFwd(Bottom[0]->Data.data() + I * InItem, Geom,
                          Top[0]->Data.data() + I * OutItem);
  }
}

void PoolingLayer::backward(const std::vector<Blob *> &Bottom,
                            const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t InItem = Bottom[0]->itemCount();
  const int64_t OutItem = Top[0]->itemCount();
  for (int64_t I = 0; I < B; ++I) {
    if (M == Mode::Max)
      kernels::maxPoolBwd(Top[0]->Grad.data() + I * OutItem, Geom,
                          Mask.data() + I * OutItem,
                          Bottom[0]->Grad.data() + I * InItem);
    else
      kernels::avgPoolBwd(Top[0]->Grad.data() + I * OutItem, Geom,
                          Bottom[0]->Grad.data() + I * InItem);
  }
}

//===----------------------------------------------------------------------===//
// SoftmaxLossLayer
//===----------------------------------------------------------------------===//

void SoftmaxLossLayer::reshape(const std::vector<Blob *> &Bottom,
                               const std::vector<Blob *> &Top) {
  assert(Bottom.size() == 2 && "softmax loss needs logits and labels");
  *Top[0] = Blob(Shape{Bottom[0]->shape()[0]});
  Prob = Tensor(Bottom[0]->shape());
}

void SoftmaxLossLayer::forward(const std::vector<Blob *> &Bottom,
                               const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t Classes = Bottom[0]->itemCount();
  for (int64_t I = 0; I < B; ++I) {
    kernels::softmaxFwd(Prob.data() + I * Classes,
                        Bottom[0]->Data.data() + I * Classes, Classes);
    Top[0]->Data.at(I) = kernels::crossEntropyLoss(
        Prob.data() + I * Classes, Classes,
        static_cast<int64_t>(Bottom[1]->Data.at(I)));
  }
}

void SoftmaxLossLayer::backward(const std::vector<Blob *> &Bottom,
                                const std::vector<Blob *> &Top) {
  const int64_t B = Bottom[0]->shape()[0];
  const int64_t Classes = Bottom[0]->itemCount();
  const float Scale = 1.0f / static_cast<float>(B);
  for (int64_t I = 0; I < B; ++I)
    kernels::softmaxLossBwd(Bottom[0]->Grad.data() + I * Classes,
                            Prob.data() + I * Classes, Classes,
                            static_cast<int64_t>(Bottom[1]->Data.at(I)),
                            Scale);
}

//===----------------------------------------------------------------------===//
// CaffeNet
//===----------------------------------------------------------------------===//

void CaffeNet::setInputShape(Shape PerItem) {
  assert(Blobs.empty() && "input shape must be set before layers");
  Blobs.emplace_back(PerItem.withPrefix(BatchSize));
}

void CaffeNet::enableLabels() {
  HasLabels = true;
  Labels = Blob(Shape{BatchSize});
}

Blob &CaffeNet::labelBlob() {
  assert(HasLabels && "labels were not enabled");
  return Labels;
}

Layer *CaffeNet::addLayer(std::unique_ptr<Layer> NewLayer) {
  assert(!Blobs.empty() && "set the input shape first");
  assert(!IsSetup && "cannot add layers after setup");
  L.push_back(std::move(NewLayer));
  // In-place layers (ReLU) reuse the previous blob; others get a new one.
  if (!L.back()->isInPlace())
    Blobs.emplace_back();
  return L.back().get();
}

void CaffeNet::setup(uint64_t Seed) {
  assert(!IsSetup && "setup runs once");
  Rng R(Seed);
  size_t BlobIndex = 0;
  for (auto &Layer : L) {
    Blob *Bottom = &Blobs[BlobIndex];
    bool InPlace = Layer->isInPlace();
    Blob *Top = InPlace ? Bottom : &Blobs[BlobIndex + 1];
    std::vector<Blob *> Bottoms = {Bottom};
    if (Layer->needsLabels()) {
      assert(HasLabels && "softmax loss requires labels");
      Bottoms.push_back(&Labels);
    }
    Layer->reshape(Bottoms, {Top});
    Layer->initParams(R);
    if (!InPlace)
      ++BlobIndex;
  }
  IsSetup = true;
}

void CaffeNet::forward() {
  assert(IsSetup && "call setup() first");
  size_t BlobIndex = 0;
  for (auto &Layer : L) {
    Blob *Bottom = &Blobs[BlobIndex];
    bool InPlace = Layer->isInPlace();
    Blob *Top = InPlace ? Bottom : &Blobs[BlobIndex + 1];
    std::vector<Blob *> Bottoms = {Bottom};
    if (Layer->needsLabels())
      Bottoms.push_back(&Labels);
    Layer->forward(Bottoms, {Top});
    if (!InPlace)
      ++BlobIndex;
  }
}

void CaffeNet::backward() {
  assert(IsSetup && "call setup() first");
  // Zero all gradients (blobs and params), then run layers in reverse.
  for (Blob &B : Blobs)
    B.Grad.zero();
  for (auto &Layer : L)
    for (Blob &P : Layer->params())
      P.Grad.zero();

  // Recompute blob indices for reverse traversal.
  std::vector<size_t> BottomIndex(L.size());
  size_t BlobIndex = 0;
  for (size_t I = 0; I < L.size(); ++I) {
    BottomIndex[I] = BlobIndex;
    if (!L[I]->isInPlace())
      ++BlobIndex;
  }
  for (size_t I = L.size(); I-- > 0;) {
    Blob *Bottom = &Blobs[BottomIndex[I]];
    bool InPlace = L[I]->isInPlace();
    Blob *Top = InPlace ? Bottom : &Blobs[BottomIndex[I] + 1];
    std::vector<Blob *> Bottoms = {Bottom};
    if (L[I]->needsLabels())
      Bottoms.push_back(&Labels);
    L[I]->backward(Bottoms, {Top});
  }
}

double CaffeNet::lossValue() const {
  const Blob &Out = Blobs.back();
  double Sum = 0;
  for (int64_t I = 0; I < Out.count(); ++I)
    Sum += Out.Data.at(I);
  return Sum / static_cast<double>(Out.count());
}
