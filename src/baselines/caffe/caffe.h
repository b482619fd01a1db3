//===- baselines/caffe/caffe.h - Caffe-style layer library ----*- C++ -*-===//
///
/// \file
/// A faithful reimplementation of the architecture Latte is compared
/// against in the paper's evaluation (§7): a *layer-specific library*
/// framework in the style of Caffe. Each layer is a statically compiled
/// kernel over Blobs; convolution is lowered to im2col + GEMM (the
/// C++/MKL formulation); there is no cross-layer optimization by
/// construction — that is the architectural property the paper's speedups
/// come from.
///
/// The GEMM used here is the same library kernel Latte's pattern matcher
/// targets, mirroring the paper's setup where both systems call MKL.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_BASELINES_CAFFE_CAFFE_H
#define LATTE_BASELINES_CAFFE_CAFFE_H

#include "kernels/im2col.h"
#include "support/rng.h"
#include "support/tensor.h"

#include <memory>
#include <string>
#include <vector>

namespace latte {
namespace caffe {

/// Data + gradient pair, batch-major (dim 0 is the batch).
struct Blob {
  Tensor Data;
  Tensor Grad;

  Blob() = default;
  explicit Blob(Shape S) : Data(S), Grad(std::move(S)) {}

  const Shape &shape() const { return Data.shape(); }
  int64_t count() const { return Data.numElements(); }
  /// Elements per batch item.
  int64_t itemCount() const { return count() / Data.shape().dim(0); }
};

/// Base layer: forward/backward over bottom/top blobs.
class Layer {
public:
  explicit Layer(std::string Name) : Name(std::move(Name)) {}
  virtual ~Layer();

  const std::string &name() const { return Name; }

  /// Shapes the top blob(s) from the bottom shapes and allocates internal
  /// buffers. Called once before the first forward.
  virtual void reshape(const std::vector<Blob *> &Bottom,
                       const std::vector<Blob *> &Top) = 0;
  virtual void forward(const std::vector<Blob *> &Bottom,
                       const std::vector<Blob *> &Top) = 0;
  /// Accumulates into bottom Grad and parameter Grad.
  virtual void backward(const std::vector<Blob *> &Bottom,
                        const std::vector<Blob *> &Top) = 0;

  std::vector<Blob> &params() { return Params; }
  const std::vector<Blob> &params() const { return Params; }

  /// Initializes learnable parameters.
  virtual void initParams(Rng &R) {}

  /// True for layers that run in place (top blob == bottom blob).
  virtual bool isInPlace() const { return false; }
  /// True for layers that take the label blob as a second bottom.
  virtual bool needsLabels() const { return false; }

protected:
  std::string Name;
  std::vector<Blob> Params;
};

/// Convolution via im2col + GEMM (Chetlur et al. formulation, which Caffe
/// uses). Params: [0] weights (F x C*K*K), [1] bias (F).
class ConvolutionLayer : public Layer {
public:
  ConvolutionLayer(std::string Name, int64_t NumFilters, int64_t Kernel,
                   int64_t Stride, int64_t Pad)
      : Layer(std::move(Name)), NumFilters(NumFilters), Kernel(Kernel),
        Stride(Stride), Pad(Pad) {}

  void reshape(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void forward(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void backward(const std::vector<Blob *> &Bottom,
                const std::vector<Blob *> &Top) override;
  void initParams(Rng &R) override;

private:
  int64_t NumFilters, Kernel, Stride, Pad;
  kernels::ConvGeometry Geom;
  Tensor ColBuffer; ///< im2col scratch, reused across items (static kernel)
};

/// Fully connected layer. Params: [0] weights (O x I), [1] bias (O).
class InnerProductLayer : public Layer {
public:
  InnerProductLayer(std::string Name, int64_t NumOutputs)
      : Layer(std::move(Name)), NumOutputs(NumOutputs) {}

  void reshape(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void forward(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void backward(const std::vector<Blob *> &Bottom,
                const std::vector<Blob *> &Top) override;
  void initParams(Rng &R) override;

private:
  int64_t NumOutputs;
  int64_t NumInputs = 0;
};

/// In-place ReLU.
class ReluLayer : public Layer {
public:
  explicit ReluLayer(std::string Name) : Layer(std::move(Name)) {}
  bool isInPlace() const override { return true; }
  void reshape(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void forward(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void backward(const std::vector<Blob *> &Bottom,
                const std::vector<Blob *> &Top) override;
};

/// Max or average pooling.
class PoolingLayer : public Layer {
public:
  enum class Mode { Max, Avg };
  PoolingLayer(std::string Name, Mode M, int64_t Kernel, int64_t Stride,
               int64_t Pad = 0)
      : Layer(std::move(Name)), M(M), Kernel(Kernel), Stride(Stride),
        Pad(Pad) {}

  void reshape(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void forward(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void backward(const std::vector<Blob *> &Bottom,
                const std::vector<Blob *> &Top) override;

private:
  Mode M;
  int64_t Kernel, Stride, Pad;
  kernels::ConvGeometry Geom;
  std::vector<int32_t> Mask; ///< argmax per output (max mode)
};

/// Fused softmax + cross-entropy loss. Bottom: {logits, labels}.
/// Top: {loss (scalar per batch mean)}. Also exposes probabilities.
class SoftmaxLossLayer : public Layer {
public:
  explicit SoftmaxLossLayer(std::string Name) : Layer(std::move(Name)) {}
  void reshape(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void forward(const std::vector<Blob *> &Bottom,
               const std::vector<Blob *> &Top) override;
  void backward(const std::vector<Blob *> &Bottom,
                const std::vector<Blob *> &Top) override;

  const Tensor &probabilities() const { return Prob; }
  bool needsLabels() const override { return true; }

private:
  Tensor Prob;
};

/// A sequential network of layers (sufficient for the evaluation models).
class CaffeNet {
public:
  explicit CaffeNet(int64_t BatchSize) : BatchSize(BatchSize) {}

  int64_t batchSize() const { return BatchSize; }

  /// Declares the input blob shape (per item).
  void setInputShape(Shape PerItem);
  /// Declares a label input (for nets ending in SoftmaxLossLayer).
  void enableLabels();

  /// Appends a layer; it consumes the previous layer's output.
  Layer *addLayer(std::unique_ptr<Layer> L);

  Blob &inputBlob() { return Blobs.front(); }
  Blob &labelBlob();
  Blob &outputBlob() { return Blobs.back(); }
  Blob &blob(size_t I) { return Blobs[I]; }
  size_t numBlobs() const { return Blobs.size(); }

  /// Allocates all blob shapes and initializes parameters.
  void setup(uint64_t Seed);

  void forward();
  void backward();

  double lossValue() const;

  const std::vector<std::unique_ptr<Layer>> &layers() const { return L; }

private:
  int64_t BatchSize;
  bool HasLabels = false;
  bool IsSetup = false;
  std::vector<std::unique_ptr<Layer>> L;
  std::vector<Blob> Blobs; ///< Blobs[0] = input; Blobs[i+1] = L[i] output
  Blob Labels;
};

} // namespace caffe
} // namespace latte

#endif // LATTE_BASELINES_CAFFE_CAFFE_H
