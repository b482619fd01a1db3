//===- data/datasets.h - Synthetic datasets --------------------*- C++ -*-===//
///
/// \file
/// Data sources for training and benchmarking. Real ImageNet/MNIST data is
/// not available offline, so the repository substitutes synthetic
/// generators with the same shapes (see DESIGN.md): a procedurally
/// generated MNIST-like classification task that small networks learn to
/// >99% (for the Figure 20 accuracy experiment); the throughput benchmarks
/// fill their ImageNet-shaped inputs with random values themselves.
/// Datasets can also be serialized to the .ltd format and read back with
/// readDatasetLtd — the stand-in for the paper's HDF5DataLayer.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_DATA_DATASETS_H
#define LATTE_DATA_DATASETS_H

#include "solvers/solvers.h"
#include "support/rng.h"
#include "support/tensor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace latte {
namespace data {

/// Abstract labeled dataset of fixed-shape items.
class Dataset {
public:
  virtual ~Dataset();

  virtual int64_t size() const = 0;
  virtual const Shape &itemDims() const = 0;
  /// Writes item \p Index into \p Out (itemDims-sized) and returns its
  /// class label.
  virtual int64_t fillItem(int64_t Index, float *Out) const = 0;
};

/// MNIST-like synthetic digits: each class has a smooth random prototype
/// image; samples are prototypes with a random sub-pixel shift plus
/// Gaussian noise. Deterministic per (seed, index).
class SyntheticMnist : public Dataset {
public:
  SyntheticMnist(int64_t NumItems, uint64_t Seed = 0xd16175,
                 int64_t NumClasses = 10, int64_t Side = 28,
                 float NoiseStddev = 0.25f, int64_t MaxShift = 2);

  int64_t size() const override { return NumItems; }
  const Shape &itemDims() const override { return Dims; }
  int64_t fillItem(int64_t Index, float *Out) const override;

  int64_t numClasses() const { return NumClasses; }

private:
  int64_t NumItems;
  uint64_t Seed;
  int64_t NumClasses;
  int64_t Side;
  float NoiseStddev;
  int64_t MaxShift;
  Shape Dims;
  std::vector<Tensor> Prototypes; ///< one (Side+2*MaxShift)^2 image/class
};

/// An in-memory dataset backed by explicit tensors (used by readDatasetLtd
/// and tests).
class MemoryDataset : public Dataset {
public:
  MemoryDataset(Tensor Items, Tensor Labels);

  int64_t size() const override { return Items.shape().dim(0); }
  const Shape &itemDims() const override { return Dims; }
  int64_t fillItem(int64_t Index, float *Out) const override;

private:
  Tensor Items;  ///< (N, item dims...)
  Tensor Labels; ///< (N)
  Shape Dims;
};

/// Writes a dataset to a .ltd file holding "data" and "label" tensors.
bool writeDatasetLtd(const Dataset &Ds, const std::string &Path);

/// Reads a dataset previously written by writeDatasetLtd (the
/// HDF5DataLayer substitute of Figure 7). Fatal, naming the file, when
/// 'data' or 'label' is missing or misshapen, or when a label is not a
/// class index: NaN, negative, fractional, or 2^24 or more (where floats
/// stop holding every integer).
MemoryDataset readDatasetLtd(const std::string &Path);

/// Builds a BatchProvider that cycles deterministically through \p Ds.
solvers::BatchProvider batchesOf(const Dataset &Ds);

/// Evaluates classification accuracy of \p Ex over \p Count items of
/// \p Ds (rounded down to whole batches).
double evaluateAccuracy(engine::Executor &Ex, const Dataset &Ds,
                        int64_t Count);

} // namespace data
} // namespace latte

#endif // LATTE_DATA_DATASETS_H
