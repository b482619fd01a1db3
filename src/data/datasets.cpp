//===- data/datasets.cpp --------------------------------------*- C++ -*-===//

#include "data/datasets.h"

#include "support/error.h"
#include "support/ltd_format.h"

#include <cmath>

using namespace latte;
using namespace latte::data;

Dataset::~Dataset() = default;

//===----------------------------------------------------------------------===//
// SyntheticMnist
//===----------------------------------------------------------------------===//

SyntheticMnist::SyntheticMnist(int64_t NumItems, uint64_t Seed,
                               int64_t NumClasses, int64_t Side,
                               float NoiseStddev, int64_t MaxShift)
    : NumItems(NumItems), Seed(Seed), NumClasses(NumClasses), Side(Side),
      NoiseStddev(NoiseStddev), MaxShift(MaxShift), Dims({1, Side, Side}) {
  assert(NumItems > 0 && NumClasses > 1 && Side > 4 * MaxShift &&
         "degenerate synthetic MNIST configuration");
  // Each class prototype is a sum of random Gaussian bumps on a canvas
  // large enough for shifted crops.
  const int64_t Canvas = Side + 2 * MaxShift;
  Rng R(Seed);
  Prototypes.reserve(NumClasses);
  for (int64_t C = 0; C < NumClasses; ++C) {
    Tensor Proto(Shape{Canvas, Canvas});
    const int Bumps = 6;
    for (int B = 0; B < Bumps; ++B) {
      double Cx = R.uniform(0.2, 0.8) * Canvas;
      double Cy = R.uniform(0.2, 0.8) * Canvas;
      double Sigma = R.uniform(0.06, 0.16) * Canvas;
      double Amp = R.uniform(0.5, 1.0) * (B % 2 == 0 ? 1.0 : -1.0);
      for (int64_t Y = 0; Y < Canvas; ++Y)
        for (int64_t X = 0; X < Canvas; ++X) {
          double D2 = (X - Cx) * (X - Cx) + (Y - Cy) * (Y - Cy);
          Proto.at(Y * Canvas + X) +=
              static_cast<float>(Amp * std::exp(-D2 / (2 * Sigma * Sigma)));
        }
    }
    Prototypes.push_back(std::move(Proto));
  }
}

int64_t SyntheticMnist::fillItem(int64_t Index, float *Out) const {
  assert(Index >= 0 && Index < NumItems && "dataset index out of range");
  int64_t Label = Index % NumClasses;
  Rng R(Seed ^ (0x9e3779b9ULL * static_cast<uint64_t>(Index + 1)));
  const int64_t Canvas = Side + 2 * MaxShift;
  int64_t Dx = MaxShift > 0 ? R.uniformInt(2 * MaxShift + 1) : 0;
  int64_t Dy = MaxShift > 0 ? R.uniformInt(2 * MaxShift + 1) : 0;
  const Tensor &Proto = Prototypes[Label];
  for (int64_t Y = 0; Y < Side; ++Y)
    for (int64_t X = 0; X < Side; ++X)
      Out[Y * Side + X] =
          Proto.at((Y + Dy) * Canvas + (X + Dx)) +
          static_cast<float>(R.gaussian(0.0, NoiseStddev));
  return Label;
}

//===----------------------------------------------------------------------===//
// RandomImages
//===----------------------------------------------------------------------===//

RandomImages::RandomImages(int64_t NumItems, Shape ItemDims,
                           int64_t NumClasses, uint64_t Seed)
    : NumItems(NumItems), Dims(std::move(ItemDims)), NumClasses(NumClasses),
      Seed(Seed) {}

int64_t RandomImages::fillItem(int64_t Index, float *Out) const {
  Rng R(Seed ^ (0x2545f4914f6cdd1dULL * static_cast<uint64_t>(Index + 1)));
  for (int64_t I = 0, E = Dims.numElements(); I < E; ++I)
    Out[I] = static_cast<float>(R.gaussian());
  return Index % NumClasses;
}

//===----------------------------------------------------------------------===//
// MemoryDataset and .ltd I/O
//===----------------------------------------------------------------------===//

MemoryDataset::MemoryDataset(Tensor TheItems, Tensor TheLabels)
    : Items(std::move(TheItems)), Labels(std::move(TheLabels)) {
  assert(Items.shape().rank() >= 2 && "items must be (N, dims...)");
  assert(Labels.numElements() == Items.shape().dim(0) &&
         "one label per item");
  Dims = Items.shape().withoutDim(0);
}

int64_t MemoryDataset::fillItem(int64_t Index, float *Out) const {
  int64_t ItemSize = Dims.numElements();
  const float *Src = Items.data() + Index * ItemSize;
  for (int64_t I = 0; I < ItemSize; ++I)
    Out[I] = Src[I];
  return static_cast<int64_t>(Labels.at(Index));
}

bool data::writeDatasetLtd(const Dataset &Ds, const std::string &Path) {
  int64_t N = Ds.size();
  Tensor Items(Ds.itemDims().withPrefix(N));
  Tensor Labels(Shape{N});
  int64_t ItemSize = Ds.itemDims().numElements();
  for (int64_t I = 0; I < N; ++I)
    Labels.at(I) =
        static_cast<float>(Ds.fillItem(I, Items.data() + I * ItemSize));
  return writeLtdFile(Path, {{"data", std::move(Items)},
                             {"label", std::move(Labels)}});
}

MemoryDataset data::readDatasetLtd(const std::string &Path) {
  auto Tensors = readLtdFile(Path);
  Tensor Items, Labels;
  bool HaveData = false, HaveLabel = false;
  for (auto &[Name, T] : Tensors) {
    if (Name == "data") {
      Items = std::move(T);
      HaveData = true;
    } else if (Name == "label") {
      Labels = std::move(T);
      HaveLabel = true;
    }
  }
  if (!HaveData || !HaveLabel)
    reportFatalError(Path + " does not contain 'data' and 'label' tensors");
  if (Items.shape().rank() < 2)
    reportFatalError(Path + ": 'data' must be (items, dims...), got shape " +
                     Items.shape().str());
  if (Labels.numElements() != Items.shape().dim(0))
    reportFatalError(Path + ": " + std::to_string(Items.shape().dim(0)) +
                     " items but " + std::to_string(Labels.numElements()) +
                     " labels");
  return MemoryDataset(std::move(Items), std::move(Labels));
}

//===----------------------------------------------------------------------===//
// Batching helpers
//===----------------------------------------------------------------------===//

solvers::BatchProvider data::batchesOf(const Dataset &Ds) {
  return [&Ds](int64_t Iter, Tensor &Data, Tensor &Labels) {
    int64_t Batch = Data.shape().dim(0);
    int64_t ItemSize = Data.numElements() / Batch;
    assert(ItemSize == Ds.itemDims().numElements() &&
           "batch tensor does not match the dataset item shape");
    for (int64_t I = 0; I < Batch; ++I) {
      int64_t Index = (Iter * Batch + I) % Ds.size();
      Labels.at(I) = static_cast<float>(
          Ds.fillItem(Index, Data.data() + I * ItemSize));
    }
  };
}

double data::evaluateAccuracy(engine::Executor &Ex, const Dataset &Ds,
                              int64_t Count) {
  const compiler::Program &Prog = Ex.program();
  Tensor Data(Ex.shape(Prog.DataBuffer));
  Tensor Labels(Ex.shape(Prog.LabelBuffer));
  int64_t Batch = Prog.BatchSize;
  int64_t ItemSize = Data.numElements() / Batch;
  int64_t Batches = Count / Batch;
  assert(Batches > 0 && "need at least one full batch to evaluate");
  double Sum = 0;
  for (int64_t B = 0; B < Batches; ++B) {
    for (int64_t I = 0; I < Batch; ++I) {
      int64_t Index = (B * Batch + I) % Ds.size();
      Labels.at(I) = static_cast<float>(
          Ds.fillItem(Index, Data.data() + I * ItemSize));
    }
    Ex.setInput(Data);
    Ex.setLabels(Labels);
    Ex.forward();
    Sum += Ex.accuracy();
  }
  return Sum / static_cast<double>(Batches);
}
