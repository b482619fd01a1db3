//===- support/shape.cpp --------------------------------------*- C++ -*-===//

#include "support/shape.h"

#include <sstream>

using namespace latte;

int64_t Shape::numElements() const {
  int64_t N = 1;
  for (int64_t D : Dims)
    N *= D;
  return N;
}

Shape Shape::withPrefix(int64_t Extent) const {
  std::vector<int64_t> NewDims;
  NewDims.reserve(Dims.size() + 1);
  NewDims.push_back(Extent);
  NewDims.insert(NewDims.end(), Dims.begin(), Dims.end());
  return Shape(std::move(NewDims));
}

Shape Shape::withoutDim(int I) const {
  assert(I >= 0 && I < rank() && "dimension out of range");
  std::vector<int64_t> NewDims = Dims;
  NewDims.erase(NewDims.begin() + I);
  return Shape(std::move(NewDims));
}

std::vector<int64_t> Shape::strides() const {
  std::vector<int64_t> Strides(Dims.size(), 1);
  for (int I = rank() - 2; I >= 0; --I)
    Strides[I] = Strides[I + 1] * Dims[I + 1];
  return Strides;
}

int64_t Shape::linearize(const std::vector<int64_t> &Index) const {
  assert(static_cast<int>(Index.size()) == rank() &&
         "index rank does not match shape rank");
  int64_t Linear = 0;
  for (int I = 0; I < rank(); ++I) {
    assert(Index[I] >= 0 && Index[I] < Dims[I] && "index out of bounds");
    Linear = Linear * Dims[I] + Index[I];
  }
  return Linear;
}

std::string Shape::str() const {
  std::ostringstream OS;
  OS << "(";
  for (int I = 0; I < rank(); ++I) {
    if (I)
      OS << ", ";
    OS << Dims[I];
  }
  OS << ")";
  return OS.str();
}
