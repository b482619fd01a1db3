//===- support/shape.h - N-dimensional shapes ------------------*- C++ -*-===//
///
/// \file
/// Shape describes the extents of an N-dimensional array. Latte uses
/// row-major (C) ordering: the LAST dimension varies fastest. An ensemble of
/// neurons arranged as (channels, height, width) therefore stores all `width`
/// entries of a row contiguously.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_SUPPORT_SHAPE_H
#define LATTE_SUPPORT_SHAPE_H

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace latte {

class Shape {
public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> Dims) : Dims(Dims) { checkDims(); }
  explicit Shape(std::vector<int64_t> Dims) : Dims(std::move(Dims)) {
    checkDims();
  }

  /// Number of dimensions (rank).
  int rank() const { return static_cast<int>(Dims.size()); }

  int64_t dim(int I) const {
    assert(I >= 0 && I < rank() && "shape dimension out of range");
    return Dims[I];
  }

  int64_t operator[](int I) const { return dim(I); }

  /// Total number of elements (product of extents); 1 for a rank-0 shape.
  int64_t numElements() const;

  const std::vector<int64_t> &dims() const { return Dims; }

  bool operator==(const Shape &Other) const { return Dims == Other.Dims; }
  bool operator!=(const Shape &Other) const { return !(*this == Other); }

  /// Returns a shape with \p Extent prepended (e.g. adding a batch dim).
  Shape withPrefix(int64_t Extent) const;

  /// Returns the shape with dimension \p I removed.
  Shape withoutDim(int I) const;

  /// Row-major strides: Strides[I] is the linear distance between adjacent
  /// elements along dimension I.
  std::vector<int64_t> strides() const;

  /// Converts a multi-index to its row-major linear offset.
  int64_t linearize(const std::vector<int64_t> &Index) const;

  /// Renders as e.g. "(64, 224, 224)".
  std::string str() const;

private:
  void checkDims() const {
    for ([[maybe_unused]] int64_t D : Dims)
      assert(D >= 0 && "shape extents must be non-negative");
  }

  std::vector<int64_t> Dims;
};

} // namespace latte

#endif // LATTE_SUPPORT_SHAPE_H
