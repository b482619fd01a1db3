//===- tests/support/shape_test.cpp ---------------------------*- C++ -*-===//

#include "support/shape.h"

#include <gtest/gtest.h>

using namespace latte;

TEST(ShapeTest, RankAndDims) {
  Shape S{3, 224, 224};
  EXPECT_EQ(S.rank(), 3);
  EXPECT_EQ(S.dim(0), 3);
  EXPECT_EQ(S[2], 224);
}

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(Shape({}).numElements(), 1);
  EXPECT_EQ(Shape({5}).numElements(), 5);
  EXPECT_EQ(Shape({3, 4, 5}).numElements(), 60);
  EXPECT_EQ(Shape({3, 0, 5}).numElements(), 0);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(ShapeTest, WithPrefix) {
  Shape S = Shape({3, 4}).withPrefix(8);
  EXPECT_EQ(S, Shape({8, 3, 4}));
}

TEST(ShapeTest, WithoutDim) {
  Shape S{2, 3, 4};
  EXPECT_EQ(S.withoutDim(0), Shape({3, 4}));
  EXPECT_EQ(S.withoutDim(1), Shape({2, 4}));
  EXPECT_EQ(S.withoutDim(2), Shape({2, 3}));
}

TEST(ShapeTest, StridesAreRowMajor) {
  Shape S{2, 3, 4};
  std::vector<int64_t> Strides = S.strides();
  ASSERT_EQ(Strides.size(), 3u);
  EXPECT_EQ(Strides[0], 12);
  EXPECT_EQ(Strides[1], 4);
  EXPECT_EQ(Strides[2], 1);
}

TEST(ShapeTest, LinearizeMatchesStrides) {
  Shape S{4, 6};
  EXPECT_EQ(S.linearize({0, 0}), 0);
  EXPECT_EQ(S.linearize({1, 0}), 6);
  EXPECT_EQ(S.linearize({2, 3}), 15);
}

TEST(ShapeTest, Str) {
  EXPECT_EQ(Shape({64, 224, 224}).str(), "(64, 224, 224)");
  EXPECT_EQ(Shape({}).str(), "()");
}
