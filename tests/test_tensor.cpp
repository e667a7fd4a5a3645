// Unit tests for the tensor substrate (shape algebra + dense tensors).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace clflow {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{1, 64, 56, 56};
  EXPECT_EQ(s.rank(), 4);
  EXPECT_EQ(s.NumElements(), 1 * 64 * 56 * 56);
  EXPECT_EQ(s[1], 64);
  EXPECT_EQ(s.channels(), 64);
  EXPECT_EQ(s.height(), 56);
  EXPECT_EQ(s.ToString(), "[1, 64, 56, 56]");
}

TEST(Shape, Strides) {
  const Shape s{2, 3, 4};
  const auto strides = s.Strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(Shape, RejectsNonPositiveExtents) {
  EXPECT_THROW(Shape({1, 0, 3}), Error);
  EXPECT_THROW(Shape({-2}), Error);
}

TEST(Shape, EqualityIsStructural) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
}

TEST(Shape, NchwAccessorRequiresRank4) {
  const Shape s{10};
  EXPECT_THROW((void)s.channels(), Error);
}

TEST(ConvOutDim, MatchesPaperFormula) {
  // H2 = (H1 - F + 2P)/S + 1, Section 2.1.2.
  EXPECT_EQ(ConvOutDim(28, 3, 1, 0), 26);   // LeNet conv1
  EXPECT_EQ(ConvOutDim(26, 2, 2, 0), 13);   // LeNet pool1
  EXPECT_EQ(ConvOutDim(226, 3, 2, 0), 112); // MobileNet conv1 (pre-padded)
  EXPECT_EQ(ConvOutDim(224, 7, 2, 3), 112); // ResNet conv1
  EXPECT_EQ(ConvOutDim(7, 7, 1, 0), 1);     // global average pool
}

TEST(ConvOutDim, RejectsImpossibleWindows) {
  EXPECT_THROW((void)ConvOutDim(2, 5, 1, 0), ShapeError);
  EXPECT_THROW((void)ConvOutDim(8, 3, 0, 0), ShapeError);
  EXPECT_THROW((void)ConvOutDim(8, 0, 1, 0), ShapeError);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{2, 3});
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.size_bytes(), 24);
}

TEST(Tensor, FromDataRoundTrip) {
  auto t = Tensor::FromData(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(t.at(3), 4.0f);
  EXPECT_THROW(Tensor::FromData(Shape{2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, At4UsesNchwLayout) {
  auto t = Tensor::Iota(Shape{1, 2, 3, 4});
  EXPECT_EQ(t.at4(0, 0, 0, 0), 0.0f);
  EXPECT_EQ(t.at4(0, 0, 1, 0), 4.0f);
  EXPECT_EQ(t.at4(0, 1, 0, 0), 12.0f);
  EXPECT_EQ(t.at4(0, 1, 2, 3), 23.0f);
}

TEST(Tensor, CopySharesStorageCloneDoesNot) {
  auto t = Tensor::Iota(Shape{4});
  Tensor shared = t;
  Tensor deep = t.Clone();
  t.at(0) = 42.0f;
  EXPECT_EQ(shared.at(0), 42.0f);
  EXPECT_EQ(deep.at(0), 0.0f);
}

TEST(Tensor, ReshapedSharesStorage) {
  auto t = Tensor::Iota(Shape{2, 6});
  auto r = t.Reshaped(Shape{3, 4});
  t.at(5) = -1.0f;
  EXPECT_EQ(r.at(5), -1.0f);
  EXPECT_THROW((void)t.Reshaped(Shape{5}), Error);
}

TEST(Tensor, RandomIsDeterministicPerSeed) {
  Rng rng1(7), rng2(7), rng3(8);
  auto a = Tensor::Random(Shape{16}, rng1);
  auto b = Tensor::Random(Shape{16}, rng2);
  auto c = Tensor::Random(Shape{16}, rng3);
  EXPECT_EQ(Tensor::MaxAbsDiff(a, b), 0.0f);
  EXPECT_GT(Tensor::MaxAbsDiff(a, c), 0.0f);
}

TEST(Tensor, RandomRespectsRange) {
  Rng rng(3);
  auto t = Tensor::Random(Shape{1000}, rng, -0.5f, 0.25f);
  for (float v : t.data()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LT(v, 0.25f);
  }
}

TEST(Tensor, HeNormalScale) {
  Rng rng(11);
  auto t = Tensor::HeNormal(Shape{10000}, rng, /*fan_in=*/50);
  double sum = 0, sq = 0;
  for (float v : t.data()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double mean = sum / t.size();
  const double stddev = std::sqrt(sq / t.size() - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 50.0), 0.02);
}

TEST(Tensor, MaxAbsRelDiff) {
  auto a = Tensor::FromData(Shape{3}, {1.0f, 2.0f, 4.0f});
  auto b = Tensor::FromData(Shape{3}, {1.0f, 2.5f, 4.0f});
  EXPECT_FLOAT_EQ(Tensor::MaxAbsDiff(a, b), 0.5f);
  EXPECT_FLOAT_EQ(Tensor::MaxRelDiff(a, b), 0.2f);
  EXPECT_TRUE(Tensor::AllClose(a, a));
  EXPECT_FALSE(Tensor::AllClose(a, b));
}

TEST(Tensor, ArgMax) {
  auto t = Tensor::FromData(Shape{5}, {0.1f, 0.9f, 0.3f, 0.9f, 0.0f});
  EXPECT_EQ(t.ArgMax(), 1);  // first of the ties
}

TEST(Tensor, UndefinedAccessThrows) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW((void)t.data(), Error);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(5);
  double sum = 0, sq = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(3.0f, 2.0f);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.05);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

}  // namespace
}  // namespace clflow
