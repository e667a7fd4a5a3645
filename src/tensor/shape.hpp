// Tensor shapes.
//
// CNNs in this project use NCHW layout throughout (the paper schedules TVM's
// channel-first convolution, §5.1.1). Shape is a small value type over
// int64 extents with the algebra the graph and IR layers need.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace clflow {

class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(std::vector<std::int64_t> dims);

  [[nodiscard]] int rank() const { return static_cast<int>(dims_.size()); }
  [[nodiscard]] std::int64_t operator[](int axis) const;
  [[nodiscard]] const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Product of all extents (1 for rank-0).
  [[nodiscard]] std::int64_t NumElements() const;

  /// Row-major strides, in elements.
  [[nodiscard]] std::vector<std::int64_t> Strides() const;

  /// e.g. "[1, 64, 56, 56]".
  [[nodiscard]] std::string ToString() const;

  bool operator==(const Shape& other) const = default;

  // NCHW accessors; valid for rank-4 shapes.
  [[nodiscard]] std::int64_t batch() const { return At4(0); }
  [[nodiscard]] std::int64_t channels() const { return At4(1); }
  [[nodiscard]] std::int64_t height() const { return At4(2); }
  [[nodiscard]] std::int64_t width() const { return At4(3); }

 private:
  [[nodiscard]] std::int64_t At4(int axis) const;
  std::vector<std::int64_t> dims_;
};

/// Output spatial extent of a conv/pool window:
/// (in + 2*pad - window) / stride + 1. Throws ShapeError if non-positive or
/// if the window does not place evenly (mirrors framework semantics of
/// floor division: partial windows are discarded).
[[nodiscard]] std::int64_t ConvOutDim(std::int64_t in, std::int64_t window,
                                      std::int64_t stride, std::int64_t pad);

}  // namespace clflow
