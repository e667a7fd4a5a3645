#include "tensor/shape.hpp"

#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace clflow {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {
  for (auto d : dims_)
    CLFLOW_CHECK_MSG(d > 0, "shape extents must be positive");
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
  for (auto d : dims_)
    CLFLOW_CHECK_MSG(d > 0, "shape extents must be positive");
}

std::int64_t Shape::operator[](int axis) const {
  CLFLOW_CHECK_MSG(axis >= 0 && axis < rank(), "shape axis out of range");
  return dims_[static_cast<std::size_t>(axis)];
}

std::int64_t Shape::NumElements() const {
  return std::accumulate(dims_.begin(), dims_.end(), std::int64_t{1},
                         std::multiplies<>());
}

std::vector<std::int64_t> Shape::Strides() const {
  std::vector<std::int64_t> strides(dims_.size(), 1);
  for (int i = rank() - 2; i >= 0; --i) {
    strides[static_cast<std::size_t>(i)] =
        strides[static_cast<std::size_t>(i) + 1] *
        dims_[static_cast<std::size_t>(i) + 1];
  }
  return strides;
}

std::string Shape::ToString() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ", ";
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

std::int64_t Shape::At4(int axis) const {
  CLFLOW_CHECK_MSG(rank() == 4, "NCHW accessor on non-rank-4 shape");
  return dims_[static_cast<std::size_t>(axis)];
}

std::int64_t ConvOutDim(std::int64_t in, std::int64_t window,
                        std::int64_t stride, std::int64_t pad) {
  if (window <= 0 || stride <= 0 || pad < 0) {
    throw ShapeError("invalid window/stride/pad");
  }
  const std::int64_t padded = in + 2 * pad;
  if (padded < window) {
    throw ShapeError("window larger than padded input");
  }
  return (padded - window) / stride + 1;
}

}  // namespace clflow
