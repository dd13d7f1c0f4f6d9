#include "src/cells/subgrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace apr::cells {

namespace {

constexpr double kMaxBuckets = 1 << 30;

/// Bucket along one axis for the relative coordinate r (bucket units),
/// clamped to [0, n). Casting a non-finite or out-of-int-range value is
/// UB, so the clamp happens in floating point: a vertex poisoned by an
/// upstream numerical fault (NaN/inf) parks in the first bucket, and a
/// finite but huge one in the edge bucket, where the health watchdog can
/// still find the cell.
int axis_bucket(double r, int n) {
  if (!std::isfinite(r)) return 0;
  const double f = std::floor(r);
  if (f <= 0.0) return 0;
  if (f >= n - 1) return n - 1;
  return static_cast<int>(f);
}

}  // namespace

GridFrame::GridFrame(const Aabb& bounds, double spacing) {
  if (!bounds.valid()) throw std::invalid_argument("GridFrame: invalid bounds");
  if (spacing <= 0.0) throw std::invalid_argument("GridFrame: spacing <= 0");
  const Vec3 e = bounds.extent();
  const Vec3 n{std::max(1.0, std::ceil(e.x / spacing)),
               std::max(1.0, std::ceil(e.y / spacing)),
               std::max(1.0, std::ceil(e.z / spacing))};
  // Checked in floating point: a bounds box stretched by a runaway vertex
  // must fail here, not overflow the int casts or the allocator.
  if (!(n.x * n.y * n.z <= kMaxBuckets)) {
    throw std::invalid_argument("GridFrame: too many buckets");
  }
  bounds_ = bounds;
  spacing_ = spacing;
  nx_ = static_cast<int>(n.x);
  ny_ = static_cast<int>(n.y);
  nz_ = static_cast<int>(n.z);
}

void GridFrame::coords(const Vec3& p, int* out) const {
  const Vec3 r = (p - bounds_.lo) / spacing_;
  out[0] = axis_bucket(r.x, nx_);
  out[1] = axis_bucket(r.y, ny_);
  out[2] = axis_bucket(r.z, nz_);
}

SubGrid::SubGrid(const Aabb& bounds, double spacing)
    : frame_(bounds, spacing),
      head_(frame_.buckets(), -1),
      tail_(frame_.buckets(), -1) {}

void SubGrid::insert(const Vec3& p, std::uint64_t cell_id, int vertex) {
  int c[3];
  frame_.coords(p, c);
  const std::size_t b = frame_.index(c[0], c[1], c[2]);
  const auto k = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back({{p, cell_id, vertex}, -1});
  if (tail_[b] < 0) {
    head_[b] = k;
  } else {
    nodes_[static_cast<std::size_t>(tail_[b])].next = k;
  }
  tail_[b] = k;
}

}  // namespace apr::cells
