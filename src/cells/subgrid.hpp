#pragma once

/// \file subgrid.hpp
/// Background uniform subgrid (paper §2.4.2): a spatial hash over cell
/// vertices that answers "which cells have vertices near this point" in
/// O(1). Used by the overlap-removal algorithm during tile insertion and,
/// over cell box centres, by the contact search's cell-level broad phase.
/// The bucket math lives in GridFrame, which the contact search also uses
/// on its own to order its sums (overlap.hpp).
///
/// Layout: one flat entry vector plus per-bucket head/tail links, so a
/// grid costs two int32 per bucket and one node per entry.
/// Determinism contract: for_neighbors visits buckets in (z, y, x) order
/// and, within a bucket, entries in insertion order -- the order the
/// contact sums and the overlap decisions depend on.

#include <cstdint>
#include <vector>

#include "src/common/aabb.hpp"
#include "src/common/vec3.hpp"

namespace apr::cells {

/// The buckets of a uniform grid: a box cut into cubes of edge `spacing`,
/// (z, y, x)-major. Coordinates are clamped to the edge buckets in floating
/// point (NaN/inf park in bucket 0), so no value reaches an int cast.
class GridFrame {
 public:
  /// Throws std::invalid_argument for invalid bounds, spacing <= 0, or a
  /// box needing more than 2^30 buckets.
  GridFrame(const Aabb& bounds, double spacing);

  /// Clamped bucket coordinates (x, y, z) of `p`.
  void coords(const Vec3& p, int* out) const;

  /// Bucket coordinates of the corners of the cube (p, radius): the
  /// buckets a query of that ball visits.
  void range(const Vec3& p, double radius, int* lo, int* hi) const {
    coords(p - Vec3{radius, radius, radius}, lo);
    coords(p + Vec3{radius, radius, radius}, hi);
  }

  /// Flat bucket index; increasing in (z, y, x) lexicographic order.
  std::size_t index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny_ + y) * nx_ + x;
  }

  std::size_t buckets() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  double spacing() const { return spacing_; }

 private:
  Aabb bounds_;
  double spacing_ = 0.0;
  int nx_ = 0, ny_ = 0, nz_ = 0;
};

class SubGrid {
 public:
  struct Entry {
    Vec3 p;
    std::uint64_t cell_id;
    int vertex;
  };

  /// \param bounds region covered (points outside are clamped to edge
  ///        buckets, so slightly-out-of-range inserts are safe)
  /// \param spacing bucket edge length; choose >= the query radius
  /// Throws std::invalid_argument for invalid bounds, spacing <= 0, or a
  /// box needing more than 2^30 buckets.
  SubGrid(const Aabb& bounds, double spacing);

  void insert(const Vec3& p, std::uint64_t cell_id, int vertex = -1);

  /// Visit all entries in buckets intersecting the ball (p, radius), in
  /// bucket (z, y, x) order and insertion order within a bucket.
  /// Fn: void(const Entry&).
  template <typename Fn>
  void for_neighbors(const Vec3& p, double radius, Fn&& fn) const {
    int lo[3];
    int hi[3];
    frame_.range(p, radius, lo, hi);
    for (int z = lo[2]; z <= hi[2]; ++z) {
      for (int y = lo[1]; y <= hi[1]; ++y) {
        for (int x = lo[0]; x <= hi[0]; ++x) {
          for (std::int32_t k = head_[frame_.index(x, y, z)]; k >= 0;
               k = nodes_[static_cast<std::size_t>(k)].next) {
            fn(nodes_[static_cast<std::size_t>(k)].e);
          }
        }
      }
    }
  }

  std::size_t size() const { return nodes_.size(); }
  double spacing() const { return frame_.spacing(); }

 private:
  struct Node {
    Entry e;
    std::int32_t next;  ///< next entry of the same bucket; -1 ends it
  };

  GridFrame frame_;
  std::vector<std::int32_t> head_;  ///< first entry per bucket; -1 = empty
  std::vector<std::int32_t> tail_;  ///< last entry per bucket
  std::vector<Node> nodes_;
};

}  // namespace apr::cells
