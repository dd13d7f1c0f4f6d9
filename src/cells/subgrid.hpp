#pragma once

/// \file subgrid.hpp
/// Background uniform subgrid (paper §2.4.2): a spatial hash over cell
/// vertices that answers "which cells have vertices near this point" in
/// O(1). Used by the overlap-removal algorithm during tile insertion and
/// by the short-range cell-cell contact forces.
///
/// Layout: one flat entry vector plus per-bucket head/tail links, so a
/// grid costs two int32 per bucket and one node per entry, and reset()
/// re-dimensions it in place without giving its buffers back.
/// Determinism contract: for_neighbors visits buckets in (z, y, x) order
/// and, within a bucket, entries in insertion order -- the order the
/// contact sums and the overlap decisions depend on.

#include <cstdint>
#include <vector>

#include "src/common/aabb.hpp"
#include "src/common/vec3.hpp"

namespace apr::cells {

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

  /// Re-dimension for new bounds/spacing and drop every entry, keeping
  /// the allocated buffers. A reset grid visits exactly what a freshly
  /// constructed one with the same arguments would.
  void reset(const Aabb& bounds, double spacing);

  /// Drop every entry; dimensions and buffers stay.
  void clear();

  void insert(const Vec3& p, std::uint64_t cell_id, int vertex = -1);

  /// Visit all entries in buckets intersecting the ball (p, radius), in
  /// bucket (z, y, x) order and insertion order within a bucket.
  /// Fn: void(const Entry&).
  template <typename Fn>
  void for_neighbors(const Vec3& p, double radius, Fn&& fn) const {
    int lo[3];
    int hi[3];
    bucket_range(p, radius, lo, hi);
    for (int z = lo[2]; z <= hi[2]; ++z) {
      for (int y = lo[1]; y <= hi[1]; ++y) {
        for (int x = lo[0]; x <= hi[0]; ++x) {
          for (std::int32_t k = head_[bucket_index(x, y, z)]; k >= 0;
               k = nodes_[static_cast<std::size_t>(k)].next) {
            fn(nodes_[static_cast<std::size_t>(k)].e);
          }
        }
      }
    }
  }

  std::size_t size() const { return nodes_.size(); }
  double spacing() const { return spacing_; }

 private:
  struct Node {
    Entry e;
    std::int32_t next;  ///< next entry of the same bucket; -1 ends it
  };

  Aabb bounds_;
  double spacing_ = 0.0;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<std::int32_t> head_;  ///< first entry per bucket; -1 = empty
  std::vector<std::int32_t> tail_;  ///< last entry per bucket
  std::vector<Node> nodes_;

  std::size_t bucket_index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny_ + y) * nx_ + x;
  }

  void bucket_coords(const Vec3& p, int* out) const;
  void bucket_range(const Vec3& p, double radius, int* lo, int* hi) const;
};

}  // namespace apr::cells
