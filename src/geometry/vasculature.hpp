#pragma once

/// \file vasculature.hpp
/// Procedural vascular networks: a tree of tapered capsule segments whose
/// union forms the flow domain. Stands in for the paper's patient-derived
/// upper-body and cerebral geometries (OFF surfaces from the HARVEY
/// artifact, not redistributable) -- see DESIGN.md §3. The generator obeys
/// Murray's law (daughter radii r_d = r_p * ratio with ratio ~ 2^{-1/3})
/// so vessel tapering and branch statistics are physiologically plausible.

#include <vector>

#include "src/common/rng.hpp"
#include "src/geometry/domain.hpp"

namespace apr::geometry {

/// One tapered vessel segment (a capsule with linearly varying radius).
struct VesselSegment {
  Vec3 a;            ///< proximal end
  Vec3 b;            ///< distal end
  double ra = 0.0;   ///< radius at a
  double rb = 0.0;   ///< radius at b
  int parent = -1;   ///< index of the upstream segment, -1 for the root
  int level = 0;     ///< generations from the root

  double length() const { return distance(b, a); }
  /// Frustum volume.
  double volume() const;
};

struct VasculatureParams {
  Vec3 root_position{};
  Vec3 root_direction{0.0, 0.0, 1.0};
  double root_radius = 100e-6;     ///< [m]
  double root_length = 1.2e-3;     ///< [m]
  int levels = 4;                  ///< bifurcation generations
  double radius_ratio = 0.794;     ///< Murray's law 2^{-1/3}
  double length_ratio = 0.8;       ///< daughter length / parent length
  double branch_angle = 0.5;       ///< [rad] half-angle between daughters
  double angle_jitter = 0.15;      ///< [rad] random perturbation
  double taper = 0.9;              ///< distal/proximal radius per segment
};

class Vasculature final : public Domain {
 public:
  explicit Vasculature(std::vector<VesselSegment> segments);

  /// Recursive bifurcating tree.
  static Vasculature branching_tree(const VasculatureParams& params, Rng& rng);

  /// Cerebral-like network: smaller vessels (50-200 um), more tortuous,
  /// 5 generations. Scale factor multiplies all lengths.
  static Vasculature cerebral_like(Rng& rng, double scale = 1.0);

  /// Upper-body-like network: an aorta-scale trunk with subclavian/carotid
  /// style branches. Scale factor multiplies all lengths.
  static Vasculature upper_body_like(Rng& rng, double scale = 1.0);

  /// Max of the per-segment capsule distances, found through a static
  /// segment BVH built by the constructor. Bit-identical to the linear max
  /// over every segment, in any traversal order (DESIGN.md §6).
  double signed_distance(const Vec3& p) const override;
  Aabb bounds() const override;
  /// 1 + the largest radius slope |rb - ra| / length over the segments:
  /// a tapered capsule's distance is the axis distance (1-Lipschitz) taken
  /// from a radius that moves by at most that slope per unit move of p.
  /// Computed by the constructor.
  double distance_lipschitz() const override { return lipschitz_; }

  /// Restrict the reported bounds (and hence any lattice built from this
  /// domain) to `box`: vessels that extend past the box then cross the
  /// lattice faces, where an inlet profile / OutflowBoundary can open
  /// them for through-flow. The geometry itself is unchanged.
  void clip_bounds(const Aabb& box) { bounds_ = bounds_.intersect(box); }

  const std::vector<VesselSegment>& segments() const { return segments_; }

  /// Total flow volume (sum of frustum volumes; junction overlap ignored,
  /// so a slight over-estimate).
  double total_volume() const;

  /// Centerline polyline from the root to the deepest leaf, sampled at
  /// arc-length `step`. This is the trajectory the moving window follows
  /// in the Fig. 1 / Fig. 9 demonstrations.
  std::vector<Vec3> main_path(double step) const;

 private:
  /// BVH node: the box around its segments' axes (not their radii), their
  /// largest radius, and either a leaf run of order_ (count > 0) or two
  /// children at bvh_[first] and bvh_[first + 1] (count == 0).
  struct BvhNode {
    Aabb axes;
    double rmax = 0.0;
    double scale = 0.0;  ///< largest |coordinate| of `axes`, or rmax
    int first = 0;
    int count = 0;
  };

  void build_bvh();

  std::vector<VesselSegment> segments_;
  Aabb bounds_;
  double lipschitz_ = 1.0;
  std::vector<BvhNode> bvh_;  ///< root at 0
  std::vector<int> order_;    ///< segment indices, grouped by leaf
};

}  // namespace apr::geometry
