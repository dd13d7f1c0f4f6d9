#pragma once

/// \file domain.hpp
/// Flow domains. Every domain exposes a signed distance (positive inside,
/// negative outside), from which voxelization (wall marking), wall-normal
/// estimation and cell-wall repulsion all derive. The analytic domains
/// here cover the paper's verification flows; patient-derived geometries
/// are replaced by the procedural Vasculature (vasculature.hpp), see
/// DESIGN.md §3.

#include <limits>
#include <memory>

#include "src/common/aabb.hpp"
#include "src/common/vec3.hpp"

namespace apr::geometry {

class Domain {
 public:
  virtual ~Domain() = default;

  /// Signed distance to the wall: positive inside the flow region.
  /// Exact for the analytic domains, a tight lower bound for unions.
  virtual double signed_distance(const Vec3& p) const = 0;

  /// Tight axis-aligned bound of the flow region.
  virtual Aabb bounds() const = 0;

  /// A bound L with signed_distance(p) >= signed_distance(q) - L |p - q|
  /// for all p, q, which lets a caller clear a whole ball with one query.
  /// +inf (the default) promises nothing, so such a domain is never
  /// cleared that way.
  virtual double distance_lipschitz() const {
    return std::numeric_limits<double>::infinity();
  }

  bool inside(const Vec3& p) const { return signed_distance(p) > 0.0; }

  /// Inward-pointing unit normal estimated by central differences of the
  /// signed distance. `eps` should be well below the local feature size.
  Vec3 inward_normal(const Vec3& p, double eps) const;
};

/// Axis-aligned box interior.
class BoxDomain final : public Domain {
 public:
  explicit BoxDomain(const Aabb& box) : box_(box) {}
  double signed_distance(const Vec3& p) const override;
  Aabb bounds() const override { return box_; }
  /// A min of face distances, each 1-Lipschitz.
  double distance_lipschitz() const override { return 1.0; }

 private:
  Aabb box_;
};

/// Finite circular cylinder from `base` along unit `axis` for `length`.
/// With `capped = false` the axial end disks are ignored by the signed
/// distance (an effectively infinite tube clipped only by the lattice),
/// which is the right shape for periodic force-driven tube flow.
class TubeDomain final : public Domain {
 public:
  TubeDomain(const Vec3& base, const Vec3& axis, double length,
             double radius, bool capped = true);
  double signed_distance(const Vec3& p) const override;
  Aabb bounds() const override;
  /// Radius minus axis distance, and the axial distances: each 1-Lipschitz.
  double distance_lipschitz() const override { return 1.0; }

  double radius() const { return radius_; }
  double length() const { return length_; }
  const Vec3& base() const { return base_; }
  const Vec3& axis() const { return axis_; }

  /// Radial distance of `p` from the tube axis.
  double radial_distance(const Vec3& p) const;

 private:
  Vec3 base_;
  Vec3 axis_;  // unit
  double length_;
  double radius_;
  bool capped_;
};

/// Axisymmetric channel along +z that expands from `radius_in` to
/// `radius_out` across [z_expand, z_expand + transition] -- the §3.3
/// margination geometry. The paper's channel expands 200 um -> 400 um at
/// z = 400 um over a 2000 um length.
class ExpandingChannelDomain final : public Domain {
 public:
  /// With `capped = false` the axial ends are open (signed distance is
  /// radial only), for periodic force-driven through-flow.
  ExpandingChannelDomain(const Vec3& base, double length, double radius_in,
                         double radius_out, double z_expand,
                         double transition, bool capped = true);
  double signed_distance(const Vec3& p) const override;
  Aabb bounds() const override;
  /// 1 + |r_out - r_in| / transition (the radius slope adds to the radial
  /// distance's 1); +inf for a zero-length transition, where the radius
  /// jumps.
  double distance_lipschitz() const override;

  /// Channel radius at axial position z (measured from the base).
  double radius_at(double z) const;
  double radial_distance(const Vec3& p) const;

  double length() const { return length_; }
  const Vec3& base() const { return base_; }

 private:
  Vec3 base_;
  double length_;
  double r_in_;
  double r_out_;
  double z_expand_;
  double transition_;
  bool capped_;
};

}  // namespace apr::geometry
