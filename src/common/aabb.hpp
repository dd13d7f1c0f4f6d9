#pragma once

/// \file aabb.hpp
/// Axis-aligned boxes in physical coordinates. The window anatomy
/// (insertion / on-ramp / window proper, §2.4.2 of the paper) is expressed as
/// nested AABBs, so most region queries reduce to containment tests here.

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/vec3.hpp"

namespace apr {

/// Closed axis-aligned box [lo, hi].
struct Aabb {
  Vec3 lo{std::numeric_limits<double>::max(),
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::max()};
  Vec3 hi{std::numeric_limits<double>::lowest(),
          std::numeric_limits<double>::lowest(),
          std::numeric_limits<double>::lowest()};

  constexpr Aabb() = default;
  constexpr Aabb(const Vec3& lo_, const Vec3& hi_) : lo(lo_), hi(hi_) {}

  /// Cube of side `side` centered on `c`.
  static constexpr Aabb cube(const Vec3& c, double side) {
    const double h = side / 2.0;
    return {{c.x - h, c.y - h, c.z - h}, {c.x + h, c.y + h, c.z + h}};
  }

  constexpr bool valid() const {
    return lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z;
  }

  constexpr Vec3 center() const { return (lo + hi) * 0.5; }
  constexpr Vec3 extent() const { return hi - lo; }
  constexpr double volume() const {
    const Vec3 e = extent();
    return e.x * e.y * e.z;
  }

  constexpr bool contains(const Vec3& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
           p.z >= lo.z && p.z <= hi.z;
  }

  constexpr bool contains(const Aabb& b) const {
    return contains(b.lo) && contains(b.hi);
  }

  constexpr bool overlaps(const Aabb& b) const {
    return lo.x <= b.hi.x && hi.x >= b.lo.x && lo.y <= b.hi.y &&
           hi.y >= b.lo.y && lo.z <= b.hi.z && hi.z >= b.lo.z;
  }

  /// Grow (or shrink, for negative margin) by `m` on every face.
  constexpr Aabb inflated(double m) const {
    return {{lo.x - m, lo.y - m, lo.z - m}, {hi.x + m, hi.y + m, hi.z + m}};
  }

  constexpr Aabb shifted(const Vec3& d) const { return {lo + d, hi + d}; }

  /// Largest |coordinate| of the corners: the scale a rounding slack on
  /// distances inside the box grows with.
  double magnitude() const {
    return std::max({std::abs(lo.x), std::abs(lo.y), std::abs(lo.z),
                     std::abs(hi.x), std::abs(hi.y), std::abs(hi.z)});
  }

  /// Extend to include point `p`.
  void include(const Vec3& p) {
    lo = cwise_min(lo, p);
    hi = cwise_max(hi, p);
  }

  /// Signed distance of `p` to the boundary, negative inside.
  /// Used for the window-move trigger (distance of the CTC to the window
  /// proper boundary).
  double boundary_distance(const Vec3& p) const {
    const double dx = std::max(lo.x - p.x, p.x - hi.x);
    const double dy = std::max(lo.y - p.y, p.y - hi.y);
    const double dz = std::max(lo.z - p.z, p.z - hi.z);
    const double m = std::max({dx, dy, dz});
    if (m <= 0.0) return m;  // inside: negative max-norm distance to faces
    const double ox = std::max(dx, 0.0);
    const double oy = std::max(dy, 0.0);
    const double oz = std::max(dz, 0.0);
    return std::sqrt(ox * ox + oy * oy + oz * oz);
  }

  /// Intersection; result may be !valid() when disjoint.
  constexpr Aabb intersect(const Aabb& b) const {
    return {cwise_max(lo, b.lo), cwise_min(hi, b.hi)};
  }
};

}  // namespace apr
