#include "src/geometry/domain.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace apr::geometry {

Vec3 Domain::inward_normal(const Vec3& p, double eps) const {
  const Vec3 g{
      signed_distance({p.x + eps, p.y, p.z}) -
          signed_distance({p.x - eps, p.y, p.z}),
      signed_distance({p.x, p.y + eps, p.z}) -
          signed_distance({p.x, p.y - eps, p.z}),
      signed_distance({p.x, p.y, p.z + eps}) -
          signed_distance({p.x, p.y, p.z - eps}),
  };
  return normalized(g);
}

double BoxDomain::signed_distance(const Vec3& p) const {
  // Interior distance is the min face distance; exterior is negative.
  const double dx = std::min(p.x - box_.lo.x, box_.hi.x - p.x);
  const double dy = std::min(p.y - box_.lo.y, box_.hi.y - p.y);
  const double dz = std::min(p.z - box_.lo.z, box_.hi.z - p.z);
  return std::min({dx, dy, dz});
}

TubeDomain::TubeDomain(const Vec3& base, const Vec3& axis, double length,
                       double radius, bool capped)
    : base_(base),
      axis_(normalized(axis)),
      length_(length),
      radius_(radius),
      capped_(capped) {
  if (length <= 0.0 || radius <= 0.0) {
    throw std::invalid_argument("TubeDomain: length, radius must be > 0");
  }
}

double TubeDomain::radial_distance(const Vec3& p) const {
  const Vec3 d = p - base_;
  const Vec3 radial = d - axis_ * dot(d, axis_);
  return norm(radial);
}

double TubeDomain::signed_distance(const Vec3& p) const {
  const double radial = radius_ - radial_distance(p);
  if (!capped_) return radial;
  const Vec3 d = p - base_;
  const double t = dot(d, axis_);
  const double axial = std::min(t, length_ - t);
  return std::min(radial, axial);
}

Aabb TubeDomain::bounds() const {
  Aabb b;
  // Conservative: include the bounding boxes of both end disks.
  for (const double t : {0.0, length_}) {
    const Vec3 c = base_ + axis_ * t;
    b.include(c - Vec3{radius_, radius_, radius_});
    b.include(c + Vec3{radius_, radius_, radius_});
  }
  return b;
}

ExpandingChannelDomain::ExpandingChannelDomain(const Vec3& base, double length,
                                               double radius_in,
                                               double radius_out,
                                               double z_expand,
                                               double transition, bool capped)
    : base_(base),
      length_(length),
      r_in_(radius_in),
      r_out_(radius_out),
      z_expand_(z_expand),
      transition_(transition),
      capped_(capped) {
  if (length <= 0.0 || radius_in <= 0.0 || radius_out <= 0.0 ||
      transition < 0.0 || z_expand < 0.0 || z_expand + transition > length) {
    throw std::invalid_argument("ExpandingChannelDomain: bad parameters");
  }
}

double ExpandingChannelDomain::radius_at(double z) const {
  if (z <= z_expand_) return r_in_;
  if (transition_ <= 0.0 || z >= z_expand_ + transition_) return r_out_;
  const double f = (z - z_expand_) / transition_;
  return r_in_ + f * (r_out_ - r_in_);
}

double ExpandingChannelDomain::radial_distance(const Vec3& p) const {
  const Vec3 d = p - base_;
  return std::sqrt(d.x * d.x + d.y * d.y);
}

double ExpandingChannelDomain::signed_distance(const Vec3& p) const {
  const double z = p.z - base_.z;
  const double radial = radius_at(z) - radial_distance(p);
  if (!capped_) return radial;
  const double axial = std::min(z, length_ - z);
  return std::min(radial, axial);
}

double ExpandingChannelDomain::distance_lipschitz() const {
  if (transition_ <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 + std::abs(r_out_ - r_in_) / transition_;
}

Aabb ExpandingChannelDomain::bounds() const {
  const double r = std::max(r_in_, r_out_);
  return {base_ - Vec3{r, r, 0.0}, base_ + Vec3{r, r, length_}};
}

}  // namespace apr::geometry
