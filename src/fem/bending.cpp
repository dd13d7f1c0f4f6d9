#include "src/fem/bending.hpp"

#include <cmath>

namespace apr::fem {

double hinge_constant_from_helfrich(double eb) {
  return 2.0 / std::sqrt(3.0) * eb;
}

namespace {

/// Shared geometry of the four-point hinge, following the classic
/// torsion-angle derivative formulation (sequence a - b - c - d with the
/// rotation axis along b->c).
struct HingeGeometry {
  Vec3 n1;       // (b-a) x (c-b), normal-scale of wing 1
  Vec3 n2;       // (c-b) x (d-c), normal-scale of wing 2
  Vec3 axis;     // c - b
  double n1sq = 0.0;
  double n2sq = 0.0;
  double axis_len = 0.0;
  // Unnormalised cosine and sine of the signed dihedral: both carry the
  // factor |n1| |n2|, so theta = atan2(sinv, cosv).
  double cosv = 0.0;
  double sinv = 0.0;
  bool ok = false;
};

HingeGeometry hinge_geometry(const Vec3& a, const Vec3& b, const Vec3& c,
                             const Vec3& d) {
  HingeGeometry h;
  const Vec3 b1 = b - a;
  const Vec3 b2 = c - b;
  const Vec3 b3 = d - c;
  h.axis = b2;
  h.n1 = cross(b1, b2);
  h.n2 = cross(b2, b3);
  h.n1sq = norm2(h.n1);
  h.n2sq = norm2(h.n2);
  h.axis_len = norm(b2);
  if (h.n1sq <= 0.0 || h.n2sq <= 0.0 || h.axis_len <= 0.0) return h;
  // Signed hinge angle, zero for coplanar wings (the MD torsion angle is
  // pi at flat, so we flip the cosine; this moves the atan2 branch cut to
  // the fully-folded configuration, which is degenerate anyway).
  h.cosv = -dot(h.n1, h.n2);
  h.sinv = dot(cross(h.n1, h.n2), b2 / h.axis_len);
  h.ok = true;
  return h;
}

}  // namespace

double dihedral_angle(const Vec3& a, const Vec3& b, const Vec3& c,
                      const Vec3& d) {
  const HingeGeometry h = hinge_geometry(a, b, c, d);
  return h.ok ? std::atan2(h.sinv, h.cosv) : 0.0;
}

double hinge_energy(double kb, double theta, double theta0) {
  return kb * (1.0 - std::cos(theta - theta0));
}

HingeRest::HingeRest(double theta0)
    : cos_theta0(std::cos(theta0)), sin_theta0(std::sin(theta0)) {}

void add_hinge_forces(double kb, const HingeRest& rest, const Vec3& a,
                      const Vec3& b, const Vec3& c, const Vec3& d, Vec3& fa,
                      Vec3& fb, Vec3& fc, Vec3& fd) {
  const HingeGeometry h = hinge_geometry(a, b, c, d);
  if (!h.ok) return;

  // dE/dtheta = kb sin(theta - theta0) for E = kb (1 - cos(theta - theta0)),
  // expanded as sin(theta) cos(theta0) - cos(theta) sin(theta0). sinv and
  // cosv are sin(theta) and cos(theta) scaled by |n1| |n2| (the two wing
  // normals are both perpendicular to the axis), so one square root
  // replaces the atan2 and the sin.
  const double de = kb * (h.sinv * rest.cos_theta0 - h.cosv * rest.sin_theta0) /
                    std::sqrt(h.n1sq * h.n2sq);
  if (de == 0.0) return;

  // Exact torsion-angle gradients (Blondel & Karplus 1996). With
  // A = |b2| n1/|n1|^2 and B = |b2| n2/|n2|^2 and the projections
  // s12 = b1.b2/|b2|^2, s32 = b3.b2/|b2|^2:
  //   dtheta/da = -A
  //   dtheta/db = (1 + s12) A + s32 B
  //   dtheta/dc = -s12 A - (1 + s32) B
  //   dtheta/dd = B
  // (verified against numerical differentiation in tests/test_bending.cpp).
  const Vec3 b1 = b - a;
  const Vec3 b3 = d - c;
  const Vec3 ga = h.n1 * (h.axis_len / h.n1sq);
  const Vec3 gb = h.n2 * (h.axis_len / h.n2sq);
  const double s12 = dot(b1, h.axis) / (h.axis_len * h.axis_len);
  const double s32 = dot(b3, h.axis) / (h.axis_len * h.axis_len);
  // The flat-zero convention flips the angle's sense relative to the MD
  // torsion angle, so all gradients are negated.
  const Vec3 dta = ga;
  const Vec3 dtb = -(ga * (1.0 + s12) + gb * s32);
  const Vec3 dtc = ga * s12 + gb * (1.0 + s32);
  const Vec3 dtd = -gb;

  fa -= dta * de;
  fb -= dtb * de;
  fc -= dtc * de;
  fd -= dtd * de;
}

}  // namespace apr::fem
