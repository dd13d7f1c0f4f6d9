#pragma once

/// \file bending.hpp
/// Membrane bending resistance (paper Eq. (3), Helfrich):
///
///   W_b = Eb/2 \int_S (2 kappa - c0)^2 dS
///
/// discretised as a hinge model over mesh edges:
///
///   E = kb * sum_edges [1 - cos(theta - theta0)]
///
/// where theta is the dihedral angle between the two triangles sharing an
/// edge and theta0 its value in the reference (spontaneous-curvature)
/// configuration. For a triangulated sphere the hinge constant maps to the
/// Helfrich modulus as kb = (2/sqrt(3)) Eb (Gompper & Kroll 1996).
/// Forces are the exact analytic gradient of E (standard dihedral-angle
/// derivatives), so they conserve linear momentum exactly.

#include "src/common/vec3.hpp"

namespace apr::fem {

/// Map a Helfrich bending modulus Eb [energy] to the hinge constant kb.
double hinge_constant_from_helfrich(double eb);

/// Signed dihedral angle of the hinge a-(b,c)-d: triangles (a, b, c) and
/// (b, d, c) share edge (b, c). Zero for coplanar wings, positive when the
/// wings fold toward the side of triangle-1's normal.
double dihedral_angle(const Vec3& a, const Vec3& b, const Vec3& c,
                      const Vec3& d);

/// Hinge energy kb * (1 - cos(theta - theta0)).
double hinge_energy(double kb, double theta, double theta0);

/// A hinge's rest angle theta0 kept as its cosine and sine, which is all
/// the force needs: sin(theta - theta0) then takes no transcendental call.
/// Converts implicitly from the angle.
struct HingeRest {
  HingeRest(double theta0);
  double cos_theta0;
  double sin_theta0;
};

/// Accumulate the analytic forces of one hinge into fa..fd.
/// Forces sum to zero exactly.
void add_hinge_forces(double kb, const HingeRest& rest, const Vec3& a,
                      const Vec3& b, const Vec3& c, const Vec3& d, Vec3& fa,
                      Vec3& fb, Vec3& fc, Vec3& fd);

}  // namespace apr::fem
