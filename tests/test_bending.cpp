#include "src/fem/bending.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "src/common/rng.hpp"
#include "src/fem/membrane_model.hpp"
#include "src/mesh/shapes.hpp"

namespace apr::fem {
namespace {

/// Numerical gradient of the hinge energy wrt all 12 coordinates.
void numerical_forces(double kb, double theta0, Vec3 a, Vec3 b, Vec3 c,
                      Vec3 d, Vec3& fa, Vec3& fb, Vec3& fc, Vec3& fd) {
  const double h = 1e-7;
  Vec3* verts[4] = {&a, &b, &c, &d};
  Vec3* out[4] = {&fa, &fb, &fc, &fd};
  auto energy = [&] {
    return hinge_energy(kb, dihedral_angle(a, b, c, d), theta0);
  };
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 3; ++k) {
      const double orig = (*verts[i])[k];
      (*verts[i])[k] = orig + h;
      const double ep = energy();
      (*verts[i])[k] = orig - h;
      const double em = energy();
      (*verts[i])[k] = orig;
      (*out[i])[k] = -(ep - em) / (2.0 * h);
    }
  }
}

TEST(HingeConstant, MapsHelfrichModulus) {
  EXPECT_NEAR(hinge_constant_from_helfrich(1.0), 2.0 / std::sqrt(3.0), 1e-15);
  EXPECT_NEAR(hinge_constant_from_helfrich(2e-19),
              2.0 / std::sqrt(3.0) * 2e-19, 1e-30);
}

TEST(DihedralAngle, CoplanarWingsGiveZero) {
  EXPECT_NEAR(
      dihedral_angle({-1, 1, 0}, {0, 0, 0}, {0, 2, 0}, {1, 1, 0}), 0.0,
      1e-12);
}

TEST(DihedralAngle, RightAngleFold) {
  // Wing 1 in the xy plane, wing 2 folded 90 degrees up.
  const double theta =
      dihedral_angle({-1, 1, 0}, {0, 0, 0}, {0, 2, 0}, {0, 1, 1});
  EXPECT_NEAR(std::abs(theta), std::numbers::pi / 2.0, 1e-12);
}

TEST(DihedralAngle, SignFlipsWithFoldDirection) {
  const double up =
      dihedral_angle({-1, 1, 0}, {0, 0, 0}, {0, 2, 0}, {1, 1, 0.5});
  const double down =
      dihedral_angle({-1, 1, 0}, {0, 0, 0}, {0, 2, 0}, {1, 1, -0.5});
  EXPECT_NEAR(up, -down, 1e-12);
  EXPECT_NE(up, 0.0);
}

TEST(HingeEnergy, ZeroAtRestAngleAndPositiveElsewhere) {
  const double kb = 2.5;
  const double theta0 = 0.3;
  EXPECT_DOUBLE_EQ(hinge_energy(kb, theta0, theta0), 0.0);
  EXPECT_GT(hinge_energy(kb, theta0 + 0.2, theta0), 0.0);
  EXPECT_GT(hinge_energy(kb, theta0 - 0.2, theta0), 0.0);
  // Small-angle limit: ~ kb/2 (dtheta)^2.
  const double dt = 1e-3;
  EXPECT_NEAR(hinge_energy(kb, theta0 + dt, theta0), 0.5 * kb * dt * dt,
              1e-9);
}

struct HingeCase {
  const char* name;
  Vec3 a, b, c, d;
  double theta0;
};

class HingeForceGradient : public ::testing::TestWithParam<HingeCase> {};

TEST_P(HingeForceGradient, AnalyticForcesMatchNumericalGradient) {
  const auto& h = GetParam();
  const double kb = 1.7;
  Vec3 fa{}, fb{}, fc{}, fd{};
  add_hinge_forces(kb, h.theta0, h.a, h.b, h.c, h.d, fa, fb, fc, fd);
  Vec3 na{}, nb{}, nc{}, nd{};
  numerical_forces(kb, h.theta0, h.a, h.b, h.c, h.d, na, nb, nc, nd);
  const double scale =
      std::max({norm(na), norm(nb), norm(nc), norm(nd), 1e-8});
  EXPECT_NEAR(norm(fa - na) / scale, 0.0, 2e-5) << h.name;
  EXPECT_NEAR(norm(fb - nb) / scale, 0.0, 2e-5) << h.name;
  EXPECT_NEAR(norm(fc - nc) / scale, 0.0, 2e-5) << h.name;
  EXPECT_NEAR(norm(fd - nd) / scale, 0.0, 2e-5) << h.name;
  // Linear momentum conserved exactly.
  EXPECT_NEAR(norm(fa + fb + fc + fd), 0.0, 1e-12 * std::max(scale, 1.0))
      << h.name;
}

INSTANTIATE_TEST_SUITE_P(
    Folds, HingeForceGradient,
    ::testing::Values(
        HingeCase{"mild_fold", {-1, 1, 0}, {0, 0, 0}, {0, 2, 0},
                  {1, 1, 0.3}, 0.0},
        HingeCase{"strong_fold", {-1, 1, 0}, {0, 0, 0}, {0, 2, 0},
                  {0.2, 1, 1.1}, 0.0},
        HingeCase{"nonzero_rest", {-1, 1, 0}, {0, 0, 0}, {0, 2, 0},
                  {1, 1, 0.2}, 0.4},
        HingeCase{"asymmetric", {-0.7, 0.6, 0.1}, {0.1, -0.1, 0},
                  {-0.2, 1.9, 0.2}, {1.1, 0.8, -0.4}, -0.2},
        HingeCase{"negative_fold", {-1, 1, 0}, {0, 0, 0}, {0, 2, 0},
                  {1, 1, -0.6}, 0.1}),
    [](const auto& info) { return info.param.name; });

TEST(HingeForces, ZeroAtRestConfiguration) {
  const Vec3 a{-1, 1, 0}, b{0, 0, 0}, c{0, 2, 0}, d{1, 1, 0.5};
  const double theta0 = dihedral_angle(a, b, c, d);
  Vec3 fa{}, fb{}, fc{}, fd{};
  add_hinge_forces(3.0, theta0, a, b, c, d, fa, fb, fc, fd);
  EXPECT_NEAR(norm(fa), 0.0, 1e-13);
  EXPECT_NEAR(norm(fd), 0.0, 1e-13);
}

TEST(HingeForces, FlattenAFoldedHinge) {
  // With theta0 = 0, forces push the folded wing vertex back toward the
  // plane.
  const Vec3 a{-1, 1, 0}, b{0, 0, 0}, c{0, 2, 0};
  const Vec3 d{1, 1, 0.4};
  Vec3 fa{}, fb{}, fc{}, fd{};
  add_hinge_forces(1.0, 0.0, a, b, c, d, fa, fb, fc, fd);
  EXPECT_LT(fd.z, 0.0);
}

TEST(HingeForces, DegenerateWingIsIgnored) {
  // Collinear wing: no crash, no force.
  Vec3 fa{}, fb{}, fc{}, fd{};
  add_hinge_forces(1.0, 0.0, {0, 0, 0}, {0, 0, 0}, {0, 2, 0}, {1, 1, 0}, fa,
                   fb, fc, fd);
  EXPECT_EQ(norm(fa), 0.0);
}

/// The atan2 form of the hinge force that add_hinge_forces replaced:
/// theta = atan2(sinv, cosv), then dE/dtheta = kb sin(theta - theta0).
/// Kept as the oracle for the transcendental-free production kernel.
void atan2_hinge_forces(double kb, double theta0, const Vec3& a,
                        const Vec3& b, const Vec3& c, const Vec3& d, Vec3& fa,
                        Vec3& fb, Vec3& fc, Vec3& fd) {
  const Vec3 b1 = b - a;
  const Vec3 b2 = c - b;
  const Vec3 b3 = d - c;
  const Vec3 n1 = cross(b1, b2);
  const Vec3 n2 = cross(b2, b3);
  const double n1sq = norm2(n1);
  const double n2sq = norm2(n2);
  const double axis_len = norm(b2);
  if (n1sq <= 0.0 || n2sq <= 0.0 || axis_len <= 0.0) return;
  const double theta =
      std::atan2(dot(cross(n1, n2), b2 / axis_len), -dot(n1, n2));
  const double de = kb * std::sin(theta - theta0);
  const Vec3 ga = n1 * (axis_len / n1sq);
  const Vec3 gb = n2 * (axis_len / n2sq);
  const double s12 = dot(b1, b2) / (axis_len * axis_len);
  const double s32 = dot(b3, b2) / (axis_len * axis_len);
  fa -= ga * de;
  fb -= -(ga * (1.0 + s12) + gb * s32) * de;
  fc -= (ga * s12 + gb * (1.0 + s32)) * de;
  fd -= -gb * de;
}

double max_norm(const std::vector<Vec3>& f) {
  double m = 0.0;
  for (const Vec3& v : f) m = std::max(m, norm(v));
  return m;
}

TEST(HingeOracle, MembraneBendingMatchesAtan2FormOnDeformedRbcs) {
  MembraneParams p;  // bending only: the other terms are switched off
  p.shear_modulus = 0.0;
  p.bending_modulus = 0.01;
  const MembraneModel model(mesh::rbc_biconcave(2, 1.0), p);
  const auto& ref = model.reference().vertices;
  const double kb = hinge_constant_from_helfrich(p.bending_modulus);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    std::vector<Vec3> x = ref;
    const double jitter = 0.05 * static_cast<double>(seed);
    for (Vec3& v : x) v += rng.unit_vector() * (jitter * rng.uniform());
    std::vector<Vec3> f(x.size());
    model.add_forces(x, f);
    std::vector<Vec3> oracle(x.size());
    for (const auto& e : model.topology().edges) {
      const double theta0 =
          dihedral_angle(ref[e.o0], ref[e.v0], ref[e.v1], ref[e.o1]);
      atan2_hinge_forces(kb, theta0, x[e.o0], x[e.v0], x[e.v1], x[e.o1],
                         oracle[e.o0], oracle[e.v0], oracle[e.v1],
                         oracle[e.o1]);
    }
    const double fmax = max_norm(oracle);
    ASSERT_GT(fmax, 0.0);
    for (std::size_t v = 0; v < x.size(); ++v) {
      EXPECT_LE(norm(f[v] - oracle[v]), 1e-12 * fmax)
          << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(HingeOracle, FoldsNearPlusMinusPiMatchAtan2Form) {
  // Wings folded almost onto each other, theta = +-(pi - delta), against
  // rest angles on either side of the atan2 branch cut at +-pi, so
  // theta - theta0 wraps by 2 pi in the oracle.
  Rng rng(26);
  for (int k = 0; k < 400; ++k) {
    const double pi = std::numbers::pi;
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    const double phi = sign * (pi - rng.uniform(0.01, 0.2));
    const double theta0 = (k % 4 < 2) ? rng.uniform(-pi, pi)
                                      : -sign * (pi - rng.uniform(0.01, 0.2));
    const Mat3 rot = random_rotation(rng);
    const Vec3 shift = rng.unit_vector() * rng.uniform(0.0, 5.0);
    const double len = rng.uniform(0.5, 2.0);
    const auto place = [&](Vec3 v) { return rot.apply(v) + shift; };
    const Vec3 b = place({0.0, 0.0, 0.0});
    const Vec3 c = place({0.0, len, 0.0});
    const Vec3 a = place({-rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8), 0.0});
    const double r = rng.uniform(0.5, 1.5);
    const Vec3 d = place(
        {r * std::cos(phi), rng.uniform(0.2, 0.8) * len, r * std::sin(phi)});
    ASSERT_NEAR(std::abs(dihedral_angle(a, b, c, d)), std::abs(phi), 1e-9);

    std::vector<Vec3> f(4), oracle(4);
    add_hinge_forces(1.3, HingeRest(theta0), a, b, c, d, f[0], f[1], f[2],
                     f[3]);
    atan2_hinge_forces(1.3, theta0, a, b, c, d, oracle[0], oracle[1],
                       oracle[2], oracle[3]);
    const double fmax = max_norm(oracle);
    for (int v = 0; v < 4; ++v) {
      EXPECT_LE(norm(f[v] - oracle[v]), 1e-12 * fmax)
          << "case " << k << " vertex " << v << " theta " << phi
          << " theta0 " << theta0;
    }
  }
}

}  // namespace
}  // namespace apr::fem
