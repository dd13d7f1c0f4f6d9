#include "src/fem/membrane_model.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/mesh/icosphere.hpp"
#include "src/mesh/shapes.hpp"

namespace apr::fem {
namespace {

MembraneParams rbc_like_params() {
  MembraneParams p;
  p.shear_modulus = 1.0;
  p.skalak_c = 50.0;
  p.bending_modulus = 0.01;
  p.ka_global = 1.0;
  p.kv_global = 1.0;
  return p;
}

TEST(MembraneModel, ReferenceStateIsForceFree) {
  const MembraneModel model(mesh::rbc_biconcave(2, 1.0), rbc_like_params());
  std::vector<Vec3> x = model.reference().vertices;
  std::vector<Vec3> f(x.size());
  model.add_forces(x, f);
  double fmax = 0.0;
  for (const auto& fv : f) fmax = std::max(fmax, norm(fv));
  EXPECT_NEAR(fmax, 0.0, 1e-10);
  const MembraneEnergy e = model.energy(x);
  EXPECT_NEAR(e.total(), 0.0, 1e-12);
}

TEST(MembraneModel, RigidMotionIsForceFree) {
  const MembraneModel model(mesh::icosphere(2, 1.0), rbc_like_params());
  mesh::TriMesh moved = model.reference();
  Rng rng(3);
  moved.rotate(random_rotation(rng));
  moved.translate({0.5, -1.0, 2.0});
  std::vector<Vec3> f(moved.vertices.size());
  model.add_forces(moved.vertices, f);
  double fmax = 0.0;
  for (const auto& fv : f) fmax = std::max(fmax, norm(fv));
  EXPECT_NEAR(fmax, 0.0, 1e-9);
}

TEST(MembraneModel, ForcesAreNegativeEnergyGradient) {
  // Full-assembly gradient check on a randomly perturbed small sphere.
  MembraneParams p = rbc_like_params();
  const MembraneModel model(mesh::icosphere(1, 1.0), p);
  std::vector<Vec3> x = model.reference().vertices;
  Rng rng(11);
  for (auto& v : x) v += rng.unit_vector() * 0.05;

  std::vector<Vec3> f(x.size());
  model.add_forces(x, f);

  const double h = 1e-6;
  for (int vi : {0, 4, 9}) {
    for (int d = 0; d < 3; ++d) {
      const double orig = x[vi][d];
      x[vi][d] = orig + h;
      const double ep = model.energy(x).total();
      x[vi][d] = orig - h;
      const double em = model.energy(x).total();
      x[vi][d] = orig;
      const double numerical = -(ep - em) / (2.0 * h);
      EXPECT_NEAR(f[vi][d], numerical,
                  2e-4 * std::max(1.0, std::abs(numerical)))
          << "vertex " << vi << " dim " << d;
    }
  }
}

TEST(MembraneModel, TotalForceVanishes) {
  const MembraneModel model(mesh::rbc_biconcave(2, 1.0), rbc_like_params());
  std::vector<Vec3> x = model.reference().vertices;
  Rng rng(13);
  for (auto& v : x) v += rng.unit_vector() * 0.08;
  std::vector<Vec3> f(x.size());
  model.add_forces(x, f);
  Vec3 total{};
  double fmax = 0.0;
  for (const auto& fv : f) {
    total += fv;
    fmax = std::max(fmax, norm(fv));
  }
  EXPECT_GT(fmax, 0.0);
  EXPECT_NEAR(norm(total), 0.0, 1e-9 * fmax * static_cast<double>(f.size()));
}

TEST(MembraneModel, StretchedSphereRelaxesBack) {
  // Overdamped relaxation x += f * dt must reduce the energy monotonically
  // and shrink an inflated sphere.
  MembraneParams p = rbc_like_params();
  const MembraneModel model(mesh::icosphere(1, 1.0), p);
  mesh::TriMesh def = model.reference();
  def.scale(1.15);
  std::vector<Vec3> x = def.vertices;
  std::vector<Vec3> f(x.size());
  double prev = model.energy(x).total();
  EXPECT_GT(prev, 0.0);
  const double dt = 5e-3;
  const double floor_energy = 1e-10 * prev;  // machine noise near zero
  for (int it = 0; it < 200; ++it) {
    std::fill(f.begin(), f.end(), Vec3{});
    model.add_forces(x, f);
    for (std::size_t v = 0; v < x.size(); ++v) x[v] += f[v] * dt;
    const double e = model.energy(x).total();
    EXPECT_LE(e, prev * 1.0001 + floor_energy) << "iteration " << it;
    prev = e;
  }
  // Mean radius approaches the reference 1.0.
  double r = 0.0;
  for (const auto& v : x) r += norm(v);
  r /= static_cast<double>(x.size());
  EXPECT_NEAR(r, 1.0, 0.02);
}

TEST(MembraneModel, MaxI1TracksImposedStretch) {
  const MembraneModel model(mesh::icosphere(2, 1.0), rbc_like_params());
  std::vector<Vec3> x = model.reference().vertices;
  EXPECT_NEAR(model.deformation_scan(x).max_i1, 0.0, 1e-12);
  for (auto& v : x) v *= 1.2;  // isotropic: I1 = 2 s^2 - 2 everywhere
  EXPECT_NEAR(model.deformation_scan(x).max_i1, 2.0 * 1.44 - 2.0, 1e-9);
}

TEST(MembraneModel, EnergyBreakdownComponentsActivateIndependently) {
  MembraneParams p;
  p.shear_modulus = 1.0;
  p.skalak_c = 10.0;
  p.bending_modulus = 0.0;
  p.ka_global = 0.0;
  p.kv_global = 0.0;
  const MembraneModel elastic_only(mesh::icosphere(1, 1.0), p);
  mesh::TriMesh def = elastic_only.reference();
  def.scale(1.1);
  const MembraneEnergy e = elastic_only.energy(def.vertices);
  EXPECT_GT(e.elastic, 0.0);
  EXPECT_EQ(e.bending, 0.0);
  EXPECT_EQ(e.area, 0.0);
  EXPECT_EQ(e.volume, 0.0);
}

TEST(MembraneModel, BendingResistsShapeChangeOfSphere) {
  MembraneParams p;
  p.shear_modulus = 0.0;
  p.bending_modulus = 1.0;
  const MembraneModel model(mesh::icosphere(2, 1.0), p);
  mesh::TriMesh def = model.reference();
  for (auto& v : def.vertices) v.z *= 0.6;  // squashed: curvature changes
  const MembraneEnergy e = model.energy(def.vertices);
  EXPECT_GT(e.bending, 0.0);
  EXPECT_EQ(e.elastic, 0.0);
}

TEST(MembraneModel, SizeMismatchThrows) {
  const MembraneModel model(mesh::icosphere(1, 1.0), rbc_like_params());
  std::vector<Vec3> x(3);
  std::vector<Vec3> f(3);
  EXPECT_THROW(model.add_forces(x, f), std::invalid_argument);
}

TEST(MembraneModel, ReferencePropertiesExposed) {
  const mesh::TriMesh ref = mesh::rbc_biconcave(2, 1.0);
  const MembraneModel model(ref, rbc_like_params());
  EXPECT_EQ(model.num_vertices(), ref.num_vertices());
  EXPECT_EQ(model.num_triangles(), ref.num_triangles());
  EXPECT_NEAR(model.ref_area(), ref.area(), 1e-12);
  EXPECT_NEAR(model.ref_volume(), ref.volume(), 1e-15);
}

}  // namespace
}  // namespace apr::fem
