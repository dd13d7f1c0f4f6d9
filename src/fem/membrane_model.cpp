#include "src/fem/membrane_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/fem/constraints.hpp"

namespace apr::fem {

MembraneModel::MembraneModel(mesh::TriMesh reference, MembraneParams params)
    : ref_(std::move(reference)),
      topo_(mesh::MeshTopology::build(ref_)),
      params_(params) {
  skalak_.shear_modulus = params_.shear_modulus;
  skalak_.c = params_.skalak_c;
  hinge_kb_ = hinge_constant_from_helfrich(params_.bending_modulus);

  tri_ref_.reserve(ref_.triangles.size());
  for (const auto& t : ref_.triangles) {
    tri_ref_.push_back(TriangleRef::build(ref_.vertices[t[0]],
                                          ref_.vertices[t[1]],
                                          ref_.vertices[t[2]]));
  }
  hinge_theta0_.reserve(topo_.edges.size());
  hinge_rest_.reserve(topo_.edges.size());
  for (const auto& e : topo_.edges) {
    hinge_theta0_.push_back(dihedral_angle(ref_.vertices[e.o0],
                                           ref_.vertices[e.v0],
                                           ref_.vertices[e.v1],
                                           ref_.vertices[e.o1]));
    hinge_rest_.emplace_back(hinge_theta0_.back());
  }
  ref_area_ = ref_.area();
  ref_volume_ = ref_.volume();
  const Vec3 c0 = ref_.centroid();
  for (const auto& v : ref_.vertices) {
    max_radius_ = std::max(max_radius_, norm(v - c0));
  }
}

void MembraneModel::add_forces(std::span<const Vec3> x,
                               std::span<Vec3> forces) const {
  if (x.size() != ref_.vertices.size() || forces.size() != x.size()) {
    throw std::invalid_argument("MembraneModel::add_forces: size mismatch");
  }
  // In-plane elasticity.
  for (std::size_t t = 0; t < ref_.triangles.size(); ++t) {
    const auto& tr = ref_.triangles[t];
    add_skalak_forces(skalak_, tri_ref_[t], x[tr[0]], x[tr[1]], x[tr[2]],
                      forces[tr[0]], forces[tr[1]], forces[tr[2]]);
  }
  // Bending.
  if (hinge_kb_ != 0.0) {
    for (std::size_t e = 0; e < topo_.edges.size(); ++e) {
      const auto& ed = topo_.edges[e];
      add_hinge_forces(hinge_kb_, hinge_rest_[e], x[ed.o0], x[ed.v0],
                       x[ed.v1], x[ed.o1], forces[ed.o0], forces[ed.v0],
                       forces[ed.v1], forces[ed.o1]);
    }
  }
  // Weak global constraints.
  add_area_constraint_forces(params_.ka_global, ref_area_, x, ref_.triangles,
                             forces);
  add_volume_constraint_forces(params_.kv_global, ref_volume_, x,
                               ref_.triangles, forces);
}

MembraneEnergy MembraneModel::energy(const std::vector<Vec3>& x) const {
  MembraneEnergy en;
  for (std::size_t t = 0; t < ref_.triangles.size(); ++t) {
    const auto& tr = ref_.triangles[t];
    en.elastic += skalak_element_energy(skalak_, tri_ref_[t], x[tr[0]],
                                        x[tr[1]], x[tr[2]]);
  }
  if (hinge_kb_ != 0.0) {
    for (std::size_t e = 0; e < topo_.edges.size(); ++e) {
      const auto& ed = topo_.edges[e];
      const double theta =
          dihedral_angle(x[ed.o0], x[ed.v0], x[ed.v1], x[ed.o1]);
      en.bending += hinge_energy(hinge_kb_, theta, hinge_theta0_[e]);
    }
  }
  if (params_.ka_global != 0.0) {
    const double a = surface_area_with_gradient(x, ref_.triangles, nullptr);
    en.area = 0.5 * params_.ka_global * (a - ref_area_) * (a - ref_area_) /
              ref_area_;
  }
  if (params_.kv_global != 0.0) {
    const double v = volume_with_gradient(x, ref_.triangles, nullptr);
    en.volume = 0.5 * params_.kv_global * (v - ref_volume_) *
                (v - ref_volume_) / ref_volume_;
  }
  return en;
}

MembraneModel::DeformationScan MembraneModel::deformation_scan(
    const std::vector<Vec3>& x) const {
  DeformationScan scan;
  for (std::size_t t = 0; t < ref_.triangles.size(); ++t) {
    const auto& tr = ref_.triangles[t];
    const auto inv =
        strain_invariants(tri_ref_[t], x[tr[0]], x[tr[1]], x[tr[2]]);
    if (scan.max_i1_element < 0 || inv.i1 > scan.max_i1) {
      scan.max_i1 = inv.i1;
      scan.max_i1_element = static_cast<int>(t);
    }
    if (scan.min_det_f_element < 0 || inv.det_f < scan.min_det_f) {
      scan.min_det_f = inv.det_f;
      scan.min_det_f_element = static_cast<int>(t);
    }
  }
  return scan;
}

}  // namespace apr::fem
