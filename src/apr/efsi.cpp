#include "src/apr/efsi.hpp"

#include <algorithm>
#include <cmath>

#include "src/cells/overlap.hpp"
#include "src/cells/subgrid.hpp"
#include "src/geometry/voxelizer.hpp"

namespace apr::core {

EfsiSimulation::EfsiSimulation(
    std::shared_ptr<const geometry::Domain> domain,
    std::shared_ptr<const fem::MembraneModel> rbc_model,
    std::shared_ptr<const fem::MembraneModel> ctc_model,
    const EfsiParams& params)
    : domain_(std::move(domain)),
      rbc_model_(std::move(rbc_model)),
      ctc_model_(std::move(ctc_model)),
      params_(params),
      units_(UnitConverter::from_viscosity(params.dx, params.nu, params.tau)),
      rng_(params.seed) {
  if (!domain_ || !rbc_model_ || !ctc_model_) {
    throw std::invalid_argument("EfsiSimulation: null domain or model");
  }
  lat_ = std::make_unique<lbm::Lattice>(
      geometry::make_lattice_for(*domain_, params_.dx, params_.tau));
  geometry::voxelize(*lat_, *domain_);
  rbcs_ = std::make_unique<cells::CellPool>(
      rbc_model_.get(), cells::CellKind::Rbc, params_.rbc_capacity);
  ctcs_ = std::make_unique<cells::CellPool>(ctc_model_.get(),
                                            cells::CellKind::Ctc, 1);
}

void EfsiSimulation::initialize_flow(const Vec3& u_lattice, int warmup_steps) {
  lat_->init_equilibrium(1.0, u_lattice);
  for (int s = 0; s < warmup_steps; ++s) lat_->step();
  lat_->update_macroscopic();
}

void EfsiSimulation::set_body_force_density(const Vec3& f_phys) {
  const double s = units_.dt() * units_.dt() / (units_.rho() * units_.dx());
  lat_->set_body_force(f_phys * s);
}

void EfsiSimulation::place_ctc(const Vec3& position) {
  if (ctcs_->size() > 0) ctcs_->remove_slot(0);
  ctcs_->add(0, cells::instantiate(*ctc_model_, position));
  trajectory_.clear();
  trajectory_.push_back(position);
}

int EfsiSimulation::fill_region(const Aabb& region,
                                const cells::RbcTile& tile) {
  const double rmax = rbc_model_->max_radius();
  const double min_dist = cells::insertion_clearance(rmax);
  cells::SubGrid grid(region.inflated(2.0 * rmax),
                      std::max(min_dist, rmax / 2.0));
  cells::fill_subgrid(grid, {rbcs_.get(), ctcs_.get()});

  int added = 0;
  const double s = tile.side();
  const Vec3 e = region.extent();
  const int ni = std::max(1, static_cast<int>(std::ceil(e.x / s)));
  const int nj = std::max(1, static_cast<int>(std::ceil(e.y / s)));
  const int nk = std::max(1, static_cast<int>(std::ceil(e.z / s)));
  for (int k = 0; k < nk; ++k) {
    for (int j = 0; j < nj; ++j) {
      for (int i = 0; i < ni; ++i) {
        const Vec3 c = region.lo + Vec3{(i + 0.5) * s, (j + 0.5) * s,
                                        (k + 0.5) * s};
        const Mat3 rot = random_rotation(rng_);
        std::vector<cells::Candidate> candidates;
        for (auto& verts : tile.instantiate_at(*rbc_model_, c, rot)) {
          if (!region.contains(cells::centroid(verts))) continue;
          const bool in_domain =
              std::all_of(verts.begin(), verts.end(),
                          [&](const Vec3& v) { return domain_->inside(v); });
          if (!in_domain) continue;
          candidates.push_back({next_cell_id_++, std::move(verts)});
        }
        added += cells::add_nonoverlapping(std::move(candidates), grid,
                                           min_dist, *rbcs_);
      }
    }
  }
  return added;
}

std::vector<cells::CellPool*> EfsiSimulation::active_pools() {
  std::vector<cells::CellPool*> pools;
  if (rbcs_->size() > 0) pools.push_back(rbcs_.get());
  if (ctcs_->size() > 0) pools.push_back(ctcs_.get());
  return pools;
}

Vec3 EfsiSimulation::ctc_position() const {
  if (ctcs_->size() == 0) return {};
  return ctcs_->cell_centroid(0);
}

void EfsiSimulation::step() {
  auto pools = active_pools();
  if (!pools.empty()) {
    compute_cell_forces(pools, domain_.get(), params_.fsi);
    lat_->clear_forces();
    spread_cell_forces(*lat_, units_, pools, params_.fsi.kernel);
  }
  lat_->step();
  if (!pools.empty()) advect_cells(*lat_, pools, params_.fsi.kernel);
  ++steps_;
  if (ctcs_->size() > 0) trajectory_.push_back(ctc_position());
}

void EfsiSimulation::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

}  // namespace apr::core
