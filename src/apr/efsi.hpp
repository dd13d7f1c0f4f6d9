#pragma once

/// \file efsi.hpp
/// The explicit fluid-structure-interaction (eFSI) baseline: one uniform
/// fine lattice over the entire domain with RBCs everywhere, the
/// conventional fully-resolved model the paper compares APR against
/// (§3.3, Fig. 6). Shares the FSI machinery with AprSimulation so the two
/// models differ only in the refinement strategy, as in the paper.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/apr/simulation.hpp"

namespace apr::core {

struct EfsiParams {
  double dx = 0.5e-6;  ///< [m] uniform (fine) lattice spacing
  double tau = 1.0;
  double nu = 1.2e-3 / 1060.0;  ///< [m^2/s] plasma kinematic viscosity
  FsiParams fsi;
  std::size_t rbc_capacity = 2048;
  std::uint64_t seed = 42;
};

class EfsiSimulation {
 public:
  EfsiSimulation(std::shared_ptr<const geometry::Domain> domain,
                 std::shared_ptr<const fem::MembraneModel> rbc_model,
                 std::shared_ptr<const fem::MembraneModel> ctc_model,
                 const EfsiParams& params);

  lbm::Lattice& lattice() { return *lat_; }
  const lbm::Lattice& lattice() const { return *lat_; }
  const UnitConverter& units() const { return units_; }

  void initialize_flow(const Vec3& u_lattice, int warmup_steps = 0);

  /// Drive the flow with a uniform body-force density [N/m^3].
  void set_body_force_density(const Vec3& f_phys);

  void place_ctc(const Vec3& position);

  /// Fill `region` (clipped to the domain) with RBCs by stamping the same
  /// tile used by the APR window; the tile's packing sets the density.
  /// Returns the number of cells added.
  int fill_region(const Aabb& region, const cells::RbcTile& tile);

  /// One fine time step with FSI.
  void step();
  void run(int steps);

  Vec3 ctc_position() const;
  cells::CellPool& rbcs() { return *rbcs_; }
  const cells::CellPool& rbcs() const { return *rbcs_; }
  int steps_taken() const { return steps_; }
  double physical_time() const { return steps_ * units_.dt(); }
  const std::vector<Vec3>& ctc_trajectory() const { return trajectory_; }
  std::uint64_t total_site_updates() const { return lat_->site_updates(); }

 private:
  std::shared_ptr<const geometry::Domain> domain_;
  std::shared_ptr<const fem::MembraneModel> rbc_model_;
  std::shared_ptr<const fem::MembraneModel> ctc_model_;
  EfsiParams params_;
  UnitConverter units_;
  std::unique_ptr<lbm::Lattice> lat_;
  std::unique_ptr<cells::CellPool> rbcs_;
  std::unique_ptr<cells::CellPool> ctcs_;
  Rng rng_;
  std::uint64_t next_cell_id_ = 1;
  int steps_ = 0;
  std::vector<Vec3> trajectory_;

  std::vector<cells::CellPool*> active_pools();
};

}  // namespace apr::core
