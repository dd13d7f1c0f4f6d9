#pragma once

/// \file coupler.hpp
/// Multi-resolution, multi-viscosity coupling between the coarse bulk
/// lattice and the fine window lattice (paper §2.4.1).
///
/// Grid relation: dx_f = dx_c / n with convective time scaling
/// dt_f = dt_c / n, so lattice-unit velocities agree on both grids and
/// the fine grid takes n sub-steps per coarse step. Relaxation times obey
/// the paper's Eq. (7): tau_f = 1/2 + n lambda (tau_c - 1/2) where
/// lambda = nu_f / nu_c is the fine/coarse physical viscosity ratio
/// (plasma inside the window over whole blood outside).
///
/// Coupling condition: velocity and *traction* are continuous across the
/// window boundary (the physically correct jump conditions at a material
/// interface with a viscosity contrast). In LBM terms the non-equilibrium
/// populations are exchanged through a grid- and viscosity-independent
/// "stress-normalized" quantity
///     t_q = f^neq_q * nu_local / (tau_local * dt_local)
/// which is proportional to the physical deviatoric stress. Transfers are
///     f^neq_target = t_q * tau_target * dt_target / nu_target.
/// For lambda = 1 this reduces to the classic Dupuis-Chopard rescaling
/// f^neq_f = f^neq_c * tau_f / (n tau_c).
///
/// Mechanics per coarse step:
///  1. begin_coarse_step(): snapshot interface data at coarse time T,
///     advance the coarse lattice, snapshot again at T+1.
///  2. For each fine sub-step s in [0, n): set_fine_boundary(s) imposes
///     time-interpolated (rho, u, t_q) on the fine lattice's Coupling
///     layer; the caller then runs FSI + fine.step().
///  3. restrict_to_coarse(): overwrite coarse nodes inside the window
///     footprint from coincident fine nodes (inverse rescale).
///
/// The coupler also re-tags the coarse relaxation time inside the window
/// footprint to the lambda-scaled value, so the coarse lattice represents
/// the window fluid there between restrictions.

#include <array>
#include <cstdint>
#include <vector>

#include "src/lbm/lattice.hpp"

namespace apr::core {

struct CouplerConfig {
  int n = 2;            ///< resolution ratio dx_c / dx_f
  double lambda = 1.0;  ///< nu_fine / nu_coarse (physical)
  double tau_coarse = 1.0;  ///< bulk coarse relaxation time
};

class CoarseFineCoupler {
 public:
  /// Both lattices must be node-aligned: the fine origin must coincide
  /// with a coarse node and dx_c = n * dx_f (checked, throws otherwise).
  ///
  /// The physical origin is read once, to round it to the window's base
  /// coarse node; everything after that is integer arithmetic. Fine site
  /// s lies in coarse cell base + s / n at exact fraction (s % n) / n, and
  /// a coarse node lies in the footprint iff its window-relative index
  /// times n is a fine index. So two windows at the same coarse node build
  /// bit-identical couplers however their origins were rounded, and the
  /// restriction / tau-footprint scans visit only the coarse nodes the
  /// window covers.
  CoarseFineCoupler(lbm::Lattice& coarse, lbm::Lattice& fine,
                    const CouplerConfig& config);

  /// Restore the coarse lattice's relaxation time in the footprint (call
  /// before destroying the coupler when moving the window).
  void release();

  const CouplerConfig& config() const { return cfg_; }
  double tau_fine() const { return tau_f_; }
  std::size_t num_coupling_nodes() const { return coupling_.size(); }
  std::size_t num_restriction_nodes() const { return restriction_.size(); }

  /// (coarse index, saved bulk tau) for every footprint node whose
  /// relaxation time the constructor re-tagged. Checkpointing uses
  /// this to serialize the coarse tau field at its bulk values: the
  /// footprint adjustment is coupler state, re-applied when the restored
  /// simulation attaches a fresh coupler, and saving it verbatim would
  /// bake the adjusted values into the new coupler's save list (breaking
  /// the restore in release() at the next window move).
  const std::vector<std::pair<std::size_t, double>>& footprint_saved_tau()
      const {
    return saved_coarse_tau_;
  }

  /// Snapshot interface data, advance the coarse lattice one step,
  /// snapshot again. Equivalent to take_pre_snapshot();
  /// coarse.step_no_macro(); take_post_snapshot() -- the split entry
  /// points let AprSimulation attribute the coarse advance and the
  /// coupling work to separate profiler phases.
  void begin_coarse_step();

  /// Snapshot interface data at coarse time T (before the coarse step).
  void take_pre_snapshot();

  /// Snapshot interface data at coarse time T+1 (after the coarse step)
  /// and account the interface traffic.
  void take_post_snapshot();

  /// Impose boundary data for fine sub-step s (0-based): blend weight
  /// s/n between the pre- and post-step coarse snapshots.
  void set_fine_boundary(int substep);

  /// Overwrite footprint coarse nodes from the fine solution.
  void restrict_to_coarse();

  /// Convenience: a full coupled fluid-only step (no FSI hooks).
  void advance();

  /// Bytes moved between the grids so far (coupling diagnostics for the
  /// performance model).
  std::uint64_t bytes_transferred() const { return bytes_; }

 private:
  lbm::Lattice* coarse_;
  lbm::Lattice* fine_;
  CouplerConfig cfg_;
  double tau_f_;

  /// Stress normalization factors nu/(tau*dt) with dt in coarse units.
  double coarse_norm(double tau_local) const;
  double fine_norm() const;

  struct CouplingNode {
    std::size_t fine_idx;
    std::array<std::uint32_t, 8> support;  ///< indices into support_nodes_
    std::array<double, 8> weight;          ///< renormalized trilinear weights
  };
  /// Interface data per unique coarse support node -- shared by every
  /// coupling node whose trilinear stencil touches it, so the moment and
  /// equilibrium computations run once per support node, not 8x per
  /// coupling node.
  struct Snapshot {
    std::vector<double> rho;
    std::vector<Vec3> u;
    std::vector<std::array<double, lbm::kQ>> t;  ///< normalized f^neq
  };
  struct RestrictionNode {
    std::size_t coarse_idx;
    std::size_t fine_idx;
  };

  std::array<int, 3> base_{};  ///< coarse node under the fine origin
  double tau_inside_ = 0.0;  ///< coarse footprint tau (window viscosity)
  std::vector<std::size_t> support_nodes_;  ///< unique coarse indices
  std::vector<CouplingNode> coupling_;
  Snapshot pre_;
  Snapshot post_;
  Snapshot blend_;  ///< scratch for set_fine_boundary
  std::vector<RestrictionNode> restriction_;
  std::vector<std::pair<std::size_t, double>> saved_coarse_tau_;
  std::uint64_t bytes_ = 0;
  bool released_ = false;

  void build_coupling_layer();
  void build_footprint();
  void take_snapshot(Snapshot& snap) const;
};

}  // namespace apr::core
