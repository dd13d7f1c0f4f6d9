#pragma once

/// \file setup.hpp
/// Config-deck-driven construction of APR simulations. HARVEY is driven
/// by text input decks ("Input parameters, including fluid velocity,
/// hematocrit, viscosity ratio ... are all specified in the text" --
/// paper artifact description); this module gives hemoAPR the same entry
/// point: a key=value deck (src/common/config.hpp) fully describing the
/// cell models, flow domain and APR parameters, so runs can be
/// re-parameterized without recompiling.
///
/// Recognized keys (defaults in parentheses). The deck fails closed:
/// make_simulation() throws std::runtime_error naming every key in the
/// deck that no reader consumed, so a misspelled or retired key is an
/// error, not a silent default. Drivers that keep their own run-control
/// keys in the same deck read them before calling make_simulation().
///   # lattice / coupling
///   dx_coarse_um (2.0), resolution_ratio (2), tau_coarse (1.0)
///   bulk_viscosity_cp (4.0), plasma_viscosity_cp (1.2)
///   # window anatomy [um] -- outer = proper + 2*(onramp + insertion)
///   # must be an integer multiple of insertion (the insertion shell is
///   # tiled by insertion-width cubes; WindowConfig::validate() rejects
///   # decks that mis-tile). Defaults: outer = 22 um = 4 x 5.5 um tiles.
///   window_proper_um (6), onramp_um (2.5), insertion_um (5.5)
///   target_hematocrit (0.1), repopulation_threshold (0.75)
///   maintain_interval (3), move_trigger_um (1.5)
///   # numerical-health watchdog (see apr/health.hpp, DESIGN.md §10)
///   health (off | throw | log | recover), health_interval (10)
///   health_check_cells (true)
///   health_rho_min (0.5), health_rho_max (2.0), health_max_mach (0.3)
///   health_max_i1 (50), health_max_volume_drift (0.5),
///   health_min_det_f (1e-3)
///   # cells
///   rbc_radius_um (1.0), rbc_subdivisions (1)
///   rbc_shear_modulus (5e-6), rbc_bending_modulus (2e-19)
///   rbc_ka_global (1e-6), rbc_kv_global (1e-6)
///   ctc_radius_um (1.6), ctc_subdivisions (1), ctc_shear_modulus (1e-4)
///   ctc_bending_modulus (2e-18), ctc_ka_global (1e-5), ctc_kv_global (1e-5)
///   # FSI
///   contact_cutoff_um (0.4), contact_strength (2e-12)
///   wall_cutoff_um (0.5), wall_strength (5e-12)
///   # collision operator (see lbm/lattice.hpp): bgk | trt | mrt
///   collision_model (bgk), trt_magic (3/16, TRT only)
///   # bookkeeping
///   rbc_capacity (1500), seed (42)
///   # domain (kind = tube only here; other domains are built in code)
///   domain = tube, tube_radius_um (16), tube_length_um (60),
///   tube_capped (false)

#include <memory>

#include "src/apr/simulation.hpp"
#include "src/common/config.hpp"

namespace apr::core {

/// Everything needed to run: models, domain and the simulation itself.
struct SimulationSetup {
  std::shared_ptr<const fem::MembraneModel> rbc_model;
  std::shared_ptr<const fem::MembraneModel> ctc_model;
  std::shared_ptr<const geometry::Domain> domain;
  AprParams params;
  std::unique_ptr<AprSimulation> simulation;
};

/// Translate a config deck into AprParams (no objects constructed).
AprParams params_from_config(const Config& config);

/// Build the RBC membrane model described by the deck (SI units).
std::shared_ptr<fem::MembraneModel> rbc_model_from_config(
    const Config& config);

/// Build the CTC membrane model described by the deck (SI units).
std::shared_ptr<fem::MembraneModel> ctc_model_from_config(
    const Config& config);

/// Build the flow domain; currently supports `domain = tube`. Throws
/// std::runtime_error for unknown kinds.
std::shared_ptr<geometry::Domain> domain_from_config(const Config& config);

/// One-call assembly of a ready AprSimulation from a deck. Throws
/// std::runtime_error when the deck holds a key that neither the caller
/// nor the readers above consumed (Config::unread_keys()).
SimulationSetup make_simulation(const Config& config);

}  // namespace apr::core
