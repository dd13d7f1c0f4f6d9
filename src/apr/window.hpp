#pragma once

/// \file window.hpp
/// The cell-resolved window and its density-maintenance machinery
/// (paper §2.4.2, Fig. 3A). The window is a cube of three nested regions:
///
///   +--------------------------+
///   |        insertion         |   outermost shell: cells are added here
///   |  +--------------------+  |   from pre-built tiles when the local
///   |  |      on-ramp       |  |   hematocrit drops; also where exiting
///   |  |  +--------------+  |  |   cells are finally removed
///   |  |  |    window    |  |  |
///   |  |  |    proper    |  |  |   innermost: fully equilibrated cells
///   |  |  +--------------+  |  |   interacting with the CTC
///   |  +--------------------+  |
///   +--------------------------+
///
/// The insertion shell is tiled by cubic subregions; each monitors its own
/// hematocrit by centroid count and is independently re-populated from the
/// RBC tile when it falls below a threshold. Newly inserted cells cross
/// the on-ramp and deform in the flow before they can reach the CTC.

#include <cstdint>
#include <span>
#include <vector>

#include "src/cells/cell_pool.hpp"
#include "src/cells/overlap.hpp"
#include "src/cells/subgrid.hpp"
#include "src/cells/tile.hpp"
#include "src/common/aabb.hpp"
#include "src/common/rng.hpp"
#include "src/geometry/domain.hpp"

namespace apr::core {

struct WindowConfig {
  double proper_side = 40e-6;       ///< [m] window-proper cube edge
  double onramp_width = 20e-6;      ///< [m] on-ramp shell thickness
  double insertion_width = 20e-6;   ///< [m] insertion shell thickness
  double target_hematocrit = 0.2;   ///< maintained RBC volume fraction
  /// Re-populate a subregion when its hematocrit falls below
  /// threshold * target (threshold < 1 minimizes injection frequency,
  /// paper §3.2).
  double repopulation_threshold = 0.75;

  double outer_side() const {
    return proper_side + 2.0 * (onramp_width + insertion_width);
  }
  double inner_side() const {  // on-ramp outer box = insertion inner box
    return proper_side + 2.0 * onramp_width;
  }

  /// Validate the region dimensions. The insertion shell is tiled by
  /// cubes of edge insertion_width, so outer_side() must be an integer
  /// multiple of insertion_width (to fp tolerance) or the shell mis-tiles
  /// (gaps, or cubes straddling the inner boundary). Throws
  /// std::invalid_argument; called by the Window constructor and by
  /// config parsing (see setup.hpp) so bad decks fail fast.
  void validate() const;
};

enum class WindowRegion : std::uint8_t {
  Outside = 0,
  Insertion = 1,
  OnRamp = 2,
  Proper = 3,
};

struct PopulationReport {
  int added = 0;
  int rejected_overlap = 0;
  int rejected_wall = 0;
  int removed_outside = 0;
  int subregions_refilled = 0;
};

class Window {
 public:
  /// \param center window center (snap with snap_center() first so the
  ///        fine lattice aligns with the coarse grid)
  /// \param domain flow domain (cells must stay inside); may be null for
  ///        unbounded tests
  Window(const Vec3& center, const WindowConfig& config,
         const geometry::Domain* domain);

  /// Snap a desired center so the window's lower corner lands on a coarse
  /// lattice node (required by the grid coupler).
  static Vec3 snap_center(const Vec3& desired, const WindowConfig& config,
                          const Vec3& coarse_origin, double coarse_dx);

  const WindowConfig& config() const { return cfg_; }
  const Vec3& center() const { return center_; }
  const geometry::Domain* domain() const { return domain_; }

  Aabb outer_box() const { return Aabb::cube(center_, cfg_.outer_side()); }
  Aabb inner_box() const { return Aabb::cube(center_, cfg_.inner_side()); }
  Aabb proper_box() const { return Aabb::cube(center_, cfg_.proper_side); }

  WindowRegion classify(const Vec3& p) const;

  /// Insertion subregions (cubes tiling the insertion shell).
  const std::vector<Aabb>& subregions() const { return subregions_; }

  /// Fraction of subregion `s` inside the flow domain (1 when no domain).
  double subregion_fill(std::size_t s) const { return fill_[s]; }

  /// Fraction of the whole outer box inside the flow domain. Computed
  /// once at construction (the window geometry is immutable afterwards);
  /// hematocrit() reads this cache instead of re-sampling the domain.
  double outer_fill() const { return outer_fill_; }

  /// Hematocrit over the whole window: total RBC volume (counted by
  /// centroid containment) / flow volume of the window box.
  double hematocrit(const cells::CellPool& rbcs) const;

  /// Remove cells whose centroid left the outer boundary ("cells that
  /// leave the window are removed once they cross the outer boundary").
  int remove_exited_cells(cells::CellPool& rbcs) const;

  /// Initial fill: stamp the tile over the whole window (all three
  /// regions), drop overlapping/out-of-domain cells deterministically,
  /// and keep a clearance around `avoid` (the CTC's vertices).
  PopulationReport populate(cells::CellPool& rbcs, const cells::RbcTile& tile,
                            Rng& rng, std::uint64_t& next_id,
                            std::span<const Vec3> avoid = {}) const;

  /// Density maintenance: re-populate every insertion subregion whose
  /// hematocrit dropped below threshold * target.
  PopulationReport maintain(cells::CellPool& rbcs, const cells::RbcTile& tile,
                            Rng& rng, std::uint64_t& next_id) const;

  /// Background grid for inserting into this window: every cell of
  /// `rbcs`, over the outer box inflated by two cell radii.
  cells::SubGrid insertion_grid(const cells::CellPool& rbcs) const;

  /// Add the candidates that keep cells::insertion_clearance from every
  /// vertex in `grid` and from each other (cells::add_nonoverlapping);
  /// returns the number added.
  int insert_cells(std::vector<cells::Candidate> candidates,
                   cells::SubGrid& grid, cells::CellPool& rbcs) const;

 private:
  Vec3 center_;
  WindowConfig cfg_;
  const geometry::Domain* domain_;
  std::vector<Aabb> subregions_;
  std::vector<double> fill_;
  double outer_fill_ = 1.0;
  // Density-measurement neighbourhoods: each subregion's box inflated by
  // one cell radius and clipped to the window, so the reading is a local
  // average rather than a sub-cell point sample (see
  // subregion_hematocrit). Built lazily for the pool's cell size.
  mutable std::vector<Aabb> measure_boxes_;
  mutable std::vector<double> measure_fill_;
  mutable double measure_rmax_ = -1.0;

  void build_subregions();
  void ensure_measure_regions(const cells::CellPool& rbcs) const;
  double box_fill(const Aabb& box) const;
  /// Hematocrit of insertion subregion `s`; `cell_boxes[slot]` is
  /// cells::bounds of cell `slot`, one box per cell of `rbcs`.
  double subregion_hematocrit(std::size_t s, const cells::CellPool& rbcs,
                              std::span<const Aabb> cell_boxes) const;
  bool cell_inside_domain(std::span<const Vec3> verts) const;

  /// Stamp the tile into `box`, keeping in-domain candidates whose
  /// centroid lies in `box` and that clear every vertex in `grid`.
  void stamp_tile(const Aabb& box, cells::CellPool& rbcs,
                  const cells::RbcTile& tile, Rng& rng,
                  std::uint64_t& next_id, cells::SubGrid& grid,
                  PopulationReport& report) const;
};

}  // namespace apr::core
