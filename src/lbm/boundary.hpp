#pragma once

/// \file boundary.hpp
/// Helpers that mark boundary node layers on a Lattice: resting/moving
/// walls, velocity-Dirichlet faces (optionally with an analytic profile),
/// and cylindrical tube walls. These implement the boundary treatment of
/// paper §2.1 (halfway bounce-back at walls) plus the Dirichlet faces used
/// by the verification flows of §3.1-§3.3.

#include <functional>

#include "src/lbm/lattice.hpp"

namespace apr::lbm {

/// Face identifiers of the lattice box.
enum class Face { XMin, XMax, YMin, YMax, ZMin, ZMax };

/// Mark all six outer node layers as resting walls.
void mark_box_walls(Lattice& lat);

/// Mark a single outer face as a (possibly moving) wall.
void mark_face_wall(Lattice& lat, Face face, const Vec3& wall_velocity = {});

/// Mark a single outer face as a velocity-Dirichlet boundary with constant
/// velocity (lattice units).
void mark_face_velocity(Lattice& lat, Face face, const Vec3& u);

/// Mark a single outer face as a velocity-Dirichlet boundary whose velocity
/// is evaluated per node from the node's physical position.
void mark_face_velocity(Lattice& lat, Face face,
                        const std::function<Vec3(const Vec3&)>& profile);

/// Classify the whole lattice (mark_walls_by_predicate) with "inside" =
/// within `radius` of the axis through `center` along `axis`. Returns the
/// number of wall nodes.
std::size_t mark_tube_walls(Lattice& lat, const Vec3& center, const Vec3& axis,
                            double radius);

/// Node counts of one classification pass.
struct WallStats {
  std::size_t fluid = 0;
  std::size_t wall = 0;
  std::size_t exterior = 0;
};

/// The one wall classifier: over the half-open index sub-range
/// [x0,x1) x [y0,y1) x [z0,z1) (clamped to the lattice), nodes where
/// `inside` holds at their physical position become Fluid, the others
/// Wall if a D3Q19 neighbour is inside (halfway bounce-back) and Exterior
/// otherwise. Neighbour visibility is clipped at the *lattice* boundary,
/// not the sub-range, so classifying a disjoint tiling of sub-ranges
/// gives the whole-lattice result node for node.
WallStats mark_walls_by_predicate(
    Lattice& lat, const std::function<bool(const Vec3&)>& inside, int x0,
    int x1, int y0, int y1, int z0, int z1);

/// The classifier over the whole lattice.
WallStats mark_walls_by_predicate(
    Lattice& lat, const std::function<bool(const Vec3&)>& inside);

/// Zero-gradient outflow: converts a face's Fluid nodes into Velocity
/// nodes whose prescribed velocity is refreshed each step from the
/// distributions of the interior neighbour one node inward. Used to open
/// vessel trees that cross the lattice boundary (vasculature runs): the
/// inlet face carries a fixed profile, every other crossing face an
/// OutflowBoundary.
class OutflowBoundary {
 public:
  /// Convert the face's current Fluid nodes into outlets.
  static OutflowBoundary mark(Lattice& lat, Face face);

  /// Refresh the outlet velocities (call once per step before stepping).
  void update(Lattice& lat) const;

  std::size_t size() const { return pairs_.size(); }

 private:
  /// (outlet node, interior neighbour) index pairs.
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
};

}  // namespace apr::lbm
