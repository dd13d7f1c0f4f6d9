#pragma once

/// \file voxelizer.hpp
/// Maps a Domain onto a Lattice: interior nodes are Fluid, exterior nodes
/// adjacent to fluid become Wall (halfway bounce-back), the rest become
/// Exterior. Also marks inlet/outlet faces for through-flow domains.

#include <functional>

#include "src/geometry/domain.hpp"
#include "src/lbm/boundary.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::geometry {

/// Classify every lattice node against the domain
/// (lbm::mark_walls_by_predicate over the whole lattice), then compact the
/// tile pools to the tiles the classification kept resident.
lbm::WallStats voxelize(lbm::Lattice& lat, const Domain& domain);

/// Classify only the nodes in the half-open index sub-range
/// [x0,x1) x [y0,y1) x [z0,z1) (clamped to the lattice). Produces exactly
/// the types the whole-lattice overload assigns at those nodes, so
/// re-voxelizing only the slab a window move exposes is equivalent to a
/// full rebuild there. Nodes inside the domain are (re)set to Fluid, so
/// recycled lattices carry no stale types; do not use it over faces that
/// hold Velocity/Coupling markers you want to keep.
lbm::WallStats voxelize(lbm::Lattice& lat, const Domain& domain, int x0,
                       int x1, int y0, int y1, int z0, int z1);

/// Re-derive Wall-vs-Exterior over the sub-range (clamped) from the
/// *stored* node types alone: a solid node with at least one stream-source
/// neighbour becomes Wall, any other solid node becomes Exterior. Fluid /
/// Velocity / Coupling nodes are never touched, so the pass cannot create
/// an unseeded fluid node. The incremental window move uses it on the
/// one-node rim around each re-voxelized slab, where the preserved nodes'
/// Wall-vs-Exterior choice was made with neighbour visibility clipped at
/// the old lattice boundary. Re-running the geometry predicate there
/// instead would be wrong: for nodes lying exactly on the domain surface,
/// inside() is decided by the last ulp of origin + index*dx, which is not
/// reproducible across an origin rebase -- a preserved Wall could flip to
/// Fluid with no distributions behind it.
void reclassify_solid(lbm::Lattice& lat, int x0, int x1, int y0, int y1,
                      int z0, int z1);

/// Mark the interior (inside-domain) nodes of one outer lattice face as a
/// velocity inlet with the given profile; typically used together with a
/// matching outlet on the opposite face.
void mark_inlet(lbm::Lattice& lat, const Domain& domain, lbm::Face face,
                const std::function<Vec3(const Vec3&)>& profile);

/// Construct a lattice that covers `domain.bounds()` inflated by
/// `margin_nodes` spacings, at spacing dx.
lbm::Lattice make_lattice_for(const Domain& domain, double dx, double tau,
                              int margin_nodes = 1);

}  // namespace apr::geometry
