#include "src/geometry/voxelizer.hpp"

#include <algorithm>
#include <cmath>

#include "src/lbm/d3q19.hpp"

namespace apr::geometry {

lbm::WallStats voxelize(lbm::Lattice& lat, const Domain& domain) {
  const lbm::WallStats stats = lbm::mark_walls_by_predicate(
      lat, [&](const Vec3& p) { return domain.inside(p); });
  // Classification released every all-Exterior tile; give the freed pool
  // capacity back too. A fresh lattice is transiently dense (the
  // constructor materializes every block), so this is where the sparse
  // memory footprint is actually established.
  lat.shrink_to_fit();
  return stats;
}

lbm::WallStats voxelize(lbm::Lattice& lat, const Domain& domain, int x0,
                       int x1, int y0, int y1, int z0, int z1) {
  return lbm::mark_walls_by_predicate(
      lat, [&](const Vec3& p) { return domain.inside(p); }, x0, x1, y0, y1,
      z0, z1);
}

void reclassify_solid(lbm::Lattice& lat, int x0, int x1, int y0, int y1,
                      int z0, int z1) {
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  z0 = std::max(z0, 0);
  x1 = std::min(x1, lat.nx());
  y1 = std::min(y1, lat.ny());
  z1 = std::min(z1, lat.nz());
  for (int z = z0; z < z1; ++z) {
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        const std::size_t i = lat.idx(x, y, z);
        const lbm::NodeType t = lat.type(i);
        if (t != lbm::NodeType::Wall && t != lbm::NodeType::Exterior) {
          continue;
        }
        bool near_fluid = false;
        for (int q = 1; q < lbm::kQ && !near_fluid; ++q) {
          const int sx = x + lbm::kC[q][0];
          const int sy = y + lbm::kC[q][1];
          const int sz = z + lbm::kC[q][2];
          if (lat.in_domain(sx, sy, sz) &&
              lbm::is_stream_source(lat.type(sx, sy, sz))) {
            near_fluid = true;
          }
        }
        lat.set_type(i, near_fluid ? lbm::NodeType::Wall
                                   : lbm::NodeType::Exterior);
      }
    }
  }
}

void mark_inlet(lbm::Lattice& lat, const Domain& domain, lbm::Face face,
                const std::function<Vec3(const Vec3&)>& profile) {
  lbm::mark_face_velocity(lat, face, [&](const Vec3& p) {
    return domain.inside(p) ? profile(p) : Vec3{};
  });
  // Nodes on the face but outside the domain should stay walls/exterior:
  // re-classify them.
  const int nx = lat.nx();
  const int ny = lat.ny();
  const int nz = lat.nz();
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const bool on_face =
            (face == lbm::Face::XMin && x == 0) ||
            (face == lbm::Face::XMax && x == nx - 1) ||
            (face == lbm::Face::YMin && y == 0) ||
            (face == lbm::Face::YMax && y == ny - 1) ||
            (face == lbm::Face::ZMin && z == 0) ||
            (face == lbm::Face::ZMax && z == nz - 1);
        if (!on_face) continue;
        const std::size_t i = lat.idx(x, y, z);
        if (!domain.inside(lat.position(x, y, z))) {
          lat.set_type(i, lbm::NodeType::Wall);
          lat.set_boundary_velocity(i, Vec3{});
        }
      }
    }
  }
}

lbm::Lattice make_lattice_for(const Domain& domain, double dx, double tau,
                              int margin_nodes) {
  const Aabb b = domain.bounds().inflated(margin_nodes * dx);
  const Vec3 e = b.extent();
  const int nx = static_cast<int>(std::ceil(e.x / dx)) + 1;
  const int ny = static_cast<int>(std::ceil(e.y / dx)) + 1;
  const int nz = static_cast<int>(std::ceil(e.z / dx)) + 1;
  return lbm::Lattice(nx, ny, nz, b.lo, dx, tau);
}

}  // namespace apr::geometry
