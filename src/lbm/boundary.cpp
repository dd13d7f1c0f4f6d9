#include "src/lbm/boundary.hpp"

#include <algorithm>
#include <vector>

namespace apr::lbm {

namespace {

/// Iterate over one outer face of the lattice.
template <typename Fn>
void for_face(Lattice& lat, Face face, Fn&& fn) {
  const int nx = lat.nx();
  const int ny = lat.ny();
  const int nz = lat.nz();
  auto loop2 = [&](auto&& body, int na, int nb) {
    for (int a = 0; a < na; ++a)
      for (int b = 0; b < nb; ++b) body(a, b);
  };
  switch (face) {
    case Face::XMin:
      loop2([&](int y, int z) { fn(0, y, z); }, ny, nz);
      break;
    case Face::XMax:
      loop2([&](int y, int z) { fn(nx - 1, y, z); }, ny, nz);
      break;
    case Face::YMin:
      loop2([&](int x, int z) { fn(x, 0, z); }, nx, nz);
      break;
    case Face::YMax:
      loop2([&](int x, int z) { fn(x, ny - 1, z); }, nx, nz);
      break;
    case Face::ZMin:
      loop2([&](int x, int y) { fn(x, y, 0); }, nx, ny);
      break;
    case Face::ZMax:
      loop2([&](int x, int y) { fn(x, y, nz - 1); }, nx, ny);
      break;
  }
}

}  // namespace

void mark_box_walls(Lattice& lat) {
  for (Face f : {Face::XMin, Face::XMax, Face::YMin, Face::YMax, Face::ZMin,
                 Face::ZMax}) {
    mark_face_wall(lat, f);
  }
}

void mark_face_wall(Lattice& lat, Face face, const Vec3& wall_velocity) {
  for_face(lat, face, [&](int x, int y, int z) {
    const std::size_t i = lat.idx(x, y, z);
    lat.set_type(i, NodeType::Wall);
    lat.set_boundary_velocity(i, wall_velocity);
    lat.mutable_velocity(i) = wall_velocity;
  });
}

void mark_face_velocity(Lattice& lat, Face face, const Vec3& u) {
  mark_face_velocity(lat, face, [u](const Vec3&) { return u; });
}

void mark_face_velocity(Lattice& lat, Face face,
                        const std::function<Vec3(const Vec3&)>& profile) {
  for_face(lat, face, [&](int x, int y, int z) {
    const std::size_t i = lat.idx(x, y, z);
    const Vec3 u = profile(lat.position(x, y, z));
    lat.set_type(i, NodeType::Velocity);
    lat.set_boundary_velocity(i, u);
    lat.mutable_velocity(i) = u;
  });
}

std::size_t mark_tube_walls(Lattice& lat, const Vec3& center, const Vec3& axis,
                            double radius) {
  const Vec3 a = normalized(axis);
  return mark_walls_by_predicate(lat, [&](const Vec3& p) {
           const Vec3 d = p - center;
           const Vec3 radial = d - a * dot(d, a);
           return norm(radial) <= radius;
         }).wall;
}

OutflowBoundary OutflowBoundary::mark(Lattice& lat, Face face) {
  OutflowBoundary out;
  // Inward step per face.
  int di = 0, dj = 0, dk = 0;
  switch (face) {
    case Face::XMin:
      di = 1;
      break;
    case Face::XMax:
      di = -1;
      break;
    case Face::YMin:
      dj = 1;
      break;
    case Face::YMax:
      dj = -1;
      break;
    case Face::ZMin:
      dk = 1;
      break;
    case Face::ZMax:
      dk = -1;
      break;
  }
  for_face(lat, face, [&](int x, int y, int z) {
    const std::size_t i = lat.idx(x, y, z);
    if (lat.type(i) != NodeType::Fluid) return;
    if (!lat.in_domain(x + di, y + dj, z + dk)) return;
    const std::size_t inner = lat.idx(x + di, y + dj, z + dk);
    if (lat.type(inner) != NodeType::Fluid) return;
    lat.set_type(i, NodeType::Velocity);
    out.pairs_.emplace_back(i, inner);
  });
  return out;
}

void OutflowBoundary::update(Lattice& lat) const {
  for (const auto& [outlet, inner] : pairs_) {
    const auto f = lat.f_node(inner);
    const double rho = density(f);
    if (rho <= 0.0) continue;
    const Vec3 u = (momentum(f) + lat.force(inner) * 0.5) / rho;
    lat.set_boundary_velocity(outlet, u);
  }
}

WallStats mark_walls_by_predicate(
    Lattice& lat, const std::function<bool(const Vec3&)>& inside, int x0,
    int x1, int y0, int y1, int z0, int z1) {
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  z0 = std::max(z0, 0);
  x1 = std::min(x1, lat.nx());
  y1 = std::min(y1, lat.ny());
  z1 = std::min(z1, lat.nz());
  WallStats stats;
  if (x0 >= x1 || y0 >= y1 || z0 >= z1) return stats;

  // Evaluate the predicate over the sub-range inflated by one node
  // (clipped to the lattice) so every neighbour query below is a lookup.
  const int ex0 = std::max(x0 - 1, 0);
  const int ey0 = std::max(y0 - 1, 0);
  const int ez0 = std::max(z0 - 1, 0);
  const int ex1 = std::min(x1 + 1, lat.nx());
  const int ey1 = std::min(y1 + 1, lat.ny());
  const int ez1 = std::min(z1 + 1, lat.nz());
  const int enx = ex1 - ex0;
  const int eny = ey1 - ey0;
  const int enz = ez1 - ez0;
  std::vector<char> in(static_cast<std::size_t>(enx) * eny * enz);
  auto eidx = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z - ez0) * eny + (y - ey0)) * enx +
           (x - ex0);
  };
  for (int z = ez0; z < ez1; ++z) {
    for (int y = ey0; y < ey1; ++y) {
      for (int x = ex0; x < ex1; ++x) {
        in[eidx(x, y, z)] = inside(lat.position(x, y, z)) ? 1 : 0;
      }
    }
  }

  for (int z = z0; z < z1; ++z) {
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        const std::size_t i = lat.idx(x, y, z);
        if (in[eidx(x, y, z)]) {
          lat.set_type(i, NodeType::Fluid);
          ++stats.fluid;
          continue;
        }
        bool near_fluid = false;
        for (int q = 1; q < kQ && !near_fluid; ++q) {
          const int sx = x + kC[q][0];
          const int sy = y + kC[q][1];
          const int sz = z + kC[q][2];
          if (lat.in_domain(sx, sy, sz) && in[eidx(sx, sy, sz)]) {
            near_fluid = true;
          }
        }
        if (near_fluid) {
          lat.set_type(i, NodeType::Wall);
          ++stats.wall;
        } else {
          lat.set_type(i, NodeType::Exterior);
          ++stats.exterior;
        }
      }
    }
  }
  return stats;
}

WallStats mark_walls_by_predicate(
    Lattice& lat, const std::function<bool(const Vec3&)>& inside) {
  return mark_walls_by_predicate(lat, inside, 0, lat.nx(), 0, lat.ny(), 0,
                                 lat.nz());
}

}  // namespace apr::lbm
