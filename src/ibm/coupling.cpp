#include "src/ibm/coupling.hpp"

#include <array>
#include <cstdint>

#include "src/exec/exec.hpp"
#include "src/obs/trace.hpp"

namespace apr::ibm {

namespace {

struct Support {
  int fx = 0, fy = 0, fz = 0;          // first node index per axis
  int nx = 0, ny = 0, nz = 0;          // support counts
  std::array<double, 4> wx{}, wy{}, wz{};
};

Support build_support(const lbm::Lattice& lat, const Vec3& p,
                      DeltaKernel kernel) {
  const Vec3 lc = lat.to_lattice(p);
  Support s;
  s.nx = delta_weights(kernel, lc.x, &s.fx, s.wx);
  s.ny = delta_weights(kernel, lc.y, &s.fy, s.wy);
  s.nz = delta_weights(kernel, lc.z, &s.fz, s.wz);
  return s;
}

/// Visit the in-lattice nodes of a stencil in (kz, ky, kx) order as
/// fn(x, y, z, weight wx * (wy * wz)). Every kernel sums in this order,
/// which keeps results bit-identical to a dense idx() loop (pinned by
/// tests/test_ibm.cpp).
template <class Fn>
void for_stencil(const lbm::Lattice& lat, const Support& s, Fn&& fn) {
  for (int kz = 0; kz < s.nz; ++kz) {
    const int z = s.fz + kz;
    if (z < 0 || z >= lat.nz()) continue;
    for (int ky = 0; ky < s.ny; ++ky) {
      const int y = s.fy + ky;
      if (y < 0 || y >= lat.ny()) continue;
      const double wyz = s.wy[ky] * s.wz[kz];
      for (int kx = 0; kx < s.nx; ++kx) {
        const int x = s.fx + kx;
        if (x < 0 || x >= lat.nx()) continue;
        fn(x, y, z, s.wx[kx] * wyz);
      }
    }
  }
}

/// Spreading skips solid and vacant nodes (a vacant node reads Exterior).
bool receives_force(lbm::NodeType t) {
  return t != lbm::NodeType::Exterior && t != lbm::NodeType::Wall;
}

/// Parallel-spread accumulators come in 4^3-node bricks of the lattice
/// box, keyed densely in (z, y, x) order. A brick lies inside one 16^3
/// tile, and bricks keep the per-worker scratch close to the nodes the
/// vertices really touch.
constexpr int kBrickShift = 2;
constexpr int kBrickMask = (1 << kBrickShift) - 1;
constexpr std::size_t kBrickNodes = std::size_t{1} << (3 * kBrickShift);
using Brick = std::array<Vec3, kBrickNodes>;

/// The brick grid over a lattice box: node (x, y, z) is offset
/// ((z & 3) * 4 + (y & 3)) * 4 + (x & 3) of brick (x, y, z) >> 2.
struct BrickGrid {
  std::size_t nx, ny, nz;
  explicit BrickGrid(const lbm::Lattice& lat)
      : nx(bricks(lat.nx())), ny(bricks(lat.ny())), nz(bricks(lat.nz())) {}
  static std::size_t bricks(int n) {
    return static_cast<std::size_t>(n + kBrickMask) >> kBrickShift;
  }
  std::size_t size() const { return nx * ny * nz; }
  std::size_t key(int x, int y, int z) const {
    return (static_cast<std::size_t>(z >> kBrickShift) * ny +
            static_cast<std::size_t>(y >> kBrickShift)) *
               nx +
           static_cast<std::size_t>(x >> kBrickShift);
  }
  static std::size_t offset(int x, int y, int z) {
    return static_cast<std::size_t>(
        ((((z & kBrickMask) << kBrickShift) + (y & kBrickMask))
         << kBrickShift) +
        (x & kBrickMask));
  }
  /// Node coordinates of offset o in brick `key` (inverse of the above).
  void node(std::size_t key, std::size_t o, int& x, int& y, int& z) const {
    const auto oi = static_cast<int>(o);
    x = (static_cast<int>(key % nx) << kBrickShift) + (oi & kBrickMask);
    y = (static_cast<int>(key / nx % ny) << kBrickShift) +
        ((oi >> kBrickShift) & kBrickMask);
    z = (static_cast<int>(key / (nx * ny)) << kBrickShift) +
        (oi >> (2 * kBrickShift));
  }
};

/// Per-worker spreading accumulator: `slot_of` maps a brick key to this
/// worker's accumulator brick (-1 while untouched), `keys` lists the
/// touched keys in first-touch order and `bricks` holds the claimed
/// bricks. `bricks` reserves room for every brick of the grid in one
/// block, so claiming never reallocates and only claimed bricks are ever
/// written. The merge zeroes every brick it reads and unmaps it, so the
/// claimed bricks are reused by the next call.
struct SpreadScratch {
  std::vector<std::int32_t> slot_of;
  std::vector<std::size_t> keys;
  std::vector<Brick> bricks;

  void prepare(std::size_t nkeys) {
    if (slot_of.size() < nkeys) slot_of.resize(nkeys, -1);
    bricks.reserve(nkeys);
  }
  Brick& brick(std::size_t key) {
    const std::int32_t k = slot_of[key];
    return k >= 0 ? bricks[static_cast<std::size_t>(k)] : claim(key);
  }
  Brick& claim(std::size_t key) {
    if (keys.size() == bricks.size()) bricks.emplace_back();
    slot_of[key] = static_cast<std::int32_t>(keys.size());
    keys.push_back(key);
    return bricks[keys.size() - 1];
  }
  bool touched(std::size_t key) const {
    return key < slot_of.size() && slot_of[key] >= 0;
  }
  Vec3& at(std::size_t key, std::size_t o) {
    return bricks[static_cast<std::size_t>(slot_of[key])][o];
  }
};

/// Below this many vertices the per-worker accumulator merge costs more
/// than the scatter saves; fall through to the serial reference.
constexpr std::size_t kParallelSpreadMinVertices = 512;

}  // namespace

void interpolate_velocities(const lbm::Lattice& lat,
                            const std::vector<Vec3>& positions,
                            std::vector<Vec3>& velocities,
                            DeltaKernel kernel) {
  OBS_SPAN("ibm", "interpolate_velocities");
  velocities.resize(positions.size());
  exec::parallel_for(positions.size(), [&](std::size_t vi) {
    Vec3 u{};
    for_stencil(lat, build_support(lat, positions[vi], kernel),
                [&](int x, int y, int z, double w) {
                  u += lat.velocity_at(lat.storage_addr(x, y, z)) * w;
                });
    velocities[vi] = u;
  });
}

void spread_forces_serial(lbm::Lattice& lat,
                          const std::vector<Vec3>& positions,
                          const std::vector<Vec3>& forces,
                          DeltaKernel kernel) {
  for (std::size_t vi = 0; vi < positions.size(); ++vi) {
    const Vec3 g = forces[vi];
    for_stencil(lat, build_support(lat, positions[vi], kernel),
                [&](int x, int y, int z, double w) {
                  const std::size_t a = lat.storage_addr(x, y, z);
                  if (receives_force(lat.type_at(a))) {
                    lat.add_force_at(a, g * w);
                  }
                });
  }
}

void spread_forces(lbm::Lattice& lat, const std::vector<Vec3>& positions,
                   const std::vector<Vec3>& forces, DeltaKernel kernel) {
  OBS_SPAN("ibm", "spread_forces");
  const std::size_t nv = positions.size();
  if (!exec::threaded() || exec::num_workers() == 1 ||
      nv < kParallelSpreadMinVertices) {
    spread_forces_serial(lat, positions, forces, kernel);
    return;
  }

  // Scatter into per-worker brick accumulators, then merge per node in a
  // deterministic order (ascending worker slot). Workers accumulate at
  // every in-lattice stencil node; the merge drops the sums at Wall and
  // Exterior nodes, which leaves each receiving node's summation sequence
  // exactly that of a type-filtered scatter. For a fixed worker count
  // results are bit-for-bit reproducible; across worker counts only the
  // per-node summation order changes (rounding-level differences vs the
  // serial reference; see tests/test_ibm.cpp).
  const BrickGrid grid(lat);
  // The pool belongs to the calling thread; workers reach it through the
  // captured pointer (a thread_local named directly inside the lambda
  // would resolve to each worker's own, unrelated instance).
  static thread_local exec::WorkerLocal<SpreadScratch> scratch_tls;
  static thread_local std::vector<std::size_t> merge_keys;
  scratch_tls.prepare();
  exec::WorkerLocal<SpreadScratch>* const pool = &scratch_tls;
  const std::size_t nw = pool->size();

  exec::parallel_for_chunks(nv, [&, pool](std::size_t b, std::size_t e,
                                          int w) {
    SpreadScratch& s = (*pool)[static_cast<std::size_t>(w)];
    s.prepare(grid.size());
    for (std::size_t vi = b; vi < e; ++vi) {
      const Vec3 g = forces[vi];
      for_stencil(lat, build_support(lat, positions[vi], kernel),
                  [&](int x, int y, int z, double wt) {
                    Vec3& d = s.brick(grid.key(x, y, z))[grid.offset(x, y, z)];
                    // Form g * wt only once the slot is resolved, so the
                    // multiply and the add stay one expression, as in the
                    // serial path (the compiler may fuse them).
                    d += g * wt;
                  });
    }
  });

  // Every brick some worker touched, listed once.
  const auto touched = [pool](std::size_t w, std::size_t key) {
    return (*pool)[w].touched(key);
  };
  merge_keys.clear();
  for (std::size_t w = 0; w < nw; ++w) {
    for (const std::size_t key : (*pool)[w].keys) {
      bool first = true;
      for (std::size_t v = 0; v < w && first; ++v) first = !touched(v, key);
      if (first) merge_keys.push_back(key);
    }
  }

  // Each receiving node sums the workers' deltas in ascending worker slot.
  const std::size_t* const keys = merge_keys.data();
  exec::parallel_for(merge_keys.size(), [&, pool, keys](std::size_t k) {
    const std::size_t key = keys[k];
    for (std::size_t o = 0; o < kBrickNodes; ++o) {
      Vec3 sum{};
      for (std::size_t w = 0; w < nw; ++w) {
        if (!touched(w, key)) continue;
        Vec3& d = (*pool)[w].at(key, o);
        sum += d;
        d = Vec3{};
      }
      if (sum.x == 0.0 && sum.y == 0.0 && sum.z == 0.0) continue;
      // A nonzero sum means some vertex touched the node, so it lies
      // inside the lattice (a brick may overhang the box).
      int x, y, z;
      grid.node(key, o, x, y, z);
      const std::size_t a = lat.storage_addr(x, y, z);
      if (receives_force(lat.type_at(a))) lat.add_force_at(a, sum);
    }
  });

  for (SpreadScratch& s : *pool) {
    for (const std::size_t key : s.keys) s.slot_of[key] = -1;
    s.keys.clear();
  }
}

void update_positions(const lbm::Lattice& lat, std::vector<Vec3>& positions,
                      const std::vector<Vec3>& lattice_velocities) {
  const double dx = lat.dx();
  exec::parallel_for(positions.size(), [&](std::size_t vi) {
    positions[vi] += lattice_velocities[vi] * dx;
  });
}

double kernel_weight_sum(const lbm::Lattice& lat, const Vec3& position,
                         DeltaKernel kernel) {
  double sum = 0.0;
  for_stencil(lat, build_support(lat, position, kernel),
              [&](int, int, int, double w) { sum += w; });
  return sum;
}

}  // namespace apr::ibm
