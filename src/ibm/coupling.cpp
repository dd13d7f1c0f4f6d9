#include "src/ibm/coupling.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include <sys/mman.h>

#include "src/exec/exec.hpp"
#include "src/obs/trace.hpp"

namespace apr::ibm {

namespace detail {

void* map_pages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) { munmap(p, bytes); }

}  // namespace detail

namespace {

Stencil make_stencil(const lbm::Lattice& lat, const Vec3& p,
                     DeltaKernel kernel) {
  const Vec3 lc = lat.to_lattice(p);
  Stencil s{};
  for (int a = 0; a < 3; ++a) {
    s.count[a] = static_cast<std::uint8_t>(
        delta_weights(kernel, lc[a], &s.first[a], s.w[a]));
  }
  return s;
}

/// Visit the in-lattice rows of a stencil in (kz, ky) order as
/// fn(y, z, wyz, kx_begin, kx_end): [kx_begin, kx_end) are the in-lattice
/// x offsets and wyz = w[1][ky] * w[2][kz]. Every kernel steps kx upward
/// with node weight w[0][kx] * wyz, the order and products of a dense
/// idx() loop, which keeps results bit-identical to it (pinned by
/// tests/test_ibm.cpp).
template <class Fn>
void for_rows(const lbm::Lattice& lat, const Stencil& s, Fn&& fn) {
  const int kx0 = std::max(0, -s.first[0]);
  const int kx1 = std::min(static_cast<int>(s.count[0]),
                           lat.nx() - s.first[0]);
  if (kx0 >= kx1) return;
  for (int kz = 0; kz < s.count[2]; ++kz) {
    const int z = s.first[2] + kz;
    if (z < 0 || z >= lat.nz()) continue;
    for (int ky = 0; ky < s.count[1]; ++ky) {
      const int y = s.first[1] + ky;
      if (y < 0 || y >= lat.ny()) continue;
      fn(y, z, s.w[1][ky] * s.w[2][kz], kx0, kx1);
    }
  }
}

/// Visit the in-lattice stencil nodes as fn(storage address, weight).
/// Storage addresses run consecutively along x inside a tile, so a row
/// resolves its address through the block directory at its first node and
/// where it crosses into the next tile, and steps by one in between.
template <class Fn>
void for_stencil_addrs(const lbm::Lattice& lat, const Stencil& s, Fn&& fn) {
  for_rows(lat, s, [&](int y, int z, double wyz, int kx0, int kx1) {
    std::size_t a = 0;
    for (int kx = kx0; kx < kx1; ++kx) {
      const int x = s.first[0] + kx;
      a = kx == kx0 || (x & (lbm::Lattice::kTileSide - 1)) == 0
              ? lat.storage_addr(x, y, z)
              : a + 1;
      fn(a, s.w[0][kx] * wyz);
    }
  });
}

Vec3 gather(const lbm::Lattice& lat, const Stencil& s) {
  Vec3 u{};
  for_stencil_addrs(lat, s, [&](std::size_t a, double w) {
    u += lat.velocity_at(a) * w;
  });
  return u;
}

std::size_t total_size(auto blocks) {
  std::size_t n = 0;
  for (const auto& b : blocks) n += b.size();
  return n;
}

/// Split the vertices [b, e) of `blocks` at block boundaries and call
/// fn(v, part) for each piece: part[i] is the value of vertex v + i.
template <class T, class Fn>
void for_block_parts(Blocks<T> blocks, std::size_t b, std::size_t e,
                     Fn&& fn) {
  std::size_t base = 0;
  for (const std::span<T>& blk : blocks) {
    const std::size_t end = base + blk.size();
    const std::size_t lo = std::max(b, base), hi = std::min(e, end);
    if (lo < hi) fn(lo, blk.subspan(lo - base, hi - lo));
    if (end >= e) return;
    base = end;
  }
}

void check_sizes(const StencilRecord& stencils, auto blocks,
                 const char* what) {
  if (total_size(blocks) != stencils.size()) {
    throw std::invalid_argument(std::string(what) +
                                ": vertex count differs from the stencils");
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

void StencilRecord::build(const lbm::Lattice& lat,
                          Blocks<const Vec3> positions, DeltaKernel kernel) {
  OBS_SPAN("ibm", "build_stencils");
  const std::size_t n = total_size(positions);
  stencils_.resize(n);
  positions_.clear();
  for (const std::span<const Vec3>& blk : positions) {
    positions_.insert(positions_.end(), blk.begin(), blk.end());
  }
  origin_ = lat.origin();
  dx_ = lat.dx();
  kernel_ = kernel;
  built_ = true;
  Stencil* const out = stencils_.data();
  const Vec3* const at = positions_.data();
  exec::parallel_for(n, [&, out, at](std::size_t v) {
    out[v] = make_stencil(lat, at[v], kernel);
  });
}

bool StencilRecord::matches(const lbm::Lattice& lat,
                            Blocks<const Vec3> positions,
                            DeltaKernel kernel) const {
  const auto same = [](const void* a, const void* b, std::size_t bytes) {
    return std::memcmp(a, b, bytes) == 0;
  };
  const double dx = lat.dx();
  if (!built_ || kernel != kernel_ ||
      !same(&lat.origin(), &origin_, sizeof(Vec3)) ||
      !same(&dx, &dx_, sizeof(double)) ||
      total_size(positions) != positions_.size()) {
    return false;
  }
  const Vec3* at = positions_.data();
  for (const std::span<const Vec3>& blk : positions) {
    if (!blk.empty() && !same(blk.data(), at, blk.size_bytes())) {
      return false;
    }
    at += blk.size();
  }
  return true;
}

void interpolate_velocities(const lbm::Lattice& lat,
                            const StencilRecord& stencils,
                            Blocks<Vec3> velocities) {
  OBS_SPAN("ibm", "interpolate_velocities");
  check_sizes(stencils, velocities, "interpolate_velocities");
  exec::parallel_for_chunks(
      stencils.size(), [&](std::size_t b, std::size_t e, int) {
        for_block_parts(velocities, b, e, [&](std::size_t v,
                                              std::span<Vec3> u) {
          for (std::size_t i = 0; i < u.size(); ++i) {
            u[i] = gather(lat, stencils[v + i]);
          }
        });
      });
}

void spread_forces_serial(lbm::Lattice& lat, const StencilRecord& stencils,
                          Blocks<const Vec3> forces, double scale) {
  check_sizes(stencils, forces, "spread_forces_serial");
  for_block_parts(forces, 0, stencils.size(),
                  [&](std::size_t v, std::span<const Vec3> f) {
                    for (std::size_t i = 0; i < f.size(); ++i) {
                      const Vec3 g = f[i] * scale;
                      for_stencil_addrs(
                          lat, stencils[v + i], [&](std::size_t a, double w) {
                            if (receives_force(lat.type_at(a))) {
                              lat.add_force_at(a, g * w);
                            }
                          });
                    }
                  });
}

void spread_forces(lbm::Lattice& lat, const StencilRecord& stencils,
                   Blocks<const Vec3> forces, double scale) {
  OBS_SPAN("ibm", "spread_forces");
  const std::size_t nv = stencils.size();
  if (!exec::threaded() || exec::num_workers() == 1 ||
      nv < kParallelSpreadMinVertices) {
    spread_forces_serial(lat, stencils, forces, scale);
    return;
  }
  check_sizes(stencils, forces, "spread_forces");

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
    for_block_parts(forces, b, e, [&](std::size_t v,
                                      std::span<const Vec3> f) {
      for (std::size_t i = 0; i < f.size(); ++i) {
        const Vec3 g = f[i] * scale;
        const Stencil& st = stencils[v + i];
        // A row crosses into the next brick where x is a multiple of 4;
        // in between, its accumulator slots are consecutive.
        for_rows(lat, st, [&](int y, int z, double wyz, int kx0, int kx1) {
          Vec3* d = nullptr;
          for (int kx = kx0; kx < kx1; ++kx) {
            const int x = st.first[0] + kx;
            d = kx == kx0 || (x & kBrickMask) == 0
                    ? &s.brick(grid.key(x, y, z))[grid.offset(x, y, z)]
                    : d + 1;
            *d += g * (st.w[0][kx] * wyz);
          }
        });
      }
    });
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

namespace {

StencilRecord record_of(const lbm::Lattice& lat,
                        const std::vector<Vec3>& positions,
                        DeltaKernel kernel) {
  StencilRecord r;
  const std::span<const Vec3> x(positions);
  r.build(lat, {&x, 1}, kernel);
  return r;
}

}  // namespace

void interpolate_velocities(const lbm::Lattice& lat,
                            const std::vector<Vec3>& positions,
                            std::vector<Vec3>& velocities,
                            DeltaKernel kernel) {
  velocities.resize(positions.size());
  const std::span<Vec3> u(velocities);
  interpolate_velocities(lat, record_of(lat, positions, kernel), {&u, 1});
}

void spread_forces(lbm::Lattice& lat, const std::vector<Vec3>& positions,
                   const std::vector<Vec3>& forces, DeltaKernel kernel) {
  const std::span<const Vec3> f(forces);
  spread_forces(lat, record_of(lat, positions, kernel), {&f, 1});
}

void spread_forces_serial(lbm::Lattice& lat,
                          const std::vector<Vec3>& positions,
                          const std::vector<Vec3>& forces,
                          DeltaKernel kernel) {
  const std::span<const Vec3> f(forces);
  spread_forces_serial(lat, record_of(lat, positions, kernel), {&f, 1});
}

double kernel_weight_sum(const lbm::Lattice& lat, const Vec3& position,
                         DeltaKernel kernel) {
  double sum = 0.0;
  for_stencil_addrs(lat, make_stencil(lat, position, kernel),
                    [&](std::size_t, double w) { sum += w; });
  return sum;
}

}  // namespace apr::ibm
