#include "src/lbm/lattice.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "src/exec/exec.hpp"
#include "src/obs/trace.hpp"

namespace apr::lbm {

namespace {

inline bool vec_zero(const Vec3& v) {
  return v.x == 0.0 && v.y == 0.0 && v.z == 0.0;
}

/// ceil(2^64 / d) for d >= 2; mulhi(magic, x) == x / d for all x < 2^32.
inline std::uint64_t div_magic(std::uint32_t d) {
  return ~std::uint64_t{0} / d + 1;
}

inline std::uint64_t mulhi(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) >> 64);
}

}  // namespace

Lattice::Lattice(int nx, int ny, int nz, const Vec3& origin, double dx,
                 double tau)
    : nx_(nx),
      ny_(ny),
      nz_(nz),
      n_(static_cast<std::size_t>(nx) * ny * nz),
      origin_(origin),
      dx_(dx),
      default_tau_(tau) {
  if (nx < 1 || ny < 1 || nz < 1) {
    throw std::invalid_argument("Lattice: dimensions must be positive");
  }
  if (dx <= 0.0) throw std::invalid_argument("Lattice: dx must be > 0");
  if (tau <= 0.5) throw std::invalid_argument("Lattice: tau must exceed 1/2");

  tbx_ = (nx + kTileSide - 1) >> kTileShift;
  tby_ = (ny + kTileSide - 1) >> kTileShift;
  tbz_ = (nz + kTileSide - 1) >> kTileShift;
  nblocks_ = static_cast<std::size_t>(tbx_) * tby_ * tbz_;

  const std::size_t plane = static_cast<std::size_t>(nx_) * ny_;
  fastdiv_ = n_ < (std::uint64_t{1} << 32) && nx_ > 1 && plane > 1;
  if (fastdiv_) {
    magic_nx_ = div_magic(static_cast<std::uint32_t>(nx_));
    magic_plane_ = div_magic(static_cast<std::uint32_t>(plane));
  }

  // Slot 0 is the shared exterior tile; a fresh lattice is all-Fluid, so
  // every block starts resident with its own slot.
  const std::size_t slots = 1 + nblocks_;
  f_.assign(slots * kQ * kTileNodes, 0.0);
  ftmp_.assign(slots * kQ * kTileNodes, 0.0);
  type_.assign(slots * kTileNodes, NodeType::Exterior);
  tau_.assign(slots * kTileNodes, tau);
  ubc_.assign(slots * kTileNodes, Vec3{});
  force_.assign(slots * kTileNodes, Vec3{});
  rho_.assign(slots * kTileNodes, 1.0);
  u_.assign(slots * kTileNodes, Vec3{});

  dir_.assign(nblocks_, 0);
  slot_block_.assign(slots, -1);
  nonext_.assign(slots, 0);
  resident_.reserve(nblocks_);
  for (std::size_t b = 0; b < nblocks_; ++b) {
    const std::int32_t s = static_cast<std::int32_t>(b + 1);
    dir_[b] = s;
    slot_block_[s] = static_cast<std::int32_t>(b);
    resident_.push_back(static_cast<std::int32_t>(b));
    int bx, by, bz;
    block_coords(b, bx, by, bz);
    const int vx = std::min(kTileSide, nx_ - (bx << kTileShift));
    const int vy = std::min(kTileSide, ny_ - (by << kTileShift));
    const int vz = std::min(kTileSide, nz_ - (bz << kTileShift));
    NodeType* t = type_.data() + static_cast<std::size_t>(s) * kTileNodes;
    for (int lz = 0; lz < vz; ++lz) {
      for (int ly = 0; ly < vy; ++ly) {
        for (int lx = 0; lx < vx; ++lx) {
          t[cell_of(lx, ly, lz)] = NodeType::Fluid;
        }
      }
    }
    nonext_[s] = vx * vy * vz;
  }
}

void Lattice::decompose(std::size_t i, int& x, int& y, int& z) const {
  if (fastdiv_) {
    const std::uint64_t zq = mulhi(magic_plane_, i);
    const std::uint64_t r =
        i - zq * (static_cast<std::uint64_t>(nx_) * ny_);
    const std::uint64_t yq = mulhi(magic_nx_, r);
    x = static_cast<int>(r - yq * static_cast<std::uint64_t>(nx_));
    y = static_cast<int>(yq);
    z = static_cast<int>(zq);
    return;
  }
  const std::size_t plane = static_cast<std::size_t>(nx_) * ny_;
  z = static_cast<int>(i / plane);
  const std::size_t r = i - static_cast<std::size_t>(z) * plane;
  y = static_cast<int>(r / static_cast<std::size_t>(nx_));
  x = static_cast<int>(r - static_cast<std::size_t>(y) * nx_);
}

Aabb Lattice::bounds() const {
  return {origin_, position(nx_ - 1, ny_ - 1, nz_ - 1)};
}

// --- tile lifecycle --------------------------------------------------------

void Lattice::reset_slot(std::int32_t s) {
  const std::size_t o = static_cast<std::size_t>(s) * kTileNodes;
  const std::size_t fo = static_cast<std::size_t>(s) * kQ * kTileNodes;
  std::fill(f_.begin() + fo, f_.begin() + fo + kQ * kTileNodes, 0.0);
  std::fill(ftmp_.begin() + fo, ftmp_.begin() + fo + kQ * kTileNodes, 0.0);
  std::fill(type_.begin() + o, type_.begin() + o + kTileNodes,
            NodeType::Exterior);
  std::fill(tau_.begin() + o, tau_.begin() + o + kTileNodes, default_tau_);
  std::fill(ubc_.begin() + o, ubc_.begin() + o + kTileNodes, Vec3{});
  std::fill(force_.begin() + o, force_.begin() + o + kTileNodes, body_force_);
  std::fill(rho_.begin() + o, rho_.begin() + o + kTileNodes, 1.0);
  std::fill(u_.begin() + o, u_.begin() + o + kTileNodes, Vec3{});
}

std::int32_t Lattice::add_slots(std::size_t n) {
  const std::size_t first = slot_block_.size();
  const std::size_t slots = first + n;
  f_.resize(slots * kQ * kTileNodes, 0.0);
  ftmp_.resize(slots * kQ * kTileNodes, 0.0);
  type_.resize(slots * kTileNodes, NodeType::Exterior);
  tau_.resize(slots * kTileNodes, default_tau_);
  ubc_.resize(slots * kTileNodes, Vec3{});
  force_.resize(slots * kTileNodes, body_force_);
  rho_.resize(slots * kTileNodes, 1.0);
  u_.resize(slots * kTileNodes, Vec3{});
  slot_block_.resize(slots, -1);
  nonext_.resize(slots, 0);
  return static_cast<std::int32_t>(first);
}

std::int32_t Lattice::materialize(std::size_t b) {
  std::int32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
    reset_slot(s);
  } else {
    s = add_slots(1);
  }
  dir_[b] = s;
  slot_block_[s] = static_cast<std::int32_t>(b);
  nonext_[s] = 0;
  const auto it = std::lower_bound(resident_.begin(), resident_.end(),
                                   static_cast<std::int32_t>(b));
  resident_.insert(it, static_cast<std::int32_t>(b));
  plan_dirty_ = true;
  return s;
}

void Lattice::release(std::size_t b) {
  const std::int32_t s = dir_[b];
  dir_[b] = 0;
  slot_block_[s] = -1;
  nonext_[s] = 0;
  free_slots_.push_back(s);
  const auto it = std::lower_bound(resident_.begin(), resident_.end(),
                                   static_cast<std::int32_t>(b));
  resident_.erase(it);
  plan_dirty_ = true;
}

bool Lattice::tile_holds_defaults(std::int32_t s) const {
  const std::size_t o = static_cast<std::size_t>(s) * kTileNodes;
  for (std::size_t c = 0; c < kTileNodes; ++c) {
    if (tau_[o + c] != default_tau_) return false;
    if (!vec_zero(ubc_[o + c])) return false;
    if (rho_[o + c] != 1.0) return false;
    if (!vec_zero(u_[o + c])) return false;
  }
  return true;
}

void Lattice::materialize_all() {
  for (std::size_t b = 0; b < nblocks_; ++b) {
    if (dir_[b] == 0) materialize(b);
  }
}

void Lattice::shrink_to_fit() {
  const std::size_t slots = 1 + resident_.size();
  std::vector<double> nf(slots * kQ * kTileNodes, 0.0);
  std::vector<double> nftmp(slots * kQ * kTileNodes, 0.0);
  std::vector<NodeType> ntype(slots * kTileNodes, NodeType::Exterior);
  std::vector<double> ntau(slots * kTileNodes, default_tau_);
  std::vector<Vec3> nubc(slots * kTileNodes, Vec3{});
  std::vector<Vec3> nforce(slots * kTileNodes, body_force_);
  std::vector<double> nrho(slots * kTileNodes, 1.0);
  std::vector<Vec3> nu(slots * kTileNodes, Vec3{});
  std::vector<std::int32_t> ndir(nblocks_, 0);
  std::vector<std::int32_t> nslot_block(slots, -1);
  std::vector<std::int32_t> nnonext(slots, 0);

  std::int32_t next = 1;
  for (const std::int32_t b : resident_) {
    const std::int32_t os = dir_[static_cast<std::size_t>(b)];
    const std::int32_t s = next++;
    const std::size_t oo = static_cast<std::size_t>(os) * kTileNodes;
    const std::size_t no = static_cast<std::size_t>(s) * kTileNodes;
    const std::size_t ofo = static_cast<std::size_t>(os) * kQ * kTileNodes;
    const std::size_t nfo = static_cast<std::size_t>(s) * kQ * kTileNodes;
    std::copy_n(f_.begin() + ofo, kQ * kTileNodes, nf.begin() + nfo);
    std::copy_n(ftmp_.begin() + ofo, kQ * kTileNodes, nftmp.begin() + nfo);
    std::copy_n(type_.begin() + oo, kTileNodes, ntype.begin() + no);
    std::copy_n(tau_.begin() + oo, kTileNodes, ntau.begin() + no);
    std::copy_n(ubc_.begin() + oo, kTileNodes, nubc.begin() + no);
    std::copy_n(force_.begin() + oo, kTileNodes, nforce.begin() + no);
    std::copy_n(rho_.begin() + oo, kTileNodes, nrho.begin() + no);
    std::copy_n(u_.begin() + oo, kTileNodes, nu.begin() + no);
    ndir[static_cast<std::size_t>(b)] = s;
    nslot_block[s] = b;
    nnonext[s] = nonext_[os];
  }
  f_ = std::move(nf);
  ftmp_ = std::move(nftmp);
  type_ = std::move(ntype);
  tau_ = std::move(ntau);
  ubc_ = std::move(nubc);
  force_ = std::move(nforce);
  rho_ = std::move(nrho);
  u_ = std::move(nu);
  dir_ = std::move(ndir);
  slot_block_ = std::move(nslot_block);
  nonext_ = std::move(nnonext);
  free_slots_.clear();
  free_slots_.shrink_to_fit();
  plan_dirty_ = true;
}

std::size_t Lattice::tiled_bytes() const {
  const std::size_t slots = slot_block_.size();
  return slots * kTileNodes * kNodeBytes +
         dir_.size() * sizeof(std::int32_t) +
         slots * (27 + 2) * sizeof(std::int32_t) +
         resident_.size() * sizeof(std::int32_t);
}

std::size_t Lattice::dense_bytes() const { return n_ * kNodeBytes; }

// --- per-node mutators -----------------------------------------------------

void Lattice::set_type(int x, int y, int z, NodeType t) {
  plan_dirty_ = true;
  const std::size_t b = block_index(x, y, z);
  std::int32_t s = dir_[b];
  if (s == 0) {
    if (t == NodeType::Exterior) return;
    s = materialize(b);
  }
  const std::size_t a =
      static_cast<std::size_t>(s) * kTileNodes +
      cell_of(x & (kTileSide - 1), y & (kTileSide - 1), z & (kTileSide - 1));
  const NodeType old = type_[a];
  if (old == t) return;
  type_[a] = t;
  if (old == NodeType::Exterior) {
    ++nonext_[s];
  } else if (t == NodeType::Exterior) {
    if (--nonext_[s] == 0 && auto_release_ && tile_holds_defaults(s)) {
      release(b);
    }
  }
}

void Lattice::set_tau(std::size_t i, double tau) {
  const std::size_t a = addr(i);
  if (a < kTileNodes) {
    if (tau == default_tau_) return;
    tau_[ensure(i)] = tau;
    return;
  }
  tau_[a] = tau;
}

void Lattice::set_uniform_tau(double tau) {
  default_tau_ = tau;
  std::fill(tau_.begin(), tau_.end(), tau);
}

void Lattice::set_default_tau(double tau) {
  default_tau_ = tau;
  // The shared exterior tile must keep serving the new baseline.
  std::fill(tau_.begin(), tau_.begin() + kTileNodes, tau);
}

void Lattice::set_boundary_velocity(std::size_t i, const Vec3& u) {
  const bool nonzero = !vec_zero(u);
  const std::size_t a = addr(i);
  if (a < kTileNodes) {
    if (!nonzero) return;
    ubc_[ensure(i)] = u;
  } else {
    ubc_[a] = u;
  }
  if (nonzero) ubc_nonzero_ = true;
}

void Lattice::set_f(int q, std::size_t i, double v) {
  const std::size_t a = addr(i);
  if (a < kTileNodes) {
    if (v == 0.0) return;
    f_[faddr(ensure(i), q)] = v;
    return;
  }
  f_[faddr(a, q)] = v;
}

void Lattice::set_rho(std::size_t i, double rho) {
  const std::size_t a = addr(i);
  if (a < kTileNodes) {
    if (rho == 1.0) return;
    rho_[ensure(i)] = rho;
    return;
  }
  rho_[a] = rho;
}

void Lattice::set_velocity(std::size_t i, const Vec3& u) {
  const std::size_t a = addr(i);
  if (a < kTileNodes) {
    if (vec_zero(u)) return;
    u_[ensure(i)] = u;
    return;
  }
  u_[a] = u;
}

std::array<double, kQ> Lattice::f_node(std::size_t i) const {
  const std::size_t a = addr(i);
  std::array<double, kQ> out;
  for (int q = 0; q < kQ; ++q) out[q] = f_[faddr(a, q)];
  return out;
}

void Lattice::set_f_node(std::size_t i, const std::array<double, kQ>& f) {
  std::size_t a = addr(i);
  if (a < kTileNodes) {
    bool zero = true;
    for (int q = 0; q < kQ && zero; ++q) zero = f[q] == 0.0;
    if (zero) return;
    a = ensure(i);
  }
  for (int q = 0; q < kQ; ++q) f_[faddr(a, q)] = f[q];
}

void Lattice::init_equilibrium(double rho, const Vec3& u) {
  std::array<double, kQ> feq;
  equilibria(rho, u, feq);
  for (std::size_t t = 0; t < resident_.size(); ++t) {
    const std::size_t o =
        static_cast<std::size_t>(tile_slot(t)) * kTileNodes;
    for (std::size_t c = 0; c < kTileNodes; ++c) {
      if (type_[o + c] == NodeType::Exterior) continue;
      const std::size_t a = o + c;
      for (int q = 0; q < kQ; ++q) f_[faddr(a, q)] = feq[q];
      rho_[a] = rho;
      u_[a] = u;
    }
  }
}

void Lattice::init_node_equilibrium(std::size_t i, double rho, const Vec3& u) {
  const std::size_t a = ensure(i);
  std::array<double, kQ> feq;
  equilibria(rho, u, feq);
  for (int q = 0; q < kQ; ++q) f_[faddr(a, q)] = feq[q];
  rho_[a] = rho;
  u_[a] = u;
}

void Lattice::reset_node(std::size_t i) {
  const std::size_t a = addr(i);
  if (a < kTileNodes) return;  // vacant nodes already hold the reset state
  for (int q = 0; q < kQ; ++q) f_[faddr(a, q)] = 0.0;
  ubc_[a] = Vec3{};
  force_[a] = body_force_;
  rho_[a] = 1.0;
  u_[a] = Vec3{};
}

// --- shift -----------------------------------------------------------------

std::size_t Lattice::shift(int sx, int sy, int sz) {
  if (std::abs(sx) >= nx_ || std::abs(sy) >= ny_ || std::abs(sz) >= nz_) {
    return 0;
  }
  if (sx == 0 && sy == 0 && sz == 0) return n_;

  // Destination overlap box per axis: [max(0,-s), min(n, n-s)).
  const int bx0 = std::max(0, -sx), bx1 = std::min(nx_, nx_ - sx);
  const int by0 = std::max(0, -sy), by1 = std::min(ny_, ny_ - sy);
  const int bz0 = std::max(0, -sz), bz1 = std::min(nz_, nz_ - sz);

  // Pass 1: a destination block needs a tile if it was resident (its
  // in-place tau/force/rho survive) or if any source block covering its
  // portion of the overlap box is resident (moved-in state may be
  // non-Exterior). Over-allocation is corrected after filling: tiles
  // whose moved-in content turns out to be all-default are dropped.
  std::vector<std::uint8_t> need(nblocks_, 0);
  for (const std::int32_t b : resident_) need[static_cast<std::size_t>(b)] = 1;
  for (std::size_t b = 0; b < nblocks_; ++b) {
    if (need[b]) continue;
    int bx, by, bz;
    block_coords(b, bx, by, bz);
    const int x0 = std::max(bx0, bx << kTileShift);
    const int x1 = std::min({bx1, (bx + 1) << kTileShift, nx_});
    const int y0 = std::max(by0, by << kTileShift);
    const int y1 = std::min({by1, (by + 1) << kTileShift, ny_});
    const int z0 = std::max(bz0, bz << kTileShift);
    const int z1 = std::min({bz1, (bz + 1) << kTileShift, nz_});
    if (x0 >= x1 || y0 >= y1 || z0 >= z1) continue;
    const int sbx0 = (x0 + sx) >> kTileShift, sbx1 = (x1 - 1 + sx) >> kTileShift;
    const int sby0 = (y0 + sy) >> kTileShift, sby1 = (y1 - 1 + sy) >> kTileShift;
    const int sbz0 = (z0 + sz) >> kTileShift, sbz1 = (z1 - 1 + sz) >> kTileShift;
    for (int jz = sbz0; jz <= sbz1 && !need[b]; ++jz) {
      for (int jy = sby0; jy <= sby1 && !need[b]; ++jy) {
        for (int jx = sbx0; jx <= sbx1; ++jx) {
          const std::size_t sb =
              (static_cast<std::size_t>(jz) * tby_ + jy) * tbx_ + jx;
          if (dir_[sb] != 0) {
            need[b] = 1;
            break;
          }
        }
      }
    }
  }

  // Destination tiles: every needed block, in ascending block order. A
  // resident block keeps its slot; a block the carried state newly lands
  // in takes a free slot (reset to the vacant defaults), and the pools
  // grow once by the whole shortfall.
  struct Dest {
    std::int32_t block;
    std::int32_t slot;
    bool reset;  ///< a reused free slot, still holding stale state
  };
  std::vector<Dest> dst;
  std::size_t landing = 0;
  for (std::size_t b = 0; b < nblocks_; ++b) {
    landing += need[b] && dir_[b] == 0;
  }
  std::int32_t grown = 0;
  if (landing > free_slots_.size()) {
    grown = add_slots(landing - free_slots_.size());
  }
  for (std::size_t b = 0; b < nblocks_; ++b) {
    if (!need[b]) continue;
    const auto block = static_cast<std::int32_t>(b);
    if (dir_[b] != 0) {
      dst.push_back({block, dir_[b], false});
    } else if (!free_slots_.empty()) {
      dst.push_back({block, free_slots_.back(), true});
      free_slots_.pop_back();
    } else {
      dst.push_back({block, grown++, false});
    }
  }

  // Every destination tile gathers its nodes, in parallel over tiles; each
  // writes only its own slot. Inside the overlap box a node takes
  // f/type/u/ubc from its source node and keeps tau/force/rho in place;
  // outside the box everything keeps its old same-node value (unspecified
  // by the contract -- the caller re-initializes the exposed slabs).
  // Sources resolve through the old directory, so a vacant source block
  // reads the shared exterior tile. A tile row splits into at most four
  // runs whose sources are consecutive cells of one source slot:
  // same-node cells, the moved span cut at a source tile seam, same-node
  // cells.
  struct Run {
    std::size_t dst;  ///< destination cell
    std::size_t src;  ///< source storage address
    int len;
    bool moved;
  };
  constexpr int kMaxRuns = 4 * kTileSide * kTileSide;
  const auto tile_runs = [&](const Dest& d, Run* runs) {
    int bx, by, bz;
    block_coords(static_cast<std::size_t>(d.block), bx, by, bz);
    const int X0 = bx << kTileShift;
    const int Y0 = by << kTileShift;
    const int Z0 = bz << kTileShift;
    const int vx = std::min(kTileSide, nx_ - X0);
    const int vy = std::min(kTileSide, ny_ - Y0);
    const int vz = std::min(kTileSide, nz_ - Z0);
    int nruns = 0;
    const auto add = [&](std::size_t c0, int y, int z, int l0, int l1,
                         bool moved) {
      const int ys = moved ? y + sy : y;
      const int zs = moved ? z + sz : z;
      for (int l = l0; l < l1;) {
        const int xs = X0 + l + (moved ? sx : 0);
        const int lxs = xs & (kTileSide - 1);
        const int len = std::min(l1 - l, kTileSide - lxs);
        const auto ss =
            static_cast<std::size_t>(dir_[block_index(xs, ys, zs)]);
        runs[nruns++] = {c0 + static_cast<std::size_t>(l),
                         ss * kTileNodes +
                             cell_of(lxs, ys & (kTileSide - 1),
                                     zs & (kTileSide - 1)),
                         len, moved};
        l += len;
      }
    };
    for (int lz = 0; lz < vz; ++lz) {
      for (int ly = 0; ly < vy; ++ly) {
        const std::size_t c0 = cell_of(0, ly, lz);
        const int y = Y0 + ly;
        const int z = Z0 + lz;
        int m0 = vx, m1 = vx;  // moved span [m0, m1) of the row
        if (y >= by0 && y < by1 && z >= bz0 && z < bz1) {
          m0 = std::clamp(bx0 - X0, 0, vx);
          m1 = std::clamp(bx1 - X0, m0, vx);
        }
        add(c0, y, z, 0, m0, false);
        add(c0, y, z, m0, m1, true);
        add(c0, y, z, m1, vx, false);
      }
    }
    return nruns;
  };

  // Phase 1: f is gathered into ftmp_, the streaming double buffer, and
  // the buffers are swapped at the end. A sweep writes every stream-source
  // slot of its target before the swap, and checkpoints and digests zero
  // f at the Wall/Exterior slots it never writes, so whatever ftmp_ holds
  // after the swap is dead. Cells outside the lattice box get the vacant
  // defaults in every field.
  exec::parallel_for(dst.size(), [&](std::size_t k) {
    const Dest& d = dst[k];
    if (d.reset) reset_slot(d.slot);
    const std::size_t o = static_cast<std::size_t>(d.slot) * kTileNodes;
    double* ft = ftmp_.data() + o * kQ;
    const auto pad = [&](std::size_t c) {
      type_[o + c] = NodeType::Exterior;
      tau_[o + c] = default_tau_;
      ubc_[o + c] = Vec3{};
      force_[o + c] = body_force_;
      rho_[o + c] = 1.0;
      u_[o + c] = Vec3{};
      for (int q = 0; q < kQ; ++q) {
        ft[static_cast<std::size_t>(q) * kTileNodes + c] = 0.0;
      }
    };
    int x0, y0, z0;
    block_coords(static_cast<std::size_t>(d.block), x0, y0, z0);
    const int vx = std::min(kTileSide, nx_ - (x0 << kTileShift));
    const int vy = std::min(kTileSide, ny_ - (y0 << kTileShift));
    const int vz = std::min(kTileSide, nz_ - (z0 << kTileShift));
    for (std::size_t c = 0; c < kTileNodes; ++c) {
      int lx, ly, lz;
      cell_coords(c, lx, ly, lz);
      if (lx >= vx || ly >= vy || lz >= vz) pad(c);
    }
    Run runs[kMaxRuns];
    const int nruns = tile_runs(d, runs);
    const double* f = f_.data();
    for (int q = 0; q < kQ; ++q) {
      double* ftq = ft + static_cast<std::size_t>(q) * kTileNodes;
      for (int r = 0; r < nruns; ++r) {
        std::memcpy(ftq + runs[r].dst, f + faddr(runs[r].src, q),
                    static_cast<std::size_t>(runs[r].len) * sizeof(double));
      }
    }
  });

  // Phase 2: type, u and ubc are overwritten in place, where a kept slot
  // is also another tile's source, so they are read from a snapshot of
  // the source slots (the shared exterior tile and the resident ones).
  // The snapshot lives in the old distributions, dead once phase 1 is
  // done: for source storage address a, u at double 3a, ubc at
  // 3(cells + a) and the type, as a small integral double, at 6 cells + a
  // -- 7 of the 19 doubles per cell, so a move allocates nothing. These
  // values become the stale Wall/Exterior slots of the next sweep's
  // target, so they must stay ordinary numbers (no denormal bit
  // patterns). ubc is zero everywhere until some prescribed velocity is
  // set nonzero.
  const bool move_ubc = ubc_nonzero_;
  const std::size_t cells = type_.size();
  double* const snap_u = f_.data();
  double* const snap_ubc = snap_u + 3 * cells;
  double* const snap_type = snap_ubc + 3 * cells;
  const auto put = [](double* snap, std::size_t a, const Vec3& v) {
    snap[3 * a] = v.x;
    snap[3 * a + 1] = v.y;
    snap[3 * a + 2] = v.z;
  };
  const auto get = [](const double* snap, std::size_t a) {
    return Vec3{snap[3 * a], snap[3 * a + 1], snap[3 * a + 2]};
  };
  exec::parallel_for(resident_.size() + 1, [&](std::size_t k) {
    const std::size_t o =
        k == 0 ? 0 : static_cast<std::size_t>(tile_slot(k - 1)) * kTileNodes;
    for (std::size_t c = o; c < o + kTileNodes; ++c) {
      put(snap_u, c, u_[c]);
      if (move_ubc) put(snap_ubc, c, ubc_[c]);
      snap_type[c] = static_cast<double>(static_cast<std::uint8_t>(type_[c]));
    }
  });

  // Phase 3: the moved runs take type/u/ubc from the snapshot; same-node
  // runs need no copy (a kept slot already holds them, and a landing
  // block's old same-node state is the vacant defaults its slot holds).
  // Each tile counts its non-Exterior nodes.
  std::vector<std::int32_t> cnt(dst.size(), 0);
  exec::parallel_for(dst.size(), [&](std::size_t k) {
    const Dest& d = dst[k];
    const std::size_t o = static_cast<std::size_t>(d.slot) * kTileNodes;
    Run runs[kMaxRuns];
    const int nruns = tile_runs(d, runs);
    for (int r = 0; r < nruns; ++r) {
      const Run& run = runs[r];
      if (!run.moved) continue;
      for (int i = 0; i < run.len; ++i) {
        const std::size_t a = o + run.dst + static_cast<std::size_t>(i);
        const std::size_t sa = run.src + static_cast<std::size_t>(i);
        u_[a] = get(snap_u, sa);
        if (move_ubc) ubc_[a] = get(snap_ubc, sa);
        type_[a] = static_cast<NodeType>(
            static_cast<std::uint8_t>(snap_type[sa]));
      }
    }
    cnt[k] = static_cast<std::int32_t>(
        std::count_if(type_.begin() + o, type_.begin() + o + kTileNodes,
                      [](NodeType t) { return t != NodeType::Exterior; }));
  });
  f_.swap(ftmp_);

  // Commit the directory in one serial pass, releasing the tiles that
  // came out all-default.
  resident_.clear();
  for (std::size_t k = 0; k < dst.size(); ++k) {
    const Dest& d = dst[k];
    const auto b = static_cast<std::size_t>(d.block);
    if (cnt[k] == 0 && auto_release_ && tile_holds_defaults(d.slot)) {
      dir_[b] = 0;
      slot_block_[d.slot] = -1;
      nonext_[d.slot] = 0;
      free_slots_.push_back(d.slot);
      continue;
    }
    dir_[b] = d.slot;
    slot_block_[d.slot] = d.block;
    nonext_[d.slot] = cnt[k];
    resident_.push_back(d.block);
  }
  plan_dirty_ = true;
  return static_cast<std::size_t>(nx_ - std::abs(sx)) *
         static_cast<std::size_t>(ny_ - std::abs(sy)) *
         static_cast<std::size_t>(nz_ - std::abs(sz));
}

// --- forces ----------------------------------------------------------------

void Lattice::set_body_force(const Vec3& f) {
  body_force_ = f;
  clear_forces();
}

void Lattice::clear_forces() {
  std::fill(force_.begin(), force_.end(), body_force_);
}

// --- macroscopic -----------------------------------------------------------

void Lattice::update_macroscopic() {
  update_macroscopic_region(0, nx_, 0, ny_, 0, nz_);
}

void Lattice::update_macroscopic_region(int x0, int x1, int y0, int y1,
                                        int z0, int z1) {
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  z0 = std::max(z0, 0);
  x1 = std::min(x1, nx_);
  y1 = std::min(y1, ny_);
  z1 = std::min(z1, nz_);
  if (x0 >= x1 || y0 >= y1 || z0 >= z1) return;
  if (segmented_) {
    // Segment fast path: iterate only the plan's live rows and store
    // without the per-lane type check on segment lanes (fast nodes are
    // Fluid by construction). Moment sums accumulate in the same
    // ascending-q order over the same x-run as the dense walk below, so
    // every stored value is bit-identical; lanes outside segments keep
    // the type check via the scalar mask.
    ensure_plan();
    exec::parallel_for(resident_.size(), [&](std::size_t t) {
      int tx0, ty0, tz0;
      tile_origin(t, tx0, ty0, tz0);
      const int ix0 = std::max(x0, tx0);
      const int ix1 = std::min(x1, tx0 + kTileSide);
      if (ix0 >= ix1) return;
      const std::size_t slot = static_cast<std::size_t>(tile_slot(t));
      const double* fs = f_.data() + slot * kQ * kTileNodes;
      const int l0 = ix0 - tx0;
      const int len = ix1 - ix0;
      const std::size_t rend = plan_.row_begin(t + 1);
      for (std::size_t r = plan_.row_begin(t); r < rend; ++r) {
        const SweepPlan::Row& row = plan_.row(r);
        const int y = ty0 + row.ly;
        const int z = tz0 + row.lz;
        if (y < y0 || y >= y1 || z < z0 || z >= z1) continue;
        const std::size_t c0 = cell_of(l0, row.ly, row.lz);
        const std::size_t a0 = slot * kTileNodes + c0;
        double rho[kTileSide], mx[kTileSide], my[kTileSide], mz[kTileSide];
        for (int k = 0; k < len; ++k) {
          rho[k] = 0.0;
          mx[k] = my[k] = mz[k] = 0.0;
        }
        for (int q = 0; q < kQ; ++q) {
          const double* __restrict fq =
              fs + static_cast<std::size_t>(q) * kTileNodes + c0;
          const double cx = kC[q][0];
          const double cy = kC[q][1];
          const double cz = kC[q][2];
#pragma omp simd
          for (int k = 0; k < len; ++k) {
            const double v = fq[k];
            rho[k] += v;
            mx[k] += cx * v;
            my[k] += cy * v;
            mz[k] += cz * v;
          }
        }
        const SweepPlan::Seg* sg = plan_.segs(row.seg_begin);
        for (int i = 0; i < row.nsegs; ++i) {
          const int s0 = std::max<int>(sg[i].lx0, l0);
          const int s1 = std::min<int>(sg[i].lx1, l0 + len);
          for (int lx = s0; lx < s1; ++lx) {
            const int k = lx - l0;
            const std::size_t a = a0 + static_cast<std::size_t>(k);
            rho_[a] = rho[k];
            u_[a] = (Vec3{mx[k], my[k], mz[k]} + force_[a] * 0.5) / rho[k];
          }
        }
        std::uint16_t m = row.scalar_mask;
        while (m) {
          const int lx = __builtin_ctz(m);
          m = static_cast<std::uint16_t>(m & (m - 1));
          if (lx < l0 || lx >= l0 + len) continue;
          const int k = lx - l0;
          const std::size_t a = a0 + static_cast<std::size_t>(k);
          if (type_[a] != NodeType::Fluid && type_[a] != NodeType::Coupling) {
            continue;
          }
          rho_[a] = rho[k];
          u_[a] = (Vec3{mx[k], my[k], mz[k]} + force_[a] * 0.5) / rho[k];
        }
      }
    });
    return;
  }
  // Tile-major traversal: the macroscopic update is pure per node (rho and
  // u at a node depend only on that node's f and force), so iteration
  // order cannot change a single bit -- and walking resident tiles keeps
  // the 19 q-plane read streams advancing sequentially through one tile
  // at a time, which the hardware prefetcher can follow. The row-major
  // walk interleaved ~6 tiles x 19 planes of 128 B touches and ran
  // memory-latency bound. Vacant tiles are skipped by construction.
  exec::parallel_for(resident_.size(), [&](std::size_t t) {
    int tx0, ty0, tz0;
    tile_origin(t, tx0, ty0, tz0);
    const int ix0 = std::max(x0, tx0);
    const int ix1 = std::min(x1, tx0 + kTileSide);
    const int iy0 = std::max(y0, ty0);
    const int iy1 = std::min(y1, ty0 + kTileSide);
    const int iz0 = std::max(z0, tz0);
    const int iz1 = std::min(z1, tz0 + kTileSide);
    if (ix0 >= ix1 || iy0 >= iy1 || iz0 >= iz1) return;
    const std::size_t slot = static_cast<std::size_t>(tile_slot(t));
    const double* fs = f_.data() + slot * kQ * kTileNodes;
    const int len = ix1 - ix0;
    for (int z = iz0; z < iz1; ++z) {
      for (int y = iy0; y < iy1; ++y) {
        const std::size_t c0 = cell_of(ix0 - tx0, y - ty0, z - tz0);
        const std::size_t a0 = slot * kTileNodes + c0;
        // Moment sums with q as the outer loop over the x-run: per-q
        // reads are contiguous doubles instead of 19 gathers 32 KB apart
        // (kTileNodes * 8 B, a power-of-two stride that lands every
        // direction in the same L1 set). Each node still accumulates in
        // ascending-q order, so the sums are bit-identical to the
        // per-node loop.
        double rho[kTileSide], mx[kTileSide], my[kTileSide], mz[kTileSide];
        for (int k = 0; k < len; ++k) {
          rho[k] = 0.0;
          mx[k] = my[k] = mz[k] = 0.0;
        }
        for (int q = 0; q < kQ; ++q) {
          const double* fq = fs + static_cast<std::size_t>(q) * kTileNodes + c0;
          const double cx = kC[q][0];
          const double cy = kC[q][1];
          const double cz = kC[q][2];
          for (int k = 0; k < len; ++k) {
            const double v = fq[k];
            rho[k] += v;
            mx[k] += cx * v;
            my[k] += cy * v;
            mz[k] += cz * v;
          }
        }
        for (int k = 0; k < len; ++k) {
          const std::size_t a = a0 + k;
          if (type_[a] != NodeType::Fluid && type_[a] != NodeType::Coupling) {
            continue;
          }
          rho_[a] = rho[k];
          // Guo: physical velocity includes half the force impulse.
          u_[a] = (Vec3{mx[k], my[k], mz[k]} + force_[a] * 0.5) / rho[k];
        }
      }
    }
  });
}

template <class T>
T Lattice::interpolate(const std::vector<T>& field, const Vec3& p) const {
  Vec3 lc = to_lattice(p);
  lc.x = std::clamp(lc.x, 0.0, static_cast<double>(nx_ - 1));
  lc.y = std::clamp(lc.y, 0.0, static_cast<double>(ny_ - 1));
  lc.z = std::clamp(lc.z, 0.0, static_cast<double>(nz_ - 1));
  const int x0 = std::min(static_cast<int>(lc.x), nx_ - 2 < 0 ? 0 : nx_ - 2);
  const int y0 = std::min(static_cast<int>(lc.y), ny_ - 2 < 0 ? 0 : ny_ - 2);
  const int z0 = std::min(static_cast<int>(lc.z), nz_ - 2 < 0 ? 0 : nz_ - 2);
  const double fx = lc.x - x0;
  const double fy = lc.y - y0;
  const double fz = lc.z - z0;
  T out{};
  for (int dz = 0; dz < 2; ++dz) {
    const int z = std::min(z0 + dz, nz_ - 1);
    const double wz = dz ? fz : 1.0 - fz;
    for (int dy = 0; dy < 2; ++dy) {
      const int y = std::min(y0 + dy, ny_ - 1);
      const double wy = dy ? fy : 1.0 - fy;
      for (int dxn = 0; dxn < 2; ++dxn) {
        const int x = std::min(x0 + dxn, nx_ - 1);
        const double wx = dxn ? fx : 1.0 - fx;
        out += field[addr(x, y, z)] * (wx * wy * wz);
      }
    }
  }
  return out;
}

Vec3 Lattice::interpolate_velocity(const Vec3& p) const {
  return interpolate(u_, p);
}

double Lattice::interpolate_rho(const Vec3& p) const {
  return interpolate(rho_, p);
}

void Lattice::set_periodic(bool px, bool py, bool pz) {
  periodic_[0] = px;
  periodic_[1] = py;
  periodic_[2] = pz;
}

void Lattice::step() {
  step_no_macro();
  update_macroscopic();
}

void Lattice::step_no_macro() {
  if (segmented_) {
    ensure_plan();
    site_updates_ += fused_sweep_segmented();
  } else {
    site_updates_ += fused_sweep_scalar();
  }
  f_.swap(ftmp_);
  apply_dirichlet(*this);
}

// --- kernels ---------------------------------------------------------------

// Both fused sweeps are parallel over resident tiles. The scatter is
// race-free: for a direction q, slot (q, j) has exactly one push source
// i = j - c_q; bounce-back and self-copies write only the owning node's
// slots; and pushes into Velocity/Coupling targets are skipped (those
// nodes self-copy and are re-imposed by apply_dirichlet / the grid
// coupler before the next read), so no slot ever has two writers.
// Fast-node targets are all Fluid, hence resident -- the rim neighbour
// table never routes a write into the shared exterior tile.

std::uint64_t Lattice::fused_scatter_node(const double* f, double* ft,
                                          const std::int32_t* nrow,
                                          NodeType tt, std::size_t a,
                                          std::size_t fb, int x, int y, int z,
                                          int lx, int ly, int lz, bool fast) {
  constexpr std::size_t TN = kTileNodes;
  if (tt != NodeType::Fluid) {
    // Velocity/Coupling: push the stored populations outward (no
    // collision) and keep a self-copy so the node's state stays valid
    // after the buffer swap.
    for (int q = 0; q < kQ; ++q) {
      ft[fb + static_cast<std::size_t>(q) * TN] =
          f[fb + static_cast<std::size_t>(q) * TN];
      int tx = x + kC[q][0];
      int ty = y + kC[q][1];
      int tz = z + kC[q][2];
      if (periodic_[0]) tx = (tx + nx_) % nx_;
      if (periodic_[1]) ty = (ty + ny_) % ny_;
      if (periodic_[2]) tz = (tz + nz_) % nz_;
      if (!in_domain(tx, ty, tz)) continue;
      const std::size_t ja = addr(tx, ty, tz);
      if (type_[ja] == NodeType::Fluid) {
        ft[faddr(ja, q)] = f[fb + static_cast<std::size_t>(q) * TN];
      }
    }
    return 0;
  }

  // Collide locally.
  std::array<double, kQ> post;
  for (int q = 0; q < kQ; ++q) {
    post[q] = f[fb + static_cast<std::size_t>(q) * TN];
  }
  collide_node(a, post);

  if (fast) {
    // x-rim column of a fast node: route through the neighbour-slot table.
    for (int q = 0; q < kQ; ++q) {
      const std::size_t ja =
          nbr_addr(nrow, lx + kC[q][0], ly + kC[q][1], lz + kC[q][2]);
      ft[faddr(ja, q)] = post[q];
    }
    return 1;
  }

  // Slow path: walls, domain edges, periodic wrap.
  for (int q = 0; q < kQ; ++q) {
    int tx = x + kC[q][0];
    int ty = y + kC[q][1];
    int tz = z + kC[q][2];
    if (periodic_[0]) tx = (tx + nx_) % nx_;
    if (periodic_[1]) ty = (ty + ny_) % ny_;
    if (periodic_[2]) tz = (tz + nz_) % nz_;

    bool bounce = false;
    Vec3 uw{};
    if (!in_domain(tx, ty, tz)) {
      bounce = true;
    } else {
      const std::size_t ja = addr(tx, ty, tz);
      const NodeType jt = type_[ja];
      if (jt == NodeType::Fluid) {
        ft[faddr(ja, q)] = post[q];
        continue;
      }
      if (is_stream_source(jt)) {
        // Velocity/Coupling target: it keeps its self-copy (the value is
        // overwritten before it is next read).
        continue;
      }
      bounce = true;
      if (jt == NodeType::Wall) uw = ubc_[ja];
    }
    if (bounce) {
      // Reflection lands back on this node in the opposite direction
      // with the moving-wall momentum transfer.
      const double cu = kC[q][0] * uw.x + kC[q][1] * uw.y + kC[q][2] * uw.z;
      ft[fb + static_cast<std::size_t>(kOpp[q]) * TN] =
          post[q] - 6.0 * kW[q] * cu;
    }
  }
  return 1;
}

std::uint64_t Lattice::fused_sweep_scalar() {
  // The oracle: every active node takes the generic path, with no node
  // classification at all. An interior all-Fluid node writes the same
  // slots either way (its targets are in the box and Fluid, and periodic
  // wrap is the identity there), so the segmented sweep must agree with
  // this one bit for bit.
  constexpr int S = kTileSide;
  constexpr std::size_t TN = kTileNodes;
  const double* f = f_.data();
  double* ft = ftmp_.data();
  return exec::parallel_reduce<std::uint64_t>(
      resident_.size(), 0,
      [&](std::size_t tb, std::size_t te) {
        std::uint64_t local = 0;
        for (std::size_t t = tb; t < te; ++t) {
          const std::int32_t s = tile_slot(t);
          int X0, Y0, Z0;
          tile_origin(t, X0, Y0, Z0);
          const int vx = std::min(S, nx_ - X0);
          const int vy = std::min(S, ny_ - Y0);
          const int vz = std::min(S, nz_ - Z0);
          const std::size_t base = static_cast<std::size_t>(s) * TN;
          const std::size_t fslot = static_cast<std::size_t>(s) * kQ * TN;
          for (int lz = 0; lz < vz; ++lz) {
            for (int ly = 0; ly < vy; ++ly) {
              for (int lx = 0; lx < vx; ++lx) {
                const std::size_t c = cell_of(lx, ly, lz);
                const NodeType tt = type_[base + c];
                if (tt == NodeType::Exterior || tt == NodeType::Wall) {
                  continue;
                }
                local += fused_scatter_node(f, ft, nullptr, tt, base + c,
                                            fslot + c, X0 + lx, Y0 + ly,
                                            Z0 + lz, lx, ly, lz, false);
              }
            }
          }
        }
        return local;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

std::uint64_t Lattice::fused_sweep_segmented() {
  constexpr std::size_t TN = kTileNodes;
  const double* f = f_.data();
  double* ft = ftmp_.data();
  return exec::parallel_reduce<std::uint64_t>(
      resident_.size(), 0,
      [&](std::size_t tb, std::size_t te) {
        std::uint64_t local = 0;
        for (std::size_t t = tb; t < te; ++t) {
          const std::size_t b = static_cast<std::size_t>(resident_[t]);
          const std::int32_t s = dir_[b];
          int bx, by, bz;
          block_coords(b, bx, by, bz);
          const int X0 = bx << kTileShift;
          const int Y0 = by << kTileShift;
          const int Z0 = bz << kTileShift;
          const std::int32_t* nrow =
              nbr_.data() + static_cast<std::size_t>(s) * 27;
          const std::size_t base = static_cast<std::size_t>(s) * TN;
          const std::size_t fslot = static_cast<std::size_t>(s) * kQ * TN;
          const std::size_t r1 = plan_.row_begin(t + 1);
          for (std::size_t r = plan_.row_begin(t); r < r1; ++r) {
            const SweepPlan::Row& row = plan_.row(r);
            const std::size_t c0 = cell_of(0, row.ly, row.lz);
            if (row.nsegs) {
              const std::size_t* bases = plan_.bases(row.base_index);
              const SweepPlan::Seg* sg = plan_.segs(row.seg_begin);
              for (int i = 0; i < row.nsegs; ++i) {
                local += fused_collide_segment(f, ft, bases, base + c0,
                                               fslot + c0, sg[i].lx0,
                                               sg[i].lx1);
              }
            }
            // Remaining active lanes (x rims, boundary-adjacent Fluid,
            // Velocity/Coupling) take the shared per-node path; the rim
            // lanes the plan classified fast route through the
            // neighbour table.
            std::uint16_t m = row.scalar_mask;
            while (m) {
              const int lx = __builtin_ctz(m);
              m = static_cast<std::uint16_t>(m & (m - 1));
              const std::size_t a = base + c0 + static_cast<std::size_t>(lx);
              local += fused_scatter_node(
                  f, ft, nrow, type_[a], a,
                  fslot + c0 + static_cast<std::size_t>(lx), X0 + lx,
                  Y0 + row.ly, Z0 + row.lz, lx, row.ly, row.lz,
                  (row.rim_fast >> lx) & 1u);
            }
          }
        }
        return local;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

std::uint64_t Lattice::fused_collide_segment(const double* f, double* ft,
                                             const std::size_t* bases,
                                             std::size_t arow,
                                             std::size_t frow, int lx0,
                                             int lx1) {
  // The forced and unforced collisions are different expression trees
  // (adding a zero Guo term is not bitwise neutral: -0.0 + 0.0 = +0.0),
  // so split the segment into maximal uniformly-forced lane runs and
  // give each a branch-free kernel. Uniform segments -- a constant body
  // force, or none -- stay one run.
  const Vec3* fr = force_.data() + arow;
  int k0 = lx0;
  while (k0 < lx1) {
    const bool forced =
        fr[k0].x != 0.0 || fr[k0].y != 0.0 || fr[k0].z != 0.0;
    int k1 = k0 + 1;
    while (k1 < lx1 &&
           (fr[k1].x != 0.0 || fr[k1].y != 0.0 || fr[k1].z != 0.0) ==
               forced) {
      ++k1;
    }
    fused_collide_run(f, ft, bases, arow, frow, k0, k1, forced);
    k0 = k1;
  }
  return static_cast<std::uint64_t>(lx1 - lx0);
}

void Lattice::fused_collide_run(const double* f, double* ft,
                                const std::size_t* bases, std::size_t arow,
                                std::size_t frow, int lx0, int lx1,
                                bool forced) {
  constexpr int S = kTileSide;
  constexpr std::size_t TN = kTileNodes;
  const int L = lx1 - lx0;
  const std::size_t a0 = arow + static_cast<std::size_t>(lx0);
  const std::size_t f0 = frow + static_cast<std::size_t>(lx0);

  // Moments, q-outer with ascending q per lane -- the exact accumulation
  // order of collide_node, so the sums are bit-identical.
  double rho[S], mx[S], my[S], mz[S];
  for (int k = 0; k < L; ++k) {
    rho[k] = 0.0;
    mx[k] = my[k] = mz[k] = 0.0;
  }
  for (int q = 0; q < kQ; ++q) {
    const double* __restrict fq = f + f0 + static_cast<std::size_t>(q) * TN;
    const double cx = kC[q][0];
    const double cy = kC[q][1];
    const double cz = kC[q][2];
#pragma omp simd
    for (int k = 0; k < L; ++k) {
      const double v = fq[k];
      rho[k] += v;
      mx[k] += cx * v;
      my[k] += cy * v;
      mz[k] += cz * v;
    }
  }

  double fx[S], fy[S], fz[S];
  for (int k = 0; k < L; ++k) {
    const Vec3& F = force_[a0 + static_cast<std::size_t>(k)];
    fx[k] = F.x;
    fy[k] = F.y;
    fz[k] = F.z;
  }
  // Velocity with the Guo half-force impulse, replicating
  // Vec3::operator/ (one reciprocal, three multiplies) and the
  // left-associative dot() inside equilibria().
  double ux[S], uy[S], uz[S], uu[S], om[S];
#pragma omp simd
  for (int k = 0; k < L; ++k) {
    const double inv = 1.0 / rho[k];
    ux[k] = (mx[k] + fx[k] * 0.5) * inv;
    uy[k] = (my[k] + fy[k] * 0.5) * inv;
    uz[k] = (mz[k] + fz[k] * 0.5) * inv;
    uu[k] = 1.5 * (ux[k] * ux[k] + uy[k] * uy[k] + uz[k] * uz[k]);
  }
  for (int k = 0; k < L; ++k) {
    om[k] = 1.0 / tau_[a0 + static_cast<std::size_t>(k)];
  }

  if (collision_ == CollisionModel::Bgk) {
    double pref[S];
    if (forced) {
      for (int k = 0; k < L; ++k) {
        pref[k] = 1.0 - 0.5 / tau_[a0 + static_cast<std::size_t>(k)];
      }
    }
    for (int q = 0; q < kQ; ++q) {
      const double* __restrict fq =
          f + f0 + static_cast<std::size_t>(q) * TN;
      double* __restrict out =
          ft + bases[q] + static_cast<std::size_t>(lx0);
      const double cx = kC[q][0];
      const double cy = kC[q][1];
      const double cz = kC[q][2];
      const double wq = kW[q];
      if (forced) {
#pragma omp simd
        for (int k = 0; k < L; ++k) {
          const double cu = cx * ux[k] + cy * uy[k] + cz * uz[k];
          const double feq =
              wq * rho[k] * (1.0 + 3.0 * cu + 4.5 * cu * cu - uu[k]);
          double v = fq[k];
          v -= om[k] * (v - feq);
          const double tx = (cx - ux[k]) * 3.0 + cx * (9.0 * cu);
          const double ty = (cy - uy[k]) * 3.0 + cy * (9.0 * cu);
          const double tz = (cz - uz[k]) * 3.0 + cz * (9.0 * cu);
          v += pref[k] * (wq * (tx * fx[k] + ty * fy[k] + tz * fz[k]));
          out[k] = v;
        }
      } else {
#pragma omp simd
        for (int k = 0; k < L; ++k) {
          const double cu = cx * ux[k] + cy * uy[k] + cz * uz[k];
          const double feq =
              wq * rho[k] * (1.0 + 3.0 * cu + 4.5 * cu * cu - uu[k]);
          out[k] = fq[k] - om[k] * (fq[k] - feq);
        }
      }
    }
    return;
  }

  if (collision_ == CollisionModel::Mrt) {
    // MRT: stage the equilibrium and raw-source planes (the exact
    // expressions of equilibria()/guo_source_raw()), then run the moment
    // projection q-outer with per-lane ascending-q accumulation -- the
    // accumulation order of collide_node, so the sums are bit-identical.
    const MrtBasis& basis = mrt_basis();
    double feqb[kQ][S];
    double srcb[kQ][S];
    for (int q = 0; q < kQ; ++q) {
      const double cx = kC[q][0];
      const double cy = kC[q][1];
      const double cz = kC[q][2];
      const double wq = kW[q];
#pragma omp simd
      for (int k = 0; k < L; ++k) {
        const double cu = cx * ux[k] + cy * uy[k] + cz * uz[k];
        feqb[q][k] = wq * rho[k] * (1.0 + 3.0 * cu + 4.5 * cu * cu - uu[k]);
      }
      if (forced) {
#pragma omp simd
        for (int k = 0; k < L; ++k) {
          const double cu = cx * ux[k] + cy * uy[k] + cz * uz[k];
          const double tx = (cx - ux[k]) * 3.0 + cx * (9.0 * cu);
          const double ty = (cy - uy[k]) * 3.0 + cy * (9.0 * cu);
          const double tz = (cz - uz[k]) * 3.0 + cz * (9.0 * cu);
          srcb[q][k] = wq * (tx * fx[k] + ty * fy[k] + tz * fz[k]);
        }
      }
    }
    double dmb[kQ][S];
    for (int i = 0; i < kQ; ++i) {
      const std::array<double, kQ>& mi = basis.m[i];
      double mm[S], meq[S], ms[S];
      for (int k = 0; k < L; ++k) {
        mm[k] = 0.0;
        meq[k] = 0.0;
        ms[k] = 0.0;
      }
      for (int q = 0; q < kQ; ++q) {
        const double* __restrict fq =
            f + f0 + static_cast<std::size_t>(q) * TN;
        const double w = mi[q];
#pragma omp simd
        for (int k = 0; k < L; ++k) {
          mm[k] += w * fq[k];
          meq[k] += w * feqb[q][k];
        }
      }
      if (forced) {
        for (int q = 0; q < kQ; ++q) {
          const double w = mi[q];
#pragma omp simd
          for (int k = 0; k < L; ++k) ms[k] += w * srcb[q][k];
        }
      }
      const double fixed = kMrtRates[i];
      const bool viscous = kMrtViscous[i];
      if (forced) {
#pragma omp simd
        for (int k = 0; k < L; ++k) {
          const double s = viscous ? om[k] : fixed;
          double d = s * (mm[k] - meq[k]);
          d -= (1.0 - 0.5 * s) * ms[k];
          dmb[i][k] = d;
        }
      } else {
#pragma omp simd
        for (int k = 0; k < L; ++k) {
          const double s = viscous ? om[k] : fixed;
          dmb[i][k] = s * (mm[k] - meq[k]);
        }
      }
    }
    for (int q = 0; q < kQ; ++q) {
      const double* __restrict fq =
          f + f0 + static_cast<std::size_t>(q) * TN;
      double* __restrict out =
          ft + bases[q] + static_cast<std::size_t>(lx0);
      double acc[S];
      for (int k = 0; k < L; ++k) acc[k] = 0.0;
      for (int i = 0; i < kQ; ++i) {
        const double w = basis.minv[q][i];
#pragma omp simd
        for (int k = 0; k < L; ++k) acc[k] += w * dmb[i][k];
      }
#pragma omp simd
      for (int k = 0; k < L; ++k) out[k] = fq[k] - acc[k];
    }
    return;
  }

  // TRT: same parity split as collide_node, with the full equilibrium and
  // raw-source planes staged per run so each direction pairs with its
  // opposite.
  double omm[S], pp[S], pm[S];
  for (int k = 0; k < L; ++k) {
    const double tau = tau_[a0 + static_cast<std::size_t>(k)];
    omm[k] = 1.0 / (magic_ / (tau - 0.5) + 0.5);
  }
  if (forced) {
#pragma omp simd
    for (int k = 0; k < L; ++k) {
      pp[k] = 1.0 - 0.5 * om[k];
      pm[k] = 1.0 - 0.5 * omm[k];
    }
  }
  double feqb[kQ][S];
  double srcb[kQ][S];
  for (int q = 0; q < kQ; ++q) {
    const double cx = kC[q][0];
    const double cy = kC[q][1];
    const double cz = kC[q][2];
    const double wq = kW[q];
#pragma omp simd
    for (int k = 0; k < L; ++k) {
      const double cu = cx * ux[k] + cy * uy[k] + cz * uz[k];
      feqb[q][k] = wq * rho[k] * (1.0 + 3.0 * cu + 4.5 * cu * cu - uu[k]);
    }
    if (forced) {
#pragma omp simd
      for (int k = 0; k < L; ++k) {
        const double cu = cx * ux[k] + cy * uy[k] + cz * uz[k];
        const double tx = (cx - ux[k]) * 3.0 + cx * (9.0 * cu);
        const double ty = (cy - uy[k]) * 3.0 + cy * (9.0 * cu);
        const double tz = (cz - uz[k]) * 3.0 + cz * (9.0 * cu);
        srcb[q][k] = wq * (tx * fx[k] + ty * fy[k] + tz * fz[k]);
      }
    }
  }
  for (int q = 0; q < kQ; ++q) {
    const int qb = kOpp[q];
    const double* __restrict fq = f + f0 + static_cast<std::size_t>(q) * TN;
    const double* __restrict fo =
        f + f0 + static_cast<std::size_t>(qb) * TN;
    double* __restrict out = ft + bases[q] + static_cast<std::size_t>(lx0);
    if (forced) {
#pragma omp simd
      for (int k = 0; k < L; ++k) {
        const double dq = fq[k] - feqb[q][k];
        const double db = fo[k] - feqb[qb][k];
        const double neq_p = 0.5 * (dq + db);
        const double neq_m = 0.5 * (dq - db);
        double v = fq[k] - om[k] * neq_p - omm[k] * neq_m;
        const double s_p = 0.5 * (srcb[q][k] + srcb[qb][k]);
        const double s_m = 0.5 * (srcb[q][k] - srcb[qb][k]);
        v += pp[k] * s_p + pm[k] * s_m;
        out[k] = v;
      }
    } else {
#pragma omp simd
      for (int k = 0; k < L; ++k) {
        const double dq = fq[k] - feqb[q][k];
        const double db = fo[k] - feqb[qb][k];
        const double neq_p = 0.5 * (dq + db);
        const double neq_m = 0.5 * (dq - db);
        out[k] = fq[k] - om[k] * neq_p - omm[k] * neq_m;
      }
    }
  }
}

void Lattice::collide_node(std::size_t a, std::array<double, kQ>& f) const {
  double rho = 0.0;
  Vec3 mom{};
  for (int q = 0; q < kQ; ++q) {
    rho += f[q];
    mom.x += kC[q][0] * f[q];
    mom.y += kC[q][1] * f[q];
    mom.z += kC[q][2] * f[q];
  }
  const Vec3 force = force_[a];
  const Vec3 u = (mom + force * 0.5) / rho;

  std::array<double, kQ> feq;
  equilibria(rho, u, feq);
  const double tau = tau_[a];
  const bool forced = (force.x != 0.0 || force.y != 0.0 || force.z != 0.0);

  if (collision_ == CollisionModel::Bgk) {
    // The forced test is loop-invariant: hoist it so the unforced bulk
    // runs a branch-free relaxation loop.
    const double omega = 1.0 / tau;
    if (forced) {
      for (int q = 0; q < kQ; ++q) {
        f[q] -= omega * (f[q] - feq[q]);
        f[q] += guo_source(q, tau, u, force);
      }
    } else {
      for (int q = 0; q < kQ; ++q) {
        f[q] -= omega * (f[q] - feq[q]);
      }
    }
    return;
  }

  if (collision_ == CollisionModel::Mrt) {
    // MRT (d'Humieres Gram-Schmidt basis): project onto moments, relax
    // each moment at its own rate -- the five viscous stress moments at
    // the per-node s_nu = 1/tau (so the Eq. (7) tau map applies
    // unchanged), the ghost moments at the fixed kMrtRates -- and
    // project back. Equilibrium moments are M feq with the same
    // second-order feq as BGK, so equal rates degenerate to BGK; Guo
    // forcing is transformed to moment space with the (1 - s/2)
    // prefactor applied per moment.
    const MrtBasis& basis = mrt_basis();
    const double omega = 1.0 / tau;
    std::array<double, kQ> src{};
    if (forced) {
      for (int q = 0; q < kQ; ++q) src[q] = guo_source_raw(q, u, force);
    }
    std::array<double, kQ> dm;
    for (int i = 0; i < kQ; ++i) {
      const std::array<double, kQ>& mi = basis.m[i];
      double m = 0.0;
      double meq = 0.0;
      for (int q = 0; q < kQ; ++q) {
        m += mi[q] * f[q];
        meq += mi[q] * feq[q];
      }
      const double s = kMrtViscous[i] ? omega : kMrtRates[i];
      double d = s * (m - meq);
      if (forced) {
        double ms = 0.0;
        for (int q = 0; q < kQ; ++q) ms += mi[q] * src[q];
        d -= (1.0 - 0.5 * s) * ms;
      }
      dm[i] = d;
    }
    for (int q = 0; q < kQ; ++q) {
      double acc = 0.0;
      for (int i = 0; i < kQ; ++i) acc += basis.minv[q][i] * dm[i];
      f[q] -= acc;
    }
    return;
  }

  // TRT: relax the symmetric (even) and antisymmetric (odd) parts of the
  // non-equilibrium with separate rates; omega+ carries the viscosity,
  // omega- follows from the magic parameter
  //   Lambda = (1/omega+ - 1/2)(1/omega- - 1/2).
  const double omega_p = 1.0 / tau;
  const double omega_m = 1.0 / (magic_ / (tau - 0.5) + 0.5);
  std::array<double, kQ> src{};
  if (forced) {
    for (int q = 0; q < kQ; ++q) src[q] = guo_source_raw(q, u, force);
  }
  std::array<double, kQ> post;
  for (int q = 0; q < kQ; ++q) {
    const int qb = kOpp[q];
    const double neq_p = 0.5 * ((f[q] - feq[q]) + (f[qb] - feq[qb]));
    const double neq_m = 0.5 * ((f[q] - feq[q]) - (f[qb] - feq[qb]));
    post[q] = f[q] - omega_p * neq_p - omega_m * neq_m;
    if (forced) {
      // Parity-split Guo forcing (He et al. / Ginzburg): the even part of
      // the source relaxes with omega+, the odd part with omega-.
      const double s_p = 0.5 * (src[q] + src[qb]);
      const double s_m = 0.5 * (src[q] - src[qb]);
      post[q] += (1.0 - 0.5 * omega_p) * s_p + (1.0 - 0.5 * omega_m) * s_m;
    }
  }
  f = post;
}

void Lattice::set_collision_model(CollisionModel model, double magic) {
  if (magic <= 0.0) {
    throw std::invalid_argument("set_collision_model: magic must be > 0");
  }
  collision_ = model;
  magic_ = magic;
}

void Lattice::ensure_plan() {
  if (!plan_dirty_) return;
  nbr_.assign(slot_block_.size() * 27, 0);
  for (const std::int32_t b : resident_) {
    const std::int32_t s = dir_[static_cast<std::size_t>(b)];
    int bx, by, bz;
    block_coords(static_cast<std::size_t>(b), bx, by, bz);
    std::int32_t* row = nbr_.data() + static_cast<std::size_t>(s) * 27;
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int jx = bx + dx, jy = by + dy, jz = bz + dz;
          std::int32_t js = 0;
          if (jx >= 0 && jx < tbx_ && jy >= 0 && jy < tby_ && jz >= 0 &&
              jz < tbz_) {
            js = dir_[(static_cast<std::size_t>(jz) * tby_ + jy) * tbx_ + jx];
          }
          row[((dz + 1) * 3 + (dy + 1)) * 3 + (dx + 1)] = js;
        }
      }
    }
  }
  plan_.rebuild(*this);
  plan_dirty_ = false;
  ++plan_rebuilds_;
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    tracer.record_instant(
        "lbm", "plan_rebuild",
        "\"rows\":" + std::to_string(plan_.num_rows()) +
            ",\"segments\":" + std::to_string(plan_.num_segments()) +
            ",\"segment_nodes\":" + std::to_string(plan_.segment_nodes()) +
            ",\"scalar_nodes\":" + std::to_string(plan_.scalar_nodes()));
  }
}

void apply_dirichlet(Lattice& lat) {
  constexpr std::size_t TN = Lattice::kTileNodes;
  exec::parallel_for(lat.resident_.size(), [&](std::size_t t) {
    const std::size_t base = static_cast<std::size_t>(lat.tile_slot(t)) * TN;
    for (std::size_t c = 0; c < TN; ++c) {
      const std::size_t a = base + c;
      if (lat.type_[a] != NodeType::Velocity) continue;
      std::array<double, kQ> feq;
      equilibria(1.0, lat.ubc_[a], feq);
      for (int q = 0; q < kQ; ++q) lat.f_[lat.faddr(a, q)] = feq[q];
      lat.rho_[a] = 1.0;
      lat.u_[a] = lat.ubc_[a];
    }
  });
}

}  // namespace apr::lbm
