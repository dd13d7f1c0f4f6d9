#include "src/lbm/sweep_plan.hpp"

#include <algorithm>

#include "src/exec/exec.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::lbm {

void SweepPlan::clear() {
  row_begin_.clear();
  rows_.clear();
  segs_.clear();
  bases_.clear();
  segment_nodes_ = 0;
  scalar_nodes_ = 0;
}

void SweepPlan::rebuild(const Lattice& lat) {
  clear();
  constexpr int S = Lattice::kTileSide;
  constexpr std::size_t TN = Lattice::kTileNodes;
  constexpr std::size_t kRows = static_cast<std::size_t>(S) * S;
  const std::size_t ntiles = lat.resident_.size();

  // Classification, in parallel over tiles: per (lz, ly) row, the active
  // lanes (anything but Exterior/Wall) and the fast ones (Fluid, inside
  // [1, n-2] on every axis, all 18 pull sources Fluid). The D3Q19 stencil
  // is symmetric, so the pull sources are also the push targets: a fast
  // node's scatter needs no bounds or type checks and never writes into
  // a Velocity/Coupling node's self-copied slots, which keeps the direct
  // scatter race-free under the parallel tile decomposition.
  std::vector<std::uint16_t> active(ntiles * kRows, 0);
  std::vector<std::uint16_t> fast(ntiles * kRows, 0);
  exec::parallel_for(ntiles, [&](std::size_t t) {
    const std::int32_t s = lat.tile_slot(t);
    int X0, Y0, Z0;
    lat.tile_origin(t, X0, Y0, Z0);
    const int vx = std::min(S, lat.nx_ - X0);
    const int vy = std::min(S, lat.ny_ - Y0);
    const int vz = std::min(S, lat.nz_ - Z0);
    const NodeType* ty = lat.type_.data() + static_cast<std::size_t>(s) * TN;
    const std::int32_t* nrow =
        lat.nbr_.data() + static_cast<std::size_t>(s) * 27;
    for (int lz = 0; lz < vz; ++lz) {
      const int z = Z0 + lz;
      for (int ly = 0; ly < vy; ++ly) {
        const int y = Y0 + ly;
        const bool yz_inside = y >= 1 && y < lat.ny_ - 1 && z >= 1 &&
                               z < lat.nz_ - 1;
        const std::size_t c0 = Lattice::cell_of(0, ly, lz);
        std::uint16_t am = 0, fm = 0;
        for (int lx = 0; lx < vx; ++lx) {
          const NodeType tt = ty[c0 + lx];
          if (tt == NodeType::Exterior || tt == NodeType::Wall) continue;
          const auto bit = static_cast<std::uint16_t>(1u << lx);
          am = static_cast<std::uint16_t>(am | bit);
          const int x = X0 + lx;
          if (tt != NodeType::Fluid || !yz_inside || x < 1 ||
              x >= lat.nx_ - 1) {
            continue;
          }
          bool ok = true;
          for (int q = 1; q < kQ && ok; ++q) {
            ok = lat.type_[Lattice::nbr_addr(nrow, lx - kC[q][0],
                                             ly - kC[q][1],
                                             lz - kC[q][2])] ==
                 NodeType::Fluid;
          }
          if (ok) fm = static_cast<std::uint16_t>(fm | bit);
        }
        const std::size_t r = t * kRows + static_cast<std::size_t>(lz) * S +
                              static_cast<std::size_t>(ly);
        active[r] = am;
        fast[r] = fm;
      }
    }
  });

  // Assembly, serial in directory order: segments are the maximal runs of
  // fast lanes with lx in [1, vx-2], where the scatter base walk
  // `base[q] + lx` stays in-tile; every other active lane goes to the
  // per-node path, and the fast ones among them (the x rims) route
  // through the neighbour table.
  row_begin_.assign(ntiles + 1, 0);
  for (std::size_t t = 0; t < ntiles; ++t) {
    row_begin_[t] = rows_.size();
    const std::int32_t s = lat.tile_slot(t);
    int X0, Y0, Z0;
    lat.tile_origin(t, X0, Y0, Z0);
    const int vx = std::min(S, lat.nx_ - X0);
    const int vy = std::min(S, lat.ny_ - Y0);
    const int vz = std::min(S, lat.nz_ - Z0);
    const std::uint32_t inner = ((1u << (vx - 1)) - 1u) & ~1u;
    const std::int32_t* nrow =
        lat.nbr_.data() + static_cast<std::size_t>(s) * 27;
    for (int lz = 0; lz < vz; ++lz) {
      for (int ly = 0; ly < vy; ++ly) {
        const std::size_t r = t * kRows + static_cast<std::size_t>(lz) * S +
                              static_cast<std::size_t>(ly);
        if (active[r] == 0) continue;  // dead row: no work at all
        const std::uint32_t seg = fast[r] & inner;
        Row row;
        row.seg_begin = static_cast<std::uint32_t>(segs_.size());
        row.scalar_mask = static_cast<std::uint16_t>(active[r] & ~seg);
        row.rim_fast = static_cast<std::uint16_t>(fast[r] & ~seg);
        row.ly = static_cast<std::uint8_t>(ly);
        row.lz = static_cast<std::uint8_t>(lz);
        row.base_index = kNoBases;
        for (std::uint32_t m = seg; m != 0;) {
          const int lx0 = __builtin_ctz(m);
          const int lx1 = lx0 + __builtin_ctz(~(m >> lx0));
          segs_.push_back({static_cast<std::uint8_t>(lx0),
                           static_cast<std::uint8_t>(lx1)});
          m &= ~((1u << lx1) - 1u);
        }
        row.nsegs = static_cast<std::uint8_t>(segs_.size() - row.seg_begin);
        segment_nodes_ += static_cast<std::uint64_t>(__builtin_popcount(seg));
        scalar_nodes_ +=
            static_cast<std::uint64_t>(__builtin_popcount(row.scalar_mask));
        if (row.nsegs > 0) {
          // The fused kernel's per-row scatter bases, hoisted out of the
          // step loop: lane lx of direction q writes ftmp[base[q] + lx].
          row.base_index = static_cast<std::uint32_t>(bases_.size());
          std::array<std::size_t, kQ> base;
          for (int q = 0; q < kQ; ++q) {
            const std::size_t ja = Lattice::nbr_addr(
                nrow, 1 + kC[q][0], ly + kC[q][1], lz + kC[q][2]);
            base[q] = lat.faddr(ja, q) - 1;
          }
          bases_.push_back(base);
        }
        rows_.push_back(row);
      }
    }
  }
  row_begin_[ntiles] = rows_.size();
}

}  // namespace apr::lbm
