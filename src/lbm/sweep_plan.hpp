#pragma once

/// \file sweep_plan.hpp
/// Cached per-tile sweep plan for the hot lattice kernels, and the
/// lattice's only node classification. A node is *fast* when it is
/// Fluid, lies in [1, n-2] on every axis and all 18 of its pull sources
/// are Fluid: its push then needs no bounds or type checks. For every
/// resident tile the plan records, per (lz, ly) row, the run-length
/// segments of consecutive fast cells away from the tile's x rim
/// (lx in [1, vx-2]), a bitmask of the remaining collide/stream-active
/// lanes, and which of those are fast x-rim lanes. Rows with no active
/// lane are omitted entirely, so wall-heavy vessel tiles stop paying
/// per-row setup for rows that do no work.
///
/// For each row that owns at least one segment the 19 scatter bases of
/// the fused push kernel (target distribution index of lane lx = base[q]
/// + lx) are precomputed once per *plan* instead of once per row per
/// step. Bases are pool indices resolved through the tile neighbour
/// table, so they stay valid exactly as long as the tile directory and
/// the node types do; the owning Lattice sets one dirty flag on every
/// change of either and rebuilds the table and the plan together (see
/// Lattice::ensure_plan).
///
/// The plan is a pure acceleration structure: the segmented kernels that
/// consume it are bit-exact against the per-node scalar sweep, which
/// reads no classification (tests/test_sweep_plan.cpp), and it is never
/// serialized.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/lbm/d3q19.hpp"

namespace apr::lbm {

class Lattice;

class SweepPlan {
 public:
  /// Half-open lane run [lx0, lx1) of consecutive interior fast-Fluid
  /// cells within one row.
  struct Seg {
    std::uint8_t lx0 = 0;
    std::uint8_t lx1 = 0;
  };

  /// One (ly, lz) row of a resident tile holding at least one
  /// collide/stream-active node (Fluid, Velocity or Coupling).
  struct Row {
    std::uint32_t seg_begin = 0;   ///< first entry in segs()
    std::uint32_t base_index = 0;  ///< entry in bases(); kNoBases if no segs
    std::uint16_t scalar_mask = 0; ///< active lanes outside every segment
    std::uint16_t rim_fast = 0;    ///< fast lanes of scalar_mask (x rims)
    std::uint8_t nsegs = 0;
    std::uint8_t ly = 0;
    std::uint8_t lz = 0;
  };

  static constexpr std::uint32_t kNoBases = 0xFFFFFFFFu;

  /// Classify every node and rebuild from the lattice's current
  /// residency and types, in parallel over resident tiles. The caller
  /// (Lattice::ensure_plan) guarantees the neighbour table is up to date.
  void rebuild(const Lattice& lat);

  void clear();

  /// Rows of resident tile t occupy [row_begin(t), row_begin(t + 1)).
  std::size_t row_begin(std::size_t t) const { return row_begin_[t]; }
  const Row& row(std::size_t r) const { return rows_[r]; }
  const Seg* segs(std::uint32_t seg_begin) const {
    return segs_.data() + seg_begin;
  }
  /// 19 scatter bases of a row: lane lx of direction q streams to
  /// ftmp[bases[q] + lx].
  const std::size_t* bases(std::uint32_t base_index) const {
    return bases_[base_index].data();
  }

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_segments() const { return segs_.size(); }
  /// Cells covered by segments (the vectorized share of the sweep).
  std::uint64_t segment_nodes() const { return segment_nodes_; }
  /// Active cells left to the per-node path (rims, walls, boundaries).
  std::uint64_t scalar_nodes() const { return scalar_nodes_; }

 private:
  std::vector<std::size_t> row_begin_;  ///< resident-tile count + 1 entries
  std::vector<Row> rows_;
  std::vector<Seg> segs_;
  std::vector<std::array<std::size_t, kQ>> bases_;
  std::uint64_t segment_nodes_ = 0;
  std::uint64_t scalar_nodes_ = 0;
};

}  // namespace apr::lbm
