#pragma once

/// \file cell_pool.hpp
/// Pooled cell memory (paper §2.4.5, "Cell Memory Management"). All vertex
/// storage for up to `capacity` cells of one species is allocated once at
/// construction; adding a cell claims the next slot and removing a cell
/// shifts the trailing slots down, so the live cells always occupy a
/// contiguous prefix and no allocation happens during the simulation.
/// Global cell IDs are stable across shifts (slot lookup via a map), which
/// the deterministic overlap-removal algorithm relies on.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/cells/cell.hpp"
#include "src/fem/membrane_model.hpp"

namespace apr::cells {

class CellPool {
 public:
  /// \param model shared membrane model (defines the vertex count)
  /// \param kind species tag
  /// \param capacity maximum number of live cells
  CellPool(const fem::MembraneModel* model, CellKind kind,
           std::size_t capacity);

  const fem::MembraneModel& model() const { return *model_; }
  CellKind kind() const { return kind_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  int vertices_per_cell() const { return nv_; }

  /// Claim a slot for a new cell with the given vertex positions; returns
  /// the slot index. Throws std::length_error when full.
  std::size_t add(std::uint64_t id, std::span<const Vec3> vertices);

  /// Remove the cell with global id `id`, shift-compacting trailing slots.
  /// Throws std::out_of_range for unknown ids.
  void remove(std::uint64_t id);

  /// Remove the cell in `slot`.
  void remove_slot(std::size_t slot);

  bool contains(std::uint64_t id) const { return slot_of_.count(id) != 0; }
  std::size_t slot_of(std::uint64_t id) const;
  std::uint64_t id(std::size_t slot) const { return ids_.at(slot); }

  std::span<Vec3> positions(std::size_t slot);
  std::span<const Vec3> positions(std::size_t slot) const;
  std::span<Vec3> forces(std::size_t slot);
  std::span<const Vec3> forces(std::size_t slot) const;
  std::span<Vec3> velocities(std::size_t slot);
  std::span<const Vec3> velocities(std::size_t slot) const;

  /// Every live cell's vertices at once (the contiguous live prefix,
  /// slot-major).
  std::span<Vec3> live_positions() { return {x_.data(), live_vertices()}; }
  std::span<const Vec3> live_forces() const {
    return {f_.data(), live_vertices()};
  }
  std::span<Vec3> live_velocities() { return {v_.data(), live_vertices()}; }

  /// Zero all per-vertex forces (start of an FSI step).
  void clear_forces();

  /// Centroid of the cell in `slot`.
  Vec3 cell_centroid(std::size_t slot) const;

  /// Total number of shift operations performed by remove() so far
  /// (ablation diagnostics for the pooled-memory bench).
  std::uint64_t shift_count() const { return shifts_; }

 private:
  std::size_t live_vertices() const {
    return count_ * static_cast<std::size_t>(nv_);
  }

  const fem::MembraneModel* model_;
  CellKind kind_;
  std::size_t capacity_;
  int nv_;
  std::size_t count_ = 0;
  std::vector<Vec3> x_;      // capacity * nv
  std::vector<Vec3> f_;      // capacity * nv
  std::vector<Vec3> v_;      // capacity * nv
  std::vector<std::uint64_t> ids_;
  std::unordered_map<std::uint64_t, std::size_t> slot_of_;
  std::uint64_t shifts_ = 0;
};

}  // namespace apr::cells
