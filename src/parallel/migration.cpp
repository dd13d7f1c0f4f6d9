#include "src/parallel/migration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace apr::parallel {

SpatialDecomposition::SpatialDecomposition(const BoxDecomposition& decomp,
                                           const Vec3& origin, double dx)
    : decomp_(&decomp), origin_(origin), dx_(dx) {
  if (dx <= 0.0) throw std::invalid_argument("SpatialDecomposition: dx <= 0");
}

Int3 SpatialDecomposition::node_of(const Vec3& p) const {
  const Int3 dims = decomp_->dims();
  auto clamp = [](int v, int hi) { return v < 0 ? 0 : (v >= hi ? hi - 1 : v); };
  const Vec3 r = (p - origin_) / dx_;
  return {clamp(static_cast<int>(std::floor(r.x + 0.5)), dims.x),
          clamp(static_cast<int>(std::floor(r.y + 0.5)), dims.y),
          clamp(static_cast<int>(std::floor(r.z + 0.5)), dims.z)};
}

int SpatialDecomposition::owner_of(const Vec3& p) const {
  return decomp_->rank_of_node(node_of(p));
}

Aabb SpatialDecomposition::task_region(int rank) const {
  const TaskBox box = decomp_->task_box(rank);
  return {origin_ + to_vec3(box.lo) * dx_,
          origin_ + to_vec3(box.hi - Int3{1, 1, 1}) * dx_};
}

CellAssignment SpatialDecomposition::assign(const Vec3& centroid,
                                            const Aabb& bounds,
                                            double halo_distance) const {
  CellAssignment out;
  out.owner = owner_of(centroid);
  const Aabb reach = bounds.inflated(halo_distance);
  for (int r = 0; r < decomp_->num_tasks(); ++r) {
    if (r == out.owner) continue;
    if (task_region(r).inflated(dx_ / 2.0).overlaps(reach)) {
      out.halo_tasks.push_back(r);
    }
  }
  return out;
}

ForcePolicyCost force_policy_cost(
    const std::vector<CellAssignment>& assignments, int vertices_per_cell,
    std::uint64_t flops_per_cell_force) {
  ForcePolicyCost cost;
  for (const auto& a : assignments) {
    const auto holders = static_cast<std::uint64_t>(a.halo_tasks.size());
    cost.halo_copies += holders;
    // Communicate policy: owner computes once, sends vertex forces (3
    // doubles each) to every halo holder.
    cost.communicate_bytes +=
        holders * static_cast<std::uint64_t>(vertices_per_cell) * 3 *
        sizeof(double);
    // Recompute policy: every holder redundantly evaluates the force.
    cost.recompute_flops += holders * flops_per_cell_force;
  }
  return cost;
}

}  // namespace apr::parallel
