#include "src/parallel/packing.hpp"

#include <map>

namespace apr::parallel {

HaloPlan build_halo_plan(const BoxDecomposition& decomp, int halo_width,
                         int receiver) {
  const TaskBox own = decomp.task_box(receiver);
  const TaskBox store = decomp.stored_box(receiver, halo_width);
  std::map<int, std::vector<Int3>> by_owner;
  for (int z = store.lo.z; z < store.hi.z; ++z) {
    for (int y = store.lo.y; y < store.hi.y; ++y) {
      for (int x = store.lo.x; x < store.hi.x; ++x) {
        const Int3 c{x, y, z};
        if (own.contains(c)) continue;
        by_owner[decomp.rank_of_node(c)].push_back(c);
      }
    }
  }
  HaloPlan plan;
  plan.by_owner.reserve(by_owner.size());
  for (auto& [peer, nodes] : by_owner) {
    plan.by_owner.push_back({peer, std::move(nodes)});
  }
  return plan;
}

}  // namespace apr::parallel
