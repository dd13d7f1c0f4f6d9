#pragma once

/// \file packing.hpp
/// Halo *packing* for the parallel substrate, kept strictly separate from
/// buffer *movement* (transport.hpp). A halo slab is serialized through the
/// io::Checkpoint section framing (versioned container, per-section
/// CRC-32), so every backend ships byte-identical, integrity-checked
/// messages. Receivers rebuild the same deterministic HaloPlan from the
/// decomposition alone, which is what makes the loopback and fork backends
/// bit-equal by construction (the tools/transport_smoke harness and
/// tests/test_transport.cpp enforce it).

#include <cstdint>
#include <vector>

#include "src/common/vec3.hpp"
#include "src/io/checkpoint.hpp"
#include "src/parallel/decomposition.hpp"

namespace apr::parallel {

/// Transport-frame tag of halo messages.
inline constexpr int kHaloMessageTag = 0x484C4F45;  // "HLOE"

/// Checkpoint-section tag inside a framed halo payload.
inline constexpr std::uint32_t kHaloSectionTag =
    io::fourcc('H', 'S', 'L', 'B');

/// Receiver-side halo plan for one rank: every stored halo slot, grouped
/// by the rank owning its (periodically wrapped) global node and listed in
/// storage (z-major, then y, then x) order. Senders iterate the identical
/// plan, so values travel without any per-node addressing on the wire.
struct HaloPlan {
  struct PeerSlots {
    int peer = -1;
    std::vector<Int3> nodes;  ///< unwrapped stored coordinates
  };
  std::vector<PeerSlots> by_owner;  ///< ascending peer; may include the
                                    ///< receiver itself (periodic self-wrap)

  std::size_t total_slots() const {
    std::size_t n = 0;
    for (const auto& p : by_owner) n += p.nodes.size();
    return n;
  }
};

/// Build the deterministic halo plan for `receiver`. Pure function of the
/// decomposition and halo width -- every rank of every backend derives the
/// same plan without communicating.
HaloPlan build_halo_plan(const BoxDecomposition& decomp, int halo_width,
                         int receiver);

}  // namespace apr::parallel
