#pragma once

/// \file halo.hpp
/// Halo exchange over a BoxDecomposition. Each task stores its owned block
/// plus a halo shell (wrapped across the seam on periodic axes); exchange()
/// moves owned boundary layers into neighbouring tasks' halos as
/// pack -> transport -> unpack: the deterministic HaloPlan (packing.hpp)
/// orders each halo slab, the slab is serialized through the io::Checkpoint
/// section framing, and a parallel::Transport ships the resulting
/// messages -- the in-process loopback fabric for `exchange()`, or any
/// per-rank backend (the fork/socketpair one included) for
/// `exchange(Transport&)`. Byte counts, message counts and exchange
/// latency feed the scaling performance model (src/perf) and, when
/// attached, the obs::Metrics registry.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/parallel/decomposition.hpp"
#include "src/parallel/transport.hpp"

namespace apr::obs {
class Metrics;
}

namespace apr::parallel {

/// Wall time one exchange(Transport&) spent in each protocol phase.
/// pack: self-wrap copies + serializing every outgoing slab (pure local
/// compute); wire: the send/recv sweep (transfer plus blocking wait --
/// the comm-wait signal straggler analysis keys on); unpack: scattering
/// buffered inbound slabs into the halo shell (pure local compute).
struct ExchangePhases {
  double pack_seconds = 0.0;
  double wire_seconds = 0.0;
  double unpack_seconds = 0.0;
};

/// A scalar field distributed over the tasks of a BoxDecomposition with a
/// fixed-width halo shell.
class DistributedField {
 public:
  DistributedField(const BoxDecomposition& decomp, int halo_width);

  const BoxDecomposition& decomposition() const { return *decomp_; }
  int halo_width() const { return halo_; }

  /// Access the value stored by `rank` for node `n`, given either as a
  /// global lattice node or as an unwrapped stored coordinate (halo slots
  /// beyond a periodic seam). Global nodes that alias a stored slot across
  /// the wrap resolve to that slot; the direct coordinate wins when both
  /// views match.
  double& at(int rank, const Int3& n);
  double at(int rank, const Int3& n) const;

  /// Does rank store (own or halo) this node?
  bool stores(int rank, const Int3& n) const;
  bool owns(int rank, const Int3& n) const;

  /// Set every task's owned values from a function of the global node.
  template <typename Fn>
  void fill_owned(Fn&& fn) {
    for (int r = 0; r < decomp_->num_tasks(); ++r) {
      const TaskBox box = decomp_->task_box(r);
      for (int z = box.lo.z; z < box.hi.z; ++z) {
        for (int y = box.lo.y; y < box.hi.y; ++y) {
          for (int x = box.lo.x; x < box.hi.x; ++x) {
            at(r, {x, y, z}) = fn(Int3{x, y, z});
          }
        }
      }
    }
  }

  /// Exchange every rank's halo in-process over the loopback fabric
  /// (pack -> send-all -> recv-all -> unpack; bit-identical to the
  /// historical owner-pull exchange). Returns the number of values moved
  /// this call; bytes_exchanged() accumulates.
  std::size_t exchange();

  /// Exchange only rank `t.rank()`'s halo over an external transport
  /// (symmetric call on every rank; deadlock-free pairwise ordering).
  /// Requires a blocking-capable backend such as the fork transport.
  std::size_t exchange(Transport& t);

  /// Serialize the owned values `owner` must ship into `receiver`'s halo
  /// this exchange: a one-section ('HSLB') io::Checkpoint container.
  std::vector<char> pack_halo(int owner, int receiver) const;

  /// Validate framing/CRC/addressing and scatter a packed halo message
  /// into `receiver`'s halo slots. Returns the number of values written.
  std::size_t unpack_halo(int receiver, const std::vector<char>& message);

  /// FNV-1a fingerprint of everything rank `rank` stores (bounds + owned +
  /// halo values). The cross-backend bit-equality contract compares these
  /// digests between loopback and fork runs.
  std::uint64_t store_digest(int rank) const;

  /// Mirror exchange traffic into `m` ("parallel.exchange.*" counters and
  /// a latency histogram). Pass nullptr to detach.
  void attach_metrics(obs::Metrics* m) { metrics_ = m; }

  std::uint64_t bytes_exchanged() const { return bytes_; }
  std::uint64_t messages_exchanged() const { return messages_; }
  std::uint64_t exchange_count() const { return exchanges_; }
  double last_exchange_seconds() const { return last_seconds_; }
  /// Wall time each rank spent packing/moving/unpacking in the last
  /// loopback exchange() (empty before the first exchange). For
  /// exchange(Transport&) only the calling rank's entry is meaningful.
  const std::vector<double>& last_rank_seconds() const {
    return rank_seconds_;
  }
  /// Phase split of the calling rank's last / accumulated
  /// exchange(Transport&) calls (zeros for the loopback exchange(),
  /// which interleaves all ranks in one process).
  const ExchangePhases& last_exchange_phases() const { return last_phases_; }
  const ExchangePhases& total_exchange_phases() const {
    return total_phases_;
  }

 private:
  const BoxDecomposition* decomp_;
  int halo_;
  struct TaskStore {
    Int3 lo;  // stored box (owned + halo; unwrapped on periodic axes)
    Int3 hi;
    std::vector<double> data;
  };
  /// Cached exchange plan for one receiving rank: per owning peer, the
  /// gather slots in the owner's store and the matching scatter slots in
  /// the receiver's store, in deterministic storage order.
  struct PeerPlan {
    int peer = -1;
    std::vector<std::size_t> src_slots;
    std::vector<std::size_t> dst_slots;
  };
  struct RankPlan {
    std::vector<PeerPlan> recv;  ///< ascending peer; may include the rank
    std::vector<int> send_to;    ///< receivers this rank packs for
  };

  std::vector<TaskStore> stores_;
  std::vector<RankPlan> plans_;
  bool plans_built_ = false;
  std::unique_ptr<LoopbackHub> hub_;
  obs::Metrics* metrics_ = nullptr;

  std::uint64_t bytes_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t exchanges_ = 0;
  double last_seconds_ = 0.0;
  std::vector<double> rank_seconds_;
  ExchangePhases last_phases_;
  ExchangePhases total_phases_;

  std::size_t local_index(const TaskStore& s, const Int3& n) const;
  bool locate(const TaskStore& s, const Int3& n, std::size_t* index) const;
  void ensure_plans();
  void record_exchange(std::size_t moved, std::uint64_t sent_messages,
                       double seconds);
  std::size_t copy_self_wrap(int rank);
};

}  // namespace apr::parallel
