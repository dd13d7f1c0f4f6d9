#include "src/parallel/halo.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "src/io/checkpoint.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parallel/packing.hpp"

namespace apr::parallel {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

DistributedField::DistributedField(const BoxDecomposition& decomp,
                                   int halo_width)
    : decomp_(&decomp), halo_(halo_width) {
  if (halo_width < 0) throw std::invalid_argument("DistributedField: halo<0");
  stores_.resize(decomp.num_tasks());
  for (int r = 0; r < decomp.num_tasks(); ++r) {
    const TaskBox box = decomp.stored_box(r, halo_);
    TaskStore& s = stores_[r];
    s.lo = box.lo;
    s.hi = box.hi;
    const long long n = static_cast<long long>(s.hi.x - s.lo.x) *
                        (s.hi.y - s.lo.y) * (s.hi.z - s.lo.z);
    s.data.assign(static_cast<std::size_t>(n), 0.0);
  }
}

std::size_t DistributedField::local_index(const TaskStore& s,
                                          const Int3& n) const {
  const int ex = s.hi.x - s.lo.x;
  const int ey = s.hi.y - s.lo.y;
  return (static_cast<std::size_t>(n.z - s.lo.z) * ey + (n.y - s.lo.y)) * ex +
         (n.x - s.lo.x);
}

bool DistributedField::locate(const TaskStore& s, const Int3& n,
                              std::size_t* index) const {
  const Periodic3 per = decomp_->periodic();
  const Int3 dims = decomp_->dims();
  // The direct coordinate plus, on periodic axes, its +-dims images:
  // stored halo slots keep unwrapped coordinates, so a global node may
  // alias a slot across the seam. The direct candidate is tried first.
  int cand[3][3];
  int ncand[3];
  const int nv[3] = {n.x, n.y, n.z};
  for (int a = 0; a < 3; ++a) {
    ncand[a] = 0;
    cand[a][ncand[a]++] = nv[a];
    if (per[a]) {
      cand[a][ncand[a]++] = nv[a] - dims[a];
      cand[a][ncand[a]++] = nv[a] + dims[a];
    }
  }
  for (int k = 0; k < ncand[2]; ++k) {
    for (int j = 0; j < ncand[1]; ++j) {
      for (int i = 0; i < ncand[0]; ++i) {
        const Int3 c{cand[0][i], cand[1][j], cand[2][k]};
        if (c.x >= s.lo.x && c.x < s.hi.x && c.y >= s.lo.y && c.y < s.hi.y &&
            c.z >= s.lo.z && c.z < s.hi.z) {
          if (index != nullptr) *index = local_index(s, c);
          return true;
        }
      }
    }
  }
  return false;
}

bool DistributedField::stores(int rank, const Int3& n) const {
  return locate(stores_.at(rank), n, nullptr);
}

bool DistributedField::owns(int rank, const Int3& n) const {
  return decomp_->task_box(rank).contains(n);
}

double& DistributedField::at(int rank, const Int3& n) {
  TaskStore& s = stores_.at(rank);
  std::size_t idx = 0;
  if (!locate(s, n, &idx)) {
    throw std::out_of_range("DistributedField: node not stored by rank");
  }
  return s.data[idx];
}

double DistributedField::at(int rank, const Int3& n) const {
  const TaskStore& s = stores_.at(rank);
  std::size_t idx = 0;
  if (!locate(s, n, &idx)) {
    throw std::out_of_range("DistributedField: node not stored by rank");
  }
  return s.data[idx];
}

void DistributedField::ensure_plans() {
  if (plans_built_) return;
  const int tasks = decomp_->num_tasks();
  plans_.assign(static_cast<std::size_t>(tasks), {});
  for (int r = 0; r < tasks; ++r) {
    const HaloPlan plan = build_halo_plan(*decomp_, halo_, r);
    RankPlan& rp = plans_[r];
    rp.recv.reserve(plan.by_owner.size());
    for (const auto& peer : plan.by_owner) {
      PeerPlan pp;
      pp.peer = peer.peer;
      pp.src_slots.reserve(peer.nodes.size());
      pp.dst_slots.reserve(peer.nodes.size());
      const TaskStore& src = stores_.at(peer.peer);
      const TaskStore& dst = stores_.at(r);
      for (const Int3& node : peer.nodes) {
        pp.src_slots.push_back(local_index(src, decomp_->wrap(node)));
        pp.dst_slots.push_back(local_index(dst, node));
      }
      rp.recv.push_back(std::move(pp));
    }
  }
  for (int r = 0; r < tasks; ++r) {
    for (const PeerPlan& pp : plans_[r].recv) {
      if (pp.peer != r) plans_[pp.peer].send_to.push_back(r);
    }
  }
  for (int r = 0; r < tasks; ++r) {
    auto& st = plans_[r].send_to;
    std::sort(st.begin(), st.end());
    // The halo relation must be symmetric (equal halo widths both ways);
    // the pairwise wire protocol relies on it.
    std::vector<int> recv_peers;
    for (const PeerPlan& pp : plans_[r].recv) {
      if (pp.peer != r) recv_peers.push_back(pp.peer);
    }
    if (st != recv_peers) {
      throw std::logic_error(
          "DistributedField: asymmetric halo relation (internal error)");
    }
  }
  plans_built_ = true;
}

std::vector<char> DistributedField::pack_halo(int owner, int receiver) const {
  const_cast<DistributedField*>(this)->ensure_plans();
  const RankPlan& rp = plans_.at(receiver);
  const PeerPlan* pp = nullptr;
  for (const PeerPlan& cand : rp.recv) {
    if (cand.peer == owner) {
      pp = &cand;
      break;
    }
  }
  const std::size_t count = pp == nullptr ? 0 : pp->src_slots.size();
  io::BufWriter w(3 * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                  count * sizeof(double));
  w.pod(static_cast<std::uint32_t>(owner));
  w.pod(static_cast<std::uint32_t>(receiver));
  w.pod(static_cast<std::uint32_t>(halo_));
  w.pod(static_cast<std::uint64_t>(count));
  if (pp != nullptr) {
    const TaskStore& src = stores_.at(owner);
    for (std::size_t slot : pp->src_slots) {
      w.pod(src.data[slot]);
    }
  }
  io::Checkpoint msg;
  msg.add(kHaloSectionTag, w.take());
  return msg.to_bytes();
}

std::size_t DistributedField::unpack_halo(int receiver,
                                          const std::vector<char>& message) {
  ensure_plans();
  const io::Checkpoint msg =
      io::Checkpoint::from_bytes(message, "halo message");
  if (msg.tags() != std::vector<std::uint32_t>{kHaloSectionTag}) {
    throw TransportError("halo message: unexpected section layout");
  }
  io::BufReader r(msg.section(kHaloSectionTag), "halo slab");
  const auto owner = static_cast<int>(r.pod<std::uint32_t>());
  const auto to = static_cast<int>(r.pod<std::uint32_t>());
  const auto width = static_cast<int>(r.pod<std::uint32_t>());
  if (owner < 0 || owner >= decomp_->num_tasks()) {
    throw TransportError("halo message: owner rank out of range");
  }
  if (to != receiver) {
    throw TransportError("halo message: addressed to rank " +
                         std::to_string(to) + ", expected " +
                         std::to_string(receiver));
  }
  if (width != halo_) {
    throw TransportError("halo message: halo width mismatch");
  }
  const auto count = r.pod<std::uint64_t>();
  const RankPlan& rp = plans_.at(receiver);
  const PeerPlan* pp = nullptr;
  for (const PeerPlan& cand : rp.recv) {
    if (cand.peer == owner) {
      pp = &cand;
      break;
    }
  }
  const std::size_t expected = pp == nullptr ? 0 : pp->dst_slots.size();
  if (count != expected) {
    throw TransportError("halo message: slot count " + std::to_string(count) +
                         " does not match the receiver plan (" +
                         std::to_string(expected) + ")");
  }
  TaskStore& dst = stores_.at(receiver);
  for (std::uint64_t i = 0; i < count; ++i) {
    dst.data[pp->dst_slots[static_cast<std::size_t>(i)]] = r.pod<double>();
  }
  r.expect_end();
  return static_cast<std::size_t>(count);
}

std::size_t DistributedField::copy_self_wrap(int rank) {
  std::size_t moved = 0;
  TaskStore& s = stores_.at(rank);
  for (const PeerPlan& pp : plans_.at(rank).recv) {
    if (pp.peer != rank) continue;
    for (std::size_t i = 0; i < pp.src_slots.size(); ++i) {
      s.data[pp.dst_slots[i]] = s.data[pp.src_slots[i]];
      ++moved;
    }
  }
  return moved;
}

std::size_t DistributedField::exchange() {
  OBS_SPAN("parallel", "halo_exchange");
  ensure_plans();
  const int tasks = decomp_->num_tasks();
  if (!hub_ || hub_->size() != tasks) {
    hub_ = std::make_unique<LoopbackHub>(tasks);
  }
  const auto t_all = std::chrono::steady_clock::now();
  rank_seconds_.assign(static_cast<std::size_t>(tasks), 0.0);
  std::size_t moved = 0;
  std::uint64_t msgs = 0;
  // Phase A: every rank resolves its periodic self-wrap slots locally and
  // ships one packed slab per remote receiver.
  for (int r = 0; r < tasks; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    moved += copy_self_wrap(r);
    for (int rcv : plans_[r].send_to) {
      hub_->endpoint(r).send(rcv, kHaloMessageTag, pack_halo(r, rcv));
      ++msgs;
    }
    rank_seconds_[static_cast<std::size_t>(r)] += seconds_since(t0);
  }
  // Phase B: every rank drains its inbound slabs into its halo shell.
  for (int r = 0; r < tasks; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const PeerPlan& pp : plans_[r].recv) {
      if (pp.peer == r) continue;
      moved += unpack_halo(
          r, hub_->endpoint(r).recv(pp.peer, kHaloMessageTag));
    }
    rank_seconds_[static_cast<std::size_t>(r)] += seconds_since(t0);
  }
  record_exchange(moved, msgs, seconds_since(t_all));
  return moved;
}

std::size_t DistributedField::exchange(Transport& t) {
  OBS_SPAN("parallel", "halo_exchange_transport");
  ensure_plans();
  if (t.size() != decomp_->num_tasks()) {
    throw TransportError(
        "DistributedField::exchange: transport world size " +
        std::to_string(t.size()) + " != task count " +
        std::to_string(decomp_->num_tasks()));
  }
  const int rank = t.rank();
  const auto t0 = std::chrono::steady_clock::now();
  rank_seconds_.assign(static_cast<std::size_t>(decomp_->num_tasks()), 0.0);
  const std::vector<int>& send_to = plans_.at(rank).send_to;
  ExchangePhases ph;

  // Pack phase: self-wrap copies plus every outgoing slab, serialized
  // before any wire traffic. Packing reads only owned slots and
  // unpacking writes only halo slots, so hoisting it out of the pairwise
  // sweep is bit-identical to the interleaved protocol -- and it keeps
  // wire time from absorbing local serialization cost.
  std::size_t moved = 0;
  std::vector<std::vector<char>> outgoing;
  {
    OBS_SPAN("parallel", "halo_pack");
    const auto tp = std::chrono::steady_clock::now();
    moved = copy_self_wrap(rank);
    outgoing.reserve(send_to.size());
    for (int p : send_to) outgoing.push_back(pack_halo(rank, p));
    ph.pack_seconds = seconds_since(tp);
  }

  // Wire phase: symmetric pairwise sweep, ascending peers, lower rank
  // sends first. Inbound slabs are buffered so the unpack scatter is
  // timed apart from transfer/blocking time.
  std::uint64_t msgs = 0;
  std::vector<std::vector<char>> inbound;
  {
    OBS_SPAN("parallel", "halo_wire");
    const auto tw = std::chrono::steady_clock::now();
    inbound.reserve(send_to.size());
    for (std::size_t i = 0; i < send_to.size(); ++i) {
      const int p = send_to[i];
      if (rank < p) {
        t.send(p, kHaloMessageTag, outgoing[i]);
        ++msgs;
        inbound.push_back(t.recv(p, kHaloMessageTag));
      } else {
        inbound.push_back(t.recv(p, kHaloMessageTag));
        t.send(p, kHaloMessageTag, outgoing[i]);
        ++msgs;
      }
    }
    ph.wire_seconds = seconds_since(tw);
  }

  // Unpack phase: every peer's slab scatters into disjoint halo slots
  // (each halo node has exactly one owner), so the ascending-peer order
  // matches the historical interleaved result bit-for-bit.
  {
    OBS_SPAN("parallel", "halo_unpack");
    const auto tu = std::chrono::steady_clock::now();
    for (const std::vector<char>& msg : inbound) {
      moved += unpack_halo(rank, msg);
    }
    ph.unpack_seconds = seconds_since(tu);
  }

  const double dt = seconds_since(t0);
  rank_seconds_[static_cast<std::size_t>(rank)] = dt;
  last_phases_ = ph;
  total_phases_.pack_seconds += ph.pack_seconds;
  total_phases_.wire_seconds += ph.wire_seconds;
  total_phases_.unpack_seconds += ph.unpack_seconds;
  record_exchange(moved, msgs, dt);
  if (metrics_ != nullptr) {
    metrics_->observe("parallel.exchange.pack.seconds", ph.pack_seconds);
    metrics_->observe("parallel.exchange.wire.seconds", ph.wire_seconds);
    metrics_->observe("parallel.exchange.unpack.seconds", ph.unpack_seconds);
  }
  return moved;
}

void DistributedField::record_exchange(std::size_t moved,
                                       std::uint64_t sent_messages,
                                       double seconds) {
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(moved) * sizeof(double);
  bytes_ += bytes;
  messages_ += sent_messages;
  ++exchanges_;
  last_seconds_ = seconds;
  if (metrics_ != nullptr) {
    metrics_->add_counter("parallel.exchange.bytes", bytes);
    metrics_->add_counter("parallel.exchange.messages", sent_messages);
    metrics_->add_counter("parallel.exchange.count");
    metrics_->observe("parallel.exchange.seconds", seconds);
  }
}

std::uint64_t DistributedField::store_digest(int rank) const {
  const TaskStore& s = stores_.at(rank);
  io::Fnv1a h;
  h.update_pod(s.lo.x);
  h.update_pod(s.lo.y);
  h.update_pod(s.lo.z);
  h.update_pod(s.hi.x);
  h.update_pod(s.hi.y);
  h.update_pod(s.hi.z);
  h.update(s.data.data(), s.data.size() * sizeof(double));
  return h.value();
}

}  // namespace apr::parallel
