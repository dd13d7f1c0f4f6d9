/// Transport-layer tests: loopback semantics, message packing integrity,
/// the fork/socketpair backend, and the cross-backend bit-equality
/// contract (the same decomposition driven over loopback and over real
/// processes must produce byte-identical distributed state).

#include "src/parallel/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/io/checkpoint.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parallel/fork_transport.hpp"
#include "src/parallel/halo.hpp"
#include "src/parallel/metrics_gather.hpp"
#include "src/parallel/packing.hpp"

namespace apr::parallel {
namespace {

std::vector<char> bytes_of(const std::string& s) {
  return std::vector<char>(s.begin(), s.end());
}

TEST(LoopbackTransport, RoundTripPreservesPayload) {
  LoopbackHub hub(2);
  const auto payload = bytes_of("halo slab");
  hub.endpoint(0).send(1, 7, payload);
  EXPECT_EQ(hub.pending(), 1u);
  const auto got = hub.endpoint(1).recv(0, 7);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(hub.pending(), 0u);
  EXPECT_STREQ(hub.endpoint(0).backend(), "loopback");
}

TEST(LoopbackTransport, PerSourceStreamsAreFifo) {
  LoopbackHub hub(3);
  hub.endpoint(0).send(2, 1, bytes_of("a"));
  hub.endpoint(1).send(2, 1, bytes_of("x"));
  hub.endpoint(0).send(2, 1, bytes_of("b"));
  // Streams are FIFO per (src, tag); different sources are independent.
  EXPECT_EQ(hub.endpoint(2).recv(1, 1), bytes_of("x"));
  EXPECT_EQ(hub.endpoint(2).recv(0, 1), bytes_of("a"));
  EXPECT_EQ(hub.endpoint(2).recv(0, 1), bytes_of("b"));
}

TEST(LoopbackTransport, TagsSelectMessageStreams) {
  constexpr int kOtherTag = 0x4F544852;  // "OTHR"
  LoopbackHub hub(2);
  hub.endpoint(0).send(1, kHaloMessageTag, bytes_of("halo"));
  hub.endpoint(0).send(1, kOtherTag, bytes_of("other"));
  EXPECT_EQ(hub.endpoint(1).recv(0, kOtherTag), bytes_of("other"));
  EXPECT_EQ(hub.endpoint(1).recv(0, kHaloMessageTag), bytes_of("halo"));
}

TEST(LoopbackTransport, MissingMessageThrowsInsteadOfDeadlocking) {
  LoopbackHub hub(2);
  EXPECT_THROW(hub.endpoint(1).recv(0, 7), TransportError);
  hub.endpoint(0).send(1, 7, bytes_of("late"));
  EXPECT_THROW(hub.endpoint(1).recv(0, 8), TransportError);  // wrong tag
  EXPECT_THROW(hub.endpoint(1).recv(1, 7), TransportError);  // wrong src
  EXPECT_EQ(hub.endpoint(1).recv(0, 7), bytes_of("late"));
}

TEST(LoopbackTransport, RejectsUnknownPeers) {
  LoopbackHub hub(2);
  EXPECT_THROW(hub.endpoint(0).send(2, 0, {}), TransportError);
  EXPECT_THROW(hub.endpoint(0).send(-1, 0, {}), TransportError);
  EXPECT_THROW(hub.endpoint(2), TransportError);
}

TEST(LoopbackTransport, StatsCountPayloadTraffic) {
  LoopbackHub hub(2);
  hub.endpoint(0).send(1, 3, bytes_of("12345"));
  hub.endpoint(1).recv(0, 3);
  EXPECT_EQ(hub.endpoint(0).stats().messages_sent, 1u);
  EXPECT_EQ(hub.endpoint(0).stats().bytes_sent, 5u);
  EXPECT_EQ(hub.endpoint(1).stats().messages_received, 1u);
  EXPECT_EQ(hub.endpoint(1).stats().bytes_received, 5u);
  hub.endpoint(0).reset_stats();
  EXPECT_EQ(hub.endpoint(0).stats().messages_sent, 0u);
}

TEST(Packing, HaloPlanCoversExactlyTheHaloShell) {
  const BoxDecomposition d({12, 10, 8}, 4, Periodic3{true, true, true});
  for (int r = 0; r < d.num_tasks(); ++r) {
    const HaloPlan plan = build_halo_plan(d, 2, r);
    EXPECT_EQ(static_cast<long long>(plan.total_slots()), d.halo_volume(r, 2));
    int prev = -1;
    for (const auto& peer : plan.by_owner) {
      EXPECT_GT(peer.peer, prev);  // ascending, no duplicates
      prev = peer.peer;
      for (const Int3& n : peer.nodes) {
        EXPECT_EQ(d.rank_of_node(n), peer.peer);
        EXPECT_FALSE(d.task_box(r).contains(n));
      }
    }
  }
}

TEST(Packing, HaloPlanListsNodesInStorageOrder) {
  // Senders and receivers walk the same plan, so each peer's slots must
  // come in z-major, then y, then x order, and two builds must agree.
  const BoxDecomposition d({12, 10, 8}, 4, Periodic3{true, false, true});
  for (int r = 0; r < d.num_tasks(); ++r) {
    const HaloPlan plan = build_halo_plan(d, 1, r);
    const HaloPlan again = build_halo_plan(d, 1, r);
    ASSERT_EQ(plan.by_owner.size(), again.by_owner.size());
    for (std::size_t k = 0; k < plan.by_owner.size(); ++k) {
      const auto& nodes = plan.by_owner[k].nodes;
      EXPECT_EQ(plan.by_owner[k].peer, again.by_owner[k].peer);
      EXPECT_EQ(nodes, again.by_owner[k].nodes);
      EXPECT_TRUE(std::is_sorted(
          nodes.begin(), nodes.end(), [](const Int3& a, const Int3& b) {
            if (a.z != b.z) return a.z < b.z;
            if (a.y != b.y) return a.y < b.y;
            return a.x < b.x;
          }));
    }
  }
}

TEST(Packing, ZeroWidthHaloPlanIsEmpty) {
  const BoxDecomposition d({8, 8, 8}, 4, Periodic3{true, true, true});
  for (int r = 0; r < d.num_tasks(); ++r) {
    const HaloPlan plan = build_halo_plan(d, 0, r);
    EXPECT_TRUE(plan.by_owner.empty());
    EXPECT_EQ(plan.total_slots(), 0u);
  }
}

TEST(Packing, PeriodicSingleRankPlanWrapsOntoItself) {
  // One periodic rank: every halo slot is a wrapped copy of one of its
  // own nodes, so the plan has a single peer, the receiver itself.
  const BoxDecomposition d({6, 5, 4}, 1, Periodic3{true, true, true});
  const HaloPlan plan = build_halo_plan(d, 1, 0);
  ASSERT_EQ(plan.by_owner.size(), 1u);
  EXPECT_EQ(plan.by_owner[0].peer, 0);
  EXPECT_EQ(plan.total_slots(), static_cast<std::size_t>(8 * 7 * 6 - 6 * 5 * 4));
  // Without periodicity there is nothing to store beyond the domain.
  const BoxDecomposition open({6, 5, 4}, 1);
  EXPECT_TRUE(build_halo_plan(open, 1, 0).by_owner.empty());
}

TEST(Packing, HaloMessagesValidateAddressing) {
  const BoxDecomposition d({8, 8, 8}, 2);
  DistributedField f(d, 1);
  f.fill_owned([](const Int3& n) { return n.x + 0.5; });
  const auto msg = f.pack_halo(0, 1);
  // Delivered to the wrong rank: rejected before any state is touched.
  EXPECT_THROW(f.unpack_halo(0, msg), TransportError);
  auto corrupted = msg;
  corrupted[corrupted.size() / 2] ^= 0x01;
  EXPECT_THROW(f.unpack_halo(1, corrupted), io::CheckpointError);
  EXPECT_GT(f.unpack_halo(1, msg), 0u);
}

TEST(ForkTransport, PingPongAcrossProcesses) {
  if (!fork_backend_available()) GTEST_SKIP() << "no fork on this platform";
  ForkOptions opts;
  opts.ranks = 2;
  const int rc = run_forked(opts, [](Transport& t) {
    if (std::string(t.backend()) != "fork") return 10;
    if (t.rank() == 0) {
      t.send(1, 5, bytes_of("ping"));
      if (t.recv(1, 5) != bytes_of("pong")) return 11;
      if (t.stats().messages_sent != 1 || t.stats().bytes_received != 4)
        return 12;
    } else {
      if (t.recv(0, 5) != bytes_of("ping")) return 13;
      t.send(0, 5, bytes_of("pong"));
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST(ForkTransport, ChildFailurePropagates) {
  if (!fork_backend_available()) GTEST_SKIP() << "no fork on this platform";
  ForkOptions opts;
  opts.ranks = 2;
  try {
    run_forked(opts, [](Transport& t) { return t.rank() == 1 ? 3 : 0; });
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos);
  }
}

TEST(ForkTransport, RecvFromSilentPeerTimesOut) {
  if (!fork_backend_available()) GTEST_SKIP() << "no fork on this platform";
  ForkOptions opts;
  opts.ranks = 2;
  opts.timeout_seconds = 0.3;
  // Rank 1 waits for a message rank 0 never sends; the deadline converts
  // the would-be deadlock into a typed failure that propagates.
  EXPECT_THROW(run_forked(opts,
                          [](Transport& t) {
                            if (t.rank() == 1) {
                              t.recv(0, 1);
                              return 1;
                            }
                            return 0;
                          }),
               TransportError);
}

TEST(ForkTransport, ValidatesOptions) {
  if (!fork_backend_available()) GTEST_SKIP() << "no fork on this platform";
  ForkOptions opts;
  opts.ranks = 0;
  EXPECT_THROW(run_forked(opts, [](Transport&) { return 0; }),
               TransportError);
}

TEST(LoopbackTransport, PerPeerStatsAndMetricsMirroring) {
  LoopbackHub hub(3);
  obs::Metrics m;
  hub.endpoint(0).attach_metrics(&m);
  hub.endpoint(0).send(1, 3, bytes_of("12345"));
  hub.endpoint(0).send(2, 3, bytes_of("ab"));
  hub.endpoint(1).send(0, 3, bytes_of("xyz"));
  hub.endpoint(0).recv(1, 3);
  const TransportStats& s = hub.endpoint(0).stats();
  ASSERT_EQ(s.peers.count(1), 1u);
  EXPECT_EQ(s.peers.at(1).messages_sent, 1u);
  EXPECT_EQ(s.peers.at(1).bytes_sent, 5u);
  EXPECT_EQ(s.peers.at(2).bytes_sent, 2u);
  EXPECT_EQ(s.peers.at(1).messages_received, 1u);
  EXPECT_EQ(s.peers.at(1).bytes_received, 3u);
  // The same traffic mirrored into the attached registry.
  EXPECT_EQ(m.counter("transport.send.messages"), 2u);
  EXPECT_EQ(m.counter("transport.send.bytes"), 7u);
  EXPECT_EQ(m.counter("transport.to.rank1.messages"), 1u);
  EXPECT_EQ(m.counter("transport.to.rank2.bytes"), 2u);
  EXPECT_EQ(m.counter("transport.from.rank1.bytes"), 3u);
  EXPECT_EQ(m.histogram("transport.send.seconds").count, 2u);
  EXPECT_EQ(m.histogram("transport.recv.seconds").count, 1u);
  hub.endpoint(0).reset_stats();
  EXPECT_TRUE(hub.endpoint(0).stats().peers.empty());
}

TEST(MetricsGather, DeriveImbalanceComputesGauges) {
  std::vector<obs::Metrics> world(2);
  world[0].observe("step_ms", 10.0);
  world[0].observe("comm_wait_ms", 2.0);
  world[1].observe("step_ms", 30.0);
  world[1].observe("comm_wait_ms", 24.0);
  const obs::Metrics d = derive_imbalance(world, "step_ms", "comm_wait_ms");
  EXPECT_DOUBLE_EQ(d.gauge("world.size"), 2.0);
  EXPECT_DOUBLE_EQ(d.gauge("imbalance.step_ms.max_over_mean"), 1.5);
  EXPECT_DOUBLE_EQ(d.gauge("rank0.comm.wait_fraction"), 0.2);
  EXPECT_DOUBLE_EQ(d.gauge("rank1.comm.wait_fraction"), 0.8);
  EXPECT_DOUBLE_EQ(d.gauge("comm.wait_fraction.max"), 0.8);
  EXPECT_DOUBLE_EQ(d.gauge("comm.wait_fraction.mean"), 0.5);
  // Merged rendering: one line per rank, one derived line, byte-stable.
  const std::string a = merged_metrics_jsonl(world, "step_ms", "comm_wait_ms");
  EXPECT_EQ(a, merged_metrics_jsonl(world, "step_ms", "comm_wait_ms"));
  EXPECT_EQ(std::count(a.begin(), a.end(), '\n'), 3);
}

TEST(ForkTransport, GatherMetricsAndExchangePhases) {
  if (!fork_backend_available()) GTEST_SKIP() << "no fork on this platform";
  ForkOptions opts;
  opts.ranks = 3;
  const int rc = run_forked(opts, [](Transport& t) {
    const BoxDecomposition d({24, 12, 12}, t.size());
    DistributedField f(d, 1);
    obs::Metrics m;
    f.attach_metrics(&m);
    f.fill_owned([](const Int3& n) { return n.x + 2.0 * n.y; });
    f.exchange(t);
    const ExchangePhases& ph = f.last_exchange_phases();
    if (!(ph.pack_seconds > 0.0)) return 50;
    if (!(ph.wire_seconds > 0.0)) return 51;
    if (!(ph.unpack_seconds > 0.0)) return 52;
    if (m.histogram("parallel.exchange.wire.seconds").count != 1) return 53;
    m.set_rank(t.rank(), t.size());
    m.set_gauge("answer", 10.0 * t.rank());
    m.observe("step_ms", 1.0 + t.rank());
    const std::vector<obs::Metrics> world = gather_metrics(t, m);
    if (t.rank() != 0) return world.empty() ? 0 : 54;
    if (world.size() != 3u) return 55;
    for (int r = 0; r < 3; ++r) {
      const obs::Metrics& mr = world[static_cast<std::size_t>(r)];
      if (mr.gauge("rank") != r) return 56;
      if (mr.gauge("answer") != 10.0 * r) return 57;
      if (mr.histogram("step_ms").count != 1) return 58;
      if (mr.histogram("step_ms").sum != 1.0 + r) return 59;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST(ForkTransport, TraceArmedRunEmitsParentSpansExactlyOnce) {
  if (!fork_backend_available()) GTEST_SKIP() << "no fork on this platform";
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  { OBS_SPAN("test", "parent_side_span"); }
  const std::string base =
      std::string(::testing::TempDir()) + "/fork_trace.json";
  ForkOptions opts;
  opts.ranks = 2;
  opts.trace_path = base;
  const int rc = run_forked(opts, [](Transport& t) {
    // run_forked arms each process with its own rank identity.
    if (!obs::Tracer::instance().enabled()) return 40;
    if (obs::Tracer::instance().rank() != t.rank()) return 41;
    if (obs::Tracer::instance().world_size() != t.size()) return 42;
    OBS_SPAN("test", "child_side_span");
    return 0;
  });
  const bool still_enabled = tracer.enabled();
  const std::size_t leftover = tracer.event_count();
  tracer.set_enabled(false);
  tracer.clear();
  EXPECT_EQ(rc, 0);
  // Parent-side state restored: the pre-run enabled flag survives and the
  // parent's buffered spans were flushed into rank 0's file, not kept.
  EXPECT_TRUE(still_enabled);
  EXPECT_EQ(leftover, 0u);

  const auto read_file = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  };
  const auto count = [](const std::string& hay, const std::string& needle) {
    int n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  const std::string r0 = read_file(obs::rank_trace_path(base, 0));
  const std::string r1 = read_file(obs::rank_trace_path(base, 1));
  // The span recorded before the fork belongs to rank 0 (the parent)
  // alone; the fork-inheritance quiesce keeps it out of every child.
  EXPECT_EQ(count(r0, "parent_side_span"), 1);
  EXPECT_EQ(count(r1, "parent_side_span"), 0);
  EXPECT_EQ(count(r0, "child_side_span"), 1);
  EXPECT_EQ(count(r1, "child_side_span"), 1);
  // Both files carry multi-rank lane metadata.
  EXPECT_EQ(count(r0, "rank 0/2"), 1);
  EXPECT_EQ(count(r1, "rank 1/2"), 1);
}

void relax_owned(DistributedField& f, int r);

/// Run `iters` halo-exchange + Jacobi-relax rounds on the loopback
/// backend and return every rank's store digest.
std::vector<std::uint64_t> loopback_digests(const BoxDecomposition& d,
                                            int halo, int iters) {
  DistributedField f(d, halo);
  f.fill_owned([](const Int3& n) {
    return 1.0 * n.x + 100.0 * n.y + 10000.0 * n.z;
  });
  for (int it = 0; it < iters; ++it) {
    f.exchange();
    for (int r = 0; r < d.num_tasks(); ++r) {
      relax_owned(f, r);
    }
  }
  std::vector<std::uint64_t> digests;
  for (int r = 0; r < d.num_tasks(); ++r) digests.push_back(f.store_digest(r));
  return digests;
}

/// One Jacobi-style sweep over rank `r`'s owned nodes using only values
/// rank `r` stores -- the same code runs inside forked processes, so the
/// arithmetic (and therefore every bit of the result) is identical.
void relax_owned(DistributedField& f, int r) {
  const BoxDecomposition& d = f.decomposition();
  const TaskBox box = d.task_box(r);
  std::vector<double> next;
  next.reserve(static_cast<std::size_t>(box.num_nodes()));
  for (int z = box.lo.z; z < box.hi.z; ++z) {
    for (int y = box.lo.y; y < box.hi.y; ++y) {
      for (int x = box.lo.x; x < box.hi.x; ++x) {
        double sum = f.at(r, {x, y, z});
        int count = 1;
        for (const Int3 dn : {Int3{1, 0, 0}, Int3{-1, 0, 0}, Int3{0, 1, 0},
                              Int3{0, -1, 0}, Int3{0, 0, 1}, Int3{0, 0, -1}}) {
          const Int3 nb = Int3{x, y, z} + dn;
          if (!f.stores(r, nb)) continue;
          sum += f.at(r, nb);
          ++count;
        }
        next.push_back(sum / count);
      }
    }
  }
  std::size_t k = 0;
  for (int z = box.lo.z; z < box.hi.z; ++z) {
    for (int y = box.lo.y; y < box.hi.y; ++y) {
      for (int x = box.lo.x; x < box.hi.x; ++x) {
        f.at(r, {x, y, z}) = next[k++];
      }
    }
  }
}

class CrossBackend : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CrossBackend, BitEqualGoldenState) {
  if (!fork_backend_available()) GTEST_SKIP() << "no fork on this platform";
  const int tasks = std::get<0>(GetParam());
  const bool periodic = std::get<1>(GetParam());
  const Int3 dims{12, 10, 8};
  const int halo = 2;
  const int iters = 3;
  const BoxDecomposition d(dims, tasks,
                           Periodic3{periodic, periodic, periodic});
  const std::vector<std::uint64_t> golden = loopback_digests(d, halo, iters);

  constexpr int kDigestTag = 77;
  ForkOptions opts;
  opts.ranks = tasks;
  const int rc = run_forked(opts, [&](Transport& t) {
    DistributedField f(d, halo);
    f.fill_owned([](const Int3& n) {
      return 1.0 * n.x + 100.0 * n.y + 10000.0 * n.z;
    });
    for (int it = 0; it < iters; ++it) {
      f.exchange(t);
      relax_owned(f, t.rank());
    }
    const std::uint64_t digest = f.store_digest(t.rank());
    if (t.rank() != 0) {
      std::vector<char> msg(sizeof(digest));
      std::memcpy(msg.data(), &digest, sizeof(digest));
      t.send(0, kDigestTag, msg);
      return 0;
    }
    // Rank 0 audits the whole fleet against the loopback golden state.
    if (digest != golden[0]) return 40;
    for (int r = 1; r < t.size(); ++r) {
      const auto msg = t.recv(r, kDigestTag);
      std::uint64_t got = 0;
      if (msg.size() != sizeof(got)) return 41;
      std::memcpy(&got, msg.data(), sizeof(got));
      if (got != golden[static_cast<std::size_t>(r)]) return 42;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0) << "fork-backend state diverged from loopback";
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndWrap, CrossBackend,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "ranks" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_periodic" : "_open");
    });

}  // namespace
}  // namespace apr::parallel
