#pragma once

/// \file transport.hpp
/// Message *movement* behind the decomposition layer. Buffer packing
/// (packing.hpp) produces opaque byte payloads; a Transport ships them
/// between ranks. Two backends implement the interface:
///
///   - LoopbackHub/loopback endpoints: all ranks live in one process and
///     messages move through in-memory mailboxes. This preserves the
///     pre-transport simulated-MPI behaviour bit-for-bit and is what unit
///     tests and the perf model drive.
///   - The fork/socketpair backend (fork_transport.hpp): every rank is a
///     real OS process and messages move through AF_UNIX stream sockets
///     with per-message framing, CRC validation, send/recv deadlines and
///     retry-with-backoff on transient errors.
///
/// The contract both backends honor: messages between a (src, dst) pair
/// are delivered in send order, payloads arrive byte-identical, and
/// `recv(src, tag)` returns exactly one message whose frame carries that
/// source and tag. Cross-backend bit-equality of the halo-exchange state
/// is enforced by tests/test_transport.cpp and the tools/transport_smoke
/// golden harness.
///
/// Observability is centralized in the base class: the public send/recv
/// are non-virtual wrappers that time the backend's do_send/do_recv,
/// account global and per-peer traffic into TransportStats, emit
/// "transport" trace spans when the tracer is armed, and mirror the
/// accounting into an attached obs::Metrics registry -- so comm-wait cost
/// is measured identically on every backend.

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

namespace apr::obs {
class Metrics;
}

namespace apr::parallel {

/// Failure of message movement: unknown peer, framing/CRC corruption,
/// deadline expiry after retries, or a peer that died mid-protocol.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Traffic between this endpoint and one peer rank. send/recv seconds are
/// wall-clock time spent inside the backend call -- for blocking receives
/// this is the comm-wait signal the imbalance analysis keys on.
struct PeerTraffic {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  double send_seconds = 0.0;
  double recv_seconds = 0.0;
};

/// Per-endpoint traffic accounting, surfaced into obs::Metrics by the
/// callers (DistributedField::attach_metrics, bench/fig7_strong_scaling).
struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;      ///< payload bytes (framing excluded)
  std::uint64_t bytes_received = 0;  ///< payload bytes (framing excluded)
  std::uint64_t retries = 0;         ///< transient-error retries (fork backend)
  double send_seconds = 0.0;
  double recv_seconds = 0.0;
  /// Per-peer breakdown of the totals above, keyed by peer rank.
  std::map<int, PeerTraffic> peers;
};

/// One rank's view of the message fabric.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Human-readable backend name ("loopback", "fork").
  virtual const char* backend() const = 0;

  /// Ship `payload` to `dest`. Payloads are opaque; `tag` disambiguates
  /// message streams (halo vs harness control traffic).
  /// Non-virtual: times and accounts the backend's do_send, records a
  /// "transport"/"send" span when tracing is armed, and mirrors counters
  /// into an attached metrics registry.
  void send(int dest, int tag, const std::vector<char>& payload);

  /// Receive the next message from `src`; its frame must carry `tag`.
  /// Instrumented like send (span name "recv"; blocking time observed
  /// into the transport.recv.seconds histogram).
  std::vector<char> recv(int src, int tag);

  const TransportStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Mirror traffic accounting into `metrics` on every send/recv:
  /// counters transport.{send,recv}.{messages,bytes} and per-peer
  /// transport.{to,from}.rank<P>.{messages,bytes}, histograms
  /// transport.{send,recv}.seconds. Pass nullptr to detach. The registry
  /// must outlive the transport (or be detached first).
  void attach_metrics(obs::Metrics* metrics) { metrics_ = metrics; }

 protected:
  virtual void do_send(int dest, int tag, const std::vector<char>& payload) = 0;
  virtual std::vector<char> do_recv(int src, int tag) = 0;

  TransportStats stats_;
  obs::Metrics* metrics_ = nullptr;
};

/// In-process fabric simulating `size` ranks: a mailbox per destination,
/// FIFO per (src, tag) stream. Single-threaded by design -- a recv with no
/// matching message already enqueued is a protocol-ordering bug and throws
/// rather than deadlocking.
class LoopbackHub {
 public:
  explicit LoopbackHub(int size);
  ~LoopbackHub();
  LoopbackHub(const LoopbackHub&) = delete;
  LoopbackHub& operator=(const LoopbackHub&) = delete;

  int size() const;

  /// Rank `rank`'s endpoint. Endpoints stay owned by the hub.
  Transport& endpoint(int rank);

  /// Messages currently enqueued across all mailboxes (0 after any
  /// balanced exchange; nonzero means a protocol leak).
  std::size_t pending() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace apr::parallel
