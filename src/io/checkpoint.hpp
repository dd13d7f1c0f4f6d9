#pragma once

/// \file checkpoint.hpp
/// Versioned, integrity-checked binary checkpointing.
///
/// Long window-tracking runs (the paper's Fig. 9 ran for days of wall time)
/// need restartability, so simulation state is persisted in a single
/// chunked container:
///
///   [magic u64][format version u32][section count u32]
///   then per section: [tag u32][payload size u64][payload][crc32 u32]
///
/// Every section payload carries its own CRC-32; the reader validates the
/// magic, version, section framing and every CRC *before* returning, so a
/// truncated, bit-flipped or foreign file is rejected as a typed
/// `CheckpointError` without any state having been touched. Writers of
/// higher-level state (AprSimulation::load_checkpoint) keep the same
/// strong guarantee by deserializing and validating everything into
/// staging structs first and mutating the live objects only afterwards.
///
/// `LatticeState` and `CellPoolState` are the full-fidelity snapshots of
/// the two stateful objects: distributions, node metadata, the macroscopic
/// caches that the IBM reads at nodes `update_macroscopic()` never rewrites,
/// collision configuration and counters for the lattice; ids, vertex
/// positions and velocities plus a reference-state digest of the membrane
/// model for cell pools. `save -> load` round-trips bit-exactly, and a
/// lattice snapshot is never sized by the lattice's bounding box.

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/cells/cell_pool.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::io {

/// Typed failure of checkpoint save/load: unreadable file, bad magic,
/// unsupported version, truncation, CRC mismatch, missing section, or
/// state incompatible with the target object. Loading never applies a
/// partial mutation: when this is thrown the target is unchanged.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `crc` chains
/// multi-buffer computations; start from 0.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc = 0);

/// FNV-1a 64-bit streaming hash; used for section digests and for the
/// membrane-model reference-state fingerprint.
class Fnv1a {
 public:
  void update(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  template <typename T>
  void update_pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    update(&v, sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Append-only byte buffer with POD and vector helpers (host byte order;
/// checkpoints are not an interchange format).
class BufWriter {
 public:
  BufWriter() = default;
  /// Reserve the final size up front when the caller knows it: one
  /// allocation of the right size instead of a doubling series, which
  /// costs copies and leaves free holes behind in the heap.
  explicit BufWriter(std::size_t size) { buf_.reserve(size); }

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<std::uint64_t>(v.size()));
    bytes(v.data(), v.size() * sizeof(T));
  }
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const char*>(p);
    buf_.insert(buf_.end(), c, c + n);
  }
  std::vector<char> take() { return std::move(buf_); }

 private:
  std::vector<char> buf_;
};

/// Bounds-checked reader over a section payload; every overrun throws
/// CheckpointError naming the section being parsed.
class BufReader {
 public:
  BufReader(const std::vector<char>& buf, std::string what)
      : p_(buf.data()), end_(buf.data() + buf.size()), what_(std::move(what)) {}

  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
  }
  template <typename T>
  T pod() {
    T v{};
    pod(v);
    return v;
  }
  /// Read a length-prefixed vector; `max_count` guards against a corrupt
  /// length field requesting an absurd allocation.
  template <typename T>
  void vec(std::vector<T>& v, std::uint64_t max_count) {
    const auto count = pod<std::uint64_t>();
    if (count > max_count) {
      throw CheckpointError("checkpoint: " + what_ +
                            " section has implausible element count");
    }
    v.clear();
    append(v, count);
  }
  /// Append `count` elements to `v` once the payload is known to hold
  /// them (also the block slices of the lattice section).
  template <typename T>
  void append(std::vector<T>& v, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(count * sizeof(T));
    v.resize(v.size() + count);
    // Guarded: an empty vector may hold null, an undefined memcpy operand.
    if (count > 0) std::memcpy(&v[v.size() - count], p_, count * sizeof(T));
    p_ += count * sizeof(T);
  }
  /// All payload bytes must have been consumed.
  void expect_end() const {
    if (p_ != end_) {
      throw CheckpointError("checkpoint: trailing bytes in " + what_ +
                            " section");
    }
  }

 private:
  void need(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) {
      throw CheckpointError("checkpoint: truncated " + what_ + " section");
    }
  }
  const char* p_;
  const char* end_;
  std::string what_;
};

constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// The chunked container: an ordered list of (tag, payload) sections.
/// `read` fully validates framing and CRCs; `section` fetches a payload by
/// tag (throwing CheckpointError when absent); `digest` fingerprints the
/// entire content for golden-state regression tests.
class Checkpoint {
 public:
  /// "APRCHKP1" (little-endian) -- rejects pre-container v1 files (which
  /// began with a 32-bit magic) as foreign.
  static constexpr std::uint64_t kMagic = 0x31504B4843525041ull;
  /// The one version check: bumped on any section layout change, and the
  /// reader accepts no other version (no per-section revisions).
  static constexpr std::uint32_t kFormatVersion = 3;

  void add(std::uint32_t tag, std::vector<char> payload);
  bool has(std::uint32_t tag) const;
  const std::vector<char>& section(std::uint32_t tag) const;

  /// Section tags in file order. Lets message-shaped containers (the
  /// parallel transport's halo payloads) assert they hold exactly the
  /// expected sections before touching any payload.
  std::vector<std::uint32_t> tags() const;

  void write(const std::string& path) const;
  static Checkpoint read(const std::string& path);

  /// The container serialized to its on-disk byte layout (write() is
  /// to_bytes() plus one stream write). Lets callers round-trip a
  /// checkpoint entirely in memory -- e.g. the health watchdog's rolling
  /// rollback point.
  std::vector<char> to_bytes() const;

  /// Parse and fully validate a byte image (identical framing/CRC checks
  /// to read()); `what` names the source in error messages.
  static Checkpoint from_bytes(const std::vector<char>& bytes,
                               const std::string& what = "<memory>");

  /// FNV-1a over (tag, size, payload) of every section in file order.
  std::uint64_t digest() const;

  /// Exact on-disk size in bytes (framing + payloads) without
  /// serializing; write() produces exactly this many bytes. Used by the
  /// metrics layer to report checkpoint sizes cheaply.
  std::size_t byte_size() const;

 private:
  std::vector<std::pair<std::uint32_t, std::vector<char>>> sections_;
};

/// Full-fidelity snapshot of one lbm::Lattice. In addition to the
/// distributions and per-node metadata this carries the macroscopic
/// rho/u caches (IBM interpolation reads the velocity cache at Wall and
/// Exterior nodes, which update_macroscopic() never rewrites -- they are
/// genuine state), the collision configuration, the body force and
/// the site-update counter, so `capture -> apply` reproduces the lattice
/// bit-exactly. Per-node state covers only the 16^3 `blocks` that differ
/// from a vacant node, in the wire layout: back to back, each clipped to
/// the box and x-fastest, `f` q-major per block.
struct LatticeState {
  int nx = 0, ny = 0, nz = 0;
  Vec3 origin{};
  double dx = 0.0;
  std::uint8_t collision = 0;  ///< lbm::CollisionModel
  double trt_magic = 3.0 / 16.0;
  std::uint8_t periodic[3] = {0, 0, 0};
  std::uint8_t ubc_nonzero = 0;
  Vec3 body_force{};
  std::uint64_t site_updates = 0;
  /// Baseline tau of nodes whose tile is not resident.
  double default_tau = 1.0;
  std::vector<std::uint32_t> blocks;  ///< kept block ids, ascending
  std::vector<std::uint8_t> type;     ///< one per kept node
  std::vector<double> tau;            ///< one per kept node
  std::vector<Vec3> ubc;              ///< one per kept node
  std::vector<double> f;              ///< kQ per kept node
  std::vector<double> rho;            ///< one per kept node
  std::vector<Vec3> u;                ///< one per kept node

  static LatticeState capture(const lbm::Lattice& lat);
  /// Position of node i in the per-node arrays; throws unless it is kept.
  std::size_t node_pos(std::size_t i) const;
  /// Throws CheckpointError unless `lat` has the same node counts and
  /// spacing and the per-node arrays match the block list.
  void validate_geometry(const lbm::Lattice& lat) const;
  /// Overwrite every per-node field and configuration flag of `lat`
  /// (which must pass validate_geometry). Does not change the origin.
  /// Visits the kept blocks and the target's resident tiles; a resident
  /// tile whose restored state is entirely default is released again, so
  /// the target ends up exactly as sparse as the saved lattice was.
  void apply(lbm::Lattice& lat) const;

  /// Wire format: the header, then each kept block's id and field slices.
  /// Because blocks are kept by content, a lattice in dense reference
  /// mode and its tiled twin serialize byte-identically.
  std::vector<char> serialize() const;
  static LatticeState deserialize(const std::vector<char>& payload,
                                  std::string what);
};

/// Fingerprint of a membrane model's FEM reference state: reference vertex
/// positions, triangle connectivity and material parameters. Stored with
/// every cell-pool section so a checkpoint can never be silently restored
/// against a different unstressed shape or stiffness.
std::uint64_t membrane_model_digest(const fem::MembraneModel& model);

/// Snapshot of a CellPool's live cells in slot order: global ids, vertex
/// positions and velocities (forces are cleared and recomputed at the
/// start of every FSI sub-step, so they are scratch, not state).
struct CellPoolState {
  std::uint32_t nv = 0;
  std::uint64_t model_digest = 0;
  std::vector<std::uint64_t> ids;
  std::vector<Vec3> x;  ///< ids.size() * nv
  std::vector<Vec3> v;  ///< ids.size() * nv

  static CellPoolState capture(const cells::CellPool& pool);
  /// Throws CheckpointError unless the pool's model matches the recorded
  /// vertex count and reference digest and has room for the cells.
  void validate(const cells::CellPool& pool) const;
  /// Append the cells in slot order (call on a pool that passed validate;
  /// typically a freshly constructed one, so slot layout round-trips).
  void apply(cells::CellPool& pool) const;

  std::vector<char> serialize() const;
  static CellPoolState deserialize(const std::vector<char>& payload,
                                   std::string what);
};

}  // namespace apr::io
