#include "src/io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "src/fem/membrane_model.hpp"
#include "src/obs/trace.hpp"
#include "src/mesh/trimesh.hpp"

namespace apr::io {

namespace {

std::string tag_name(std::uint32_t tag) {
  char s[5] = {static_cast<char>(tag & 0xFF),
               static_cast<char>((tag >> 8) & 0xFF),
               static_cast<char>((tag >> 16) & 0xFF),
               static_cast<char>((tag >> 24) & 0xFF), '\0'};
  for (char& c : s) {
    if (c != '\0' && (c < 0x20 || c > 0x7E)) c = '?';
  }
  return std::string(s);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  // Slicing-by-8: t[0] is the bytewise table; t[k][b] is the CRC of byte
  // b followed by k zero bytes, so one step folds eight input bytes.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  const auto le32 = [](const unsigned char* q) {
    return static_cast<std::uint32_t>(q[0]) |
           static_cast<std::uint32_t>(q[1]) << 8 |
           static_cast<std::uint32_t>(q[2]) << 16 |
           static_cast<std::uint32_t>(q[3]) << 24;
  };
  crc = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = crc ^ le32(p);
    const std::uint32_t hi = le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// --- Checkpoint container ---------------------------------------------------

void Checkpoint::add(std::uint32_t tag, std::vector<char> payload) {
  if (has(tag)) {
    throw CheckpointError("checkpoint: duplicate section " + tag_name(tag));
  }
  sections_.emplace_back(tag, std::move(payload));
}

bool Checkpoint::has(std::uint32_t tag) const {
  for (const auto& [t, p] : sections_) {
    if (t == tag) return true;
  }
  return false;
}

const std::vector<char>& Checkpoint::section(std::uint32_t tag) const {
  for (const auto& [t, p] : sections_) {
    if (t == tag) return p;
  }
  throw CheckpointError("checkpoint: missing section " + tag_name(tag));
}

std::vector<std::uint32_t> Checkpoint::tags() const {
  std::vector<std::uint32_t> out;
  out.reserve(sections_.size());
  for (const auto& [t, p] : sections_) out.push_back(t);
  return out;
}

std::vector<char> Checkpoint::to_bytes() const {
  BufWriter w(byte_size());
  w.pod(kMagic);
  w.pod(kFormatVersion);
  w.pod(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [tag, payload] : sections_) {
    w.pod(tag);
    w.pod(static_cast<std::uint64_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    w.pod(crc32(payload.data(), payload.size()));
  }
  return w.take();
}

Checkpoint Checkpoint::from_bytes(const std::vector<char>& bytes,
                                  const std::string& what) {
  // A corrupt size field must not trigger a monster allocation, but a
  // fixed cap would reject legitimately huge lattices, so section sizes
  // are bounded by what the image actually holds.
  std::size_t pos = 0;
  auto get = [&bytes, &pos, &what](auto& v, const char* field) {
    if (bytes.size() - pos < sizeof(v)) {
      throw CheckpointError("checkpoint: truncated " + what +
                            " (while reading " + field + ")");
    }
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    pos += sizeof(v);
  };
  std::uint64_t magic = 0;
  get(magic, "magic");
  if (magic != kMagic) {
    throw CheckpointError("checkpoint: " + what +
                          " is not an APR checkpoint (bad magic)");
  }
  std::uint32_t version = 0;
  get(version, "format version");
  if (version != kFormatVersion) {
    throw CheckpointError(
        "checkpoint: " + what + " has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kFormatVersion) +
        (version > kFormatVersion ? " (file from a newer build?)" : ""));
  }
  std::uint32_t count = 0;
  get(count, "section count");
  Checkpoint ckpt;
  for (std::uint32_t s = 0; s < count; ++s) {
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    get(tag, "section tag");
    get(size, "section size");
    if (bytes.size() - pos < size) {
      throw CheckpointError("checkpoint: truncated " + what + " (section " +
                            tag_name(tag) +
                            " claims more bytes than the image holds)");
    }
    std::vector<char> payload(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                              bytes.begin() +
                                  static_cast<std::ptrdiff_t>(pos + size));
    pos += size;
    std::uint32_t stored_crc = 0;
    get(stored_crc, "section crc");
    const std::uint32_t actual = crc32(payload.data(), payload.size());
    if (actual != stored_crc) {
      char msg[128];
      std::snprintf(msg, sizeof(msg),
                    "checkpoint: CRC mismatch in section %s "
                    "(stored %08X, computed %08X)",
                    tag_name(tag).c_str(), stored_crc, actual);
      throw CheckpointError(std::string(msg) + " of " + what);
    }
    ckpt.add(tag, std::move(payload));
  }
  if (pos != bytes.size()) {
    throw CheckpointError("checkpoint: trailing bytes after the last "
                          "section of " + what);
  }
  return ckpt;
}

std::size_t Checkpoint::byte_size() const {
  // Mirror the framing arithmetic of to_bytes() so metrics can report
  // checkpoint sizes without serializing twice.
  std::size_t n = sizeof(kMagic) + sizeof(kFormatVersion) +
                  sizeof(std::uint32_t);
  for (const auto& [tag, payload] : sections_) {
    n += sizeof(tag) + sizeof(std::uint64_t) + payload.size() +
         sizeof(std::uint32_t);
  }
  return n;
}

void Checkpoint::write(const std::string& path) const {
  OBS_SPAN("io", "checkpoint_write");
  const std::vector<char> bytes = to_bytes();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw CheckpointError("checkpoint: cannot open " + path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os) throw CheckpointError("checkpoint: write failed for " + path);
}

Checkpoint Checkpoint::read(const std::string& path) {
  OBS_SPAN("io", "checkpoint_read");
  std::ifstream is(path, std::ios::binary);
  if (!is) throw CheckpointError("checkpoint: cannot open " + path);
  is.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::size_t>(is.tellg());
  is.seekg(0, std::ios::beg);
  std::vector<char> bytes(file_bytes);
  is.read(bytes.data(), static_cast<std::streamsize>(file_bytes));
  if (!is) throw CheckpointError("checkpoint: cannot read " + path);
  return from_bytes(bytes, path);
}

std::uint64_t Checkpoint::digest() const {
  Fnv1a h;
  for (const auto& [tag, payload] : sections_) {
    h.update_pod(tag);
    h.update_pod(static_cast<std::uint64_t>(payload.size()));
    h.update(payload.data(), payload.size());
  }
  return h.value();
}

// --- LatticeState -----------------------------------------------------------

namespace {

constexpr int kSide = lbm::Lattice::kTileSide;
constexpr std::size_t kQ = lbm::kQ;
/// Wire bytes per node of a block: type, tau, ubc, kQ f, rho, u.
constexpr std::size_t kWireNodeBytes =
    1 + (kQ + 2) * sizeof(double) + 2 * sizeof(Vec3);

/// Calls fn(array, entries per node, vacant-node value) for each per-node
/// array of `st`, in wire order.
template <typename State, typename Fn>
void each_array(State& st, Fn&& fn) {
  fn(st.type, std::size_t{1}, std::uint8_t{0});
  fn(st.tau, std::size_t{1}, st.default_tau);
  fn(st.ubc, std::size_t{1}, Vec3{});
  fn(st.f, kQ, 0.0);
  fn(st.rho, std::size_t{1}, 1.0);
  fn(st.u, std::size_t{1}, Vec3{});
}

/// The header fields in wire order, for BufWriter and BufReader alike.
template <typename Io, typename State>
void header(Io& io, State& st) {
  io.pod(st.nx);
  io.pod(st.ny);
  io.pod(st.nz);
  io.pod(st.origin);
  io.pod(st.dx);
  io.pod(st.collision);
  io.pod(st.trt_magic);
  for (auto& p : st.periodic) io.pod(p);
  io.pod(st.ubc_nonzero);
  io.pod(st.body_force);
  io.pod(st.site_updates);
  io.pod(st.default_tau);
}

/// Counts the bytes header() writes.
struct ByteCount {
  std::size_t n = 0;
  template <typename T>
  void pod(const T&) {
    n += sizeof(T);
  }
};

/// Node box [x0, x1) x [y0, y1) x [z0, z1) of a block, clipped to the box.
struct BlockBox {
  int x0, x1, y0, y1, z0, z1;
  std::size_t nodes() const {
    return static_cast<std::size_t>(x1 - x0) * (y1 - y0) * (z1 - z0);
  }
};

/// Box of block `id`; throws CheckpointError when it is off the lattice.
BlockBox block_box(const LatticeState& st, std::uint32_t id) {
  const std::uint32_t tbx = (st.nx + kSide - 1) / kSide;
  const std::uint32_t tby = (st.ny + kSide - 1) / kSide;
  if (id / tbx / tby >= static_cast<std::uint32_t>(st.nz + kSide - 1) / kSide) {
    throw CheckpointError("checkpoint: lattice block id out of range");
  }
  const int x = id % tbx * kSide, y = id / tbx % tby * kSide,
            z = id / tbx / tby * kSide;
  return {x, std::min(st.nx, x + kSide), y, std::min(st.ny, y + kSide),
          z, std::min(st.nz, z + kSide)};
}

/// Throws CheckpointError unless the block ids ascend and every per-node
/// array holds exactly those blocks.
void check_layout(const LatticeState& st) {
  std::size_t nodes = 0;
  for (std::size_t k = 0; k < st.blocks.size(); ++k) {
    if (k > 0 && st.blocks[k] <= st.blocks[k - 1]) {
      throw CheckpointError("checkpoint: lattice block ids out of order");
    }
    nodes += block_box(st, st.blocks[k]).nodes();
  }
  each_array(st, [&](const auto& v, std::size_t per, const auto&) {
    if (v.size() != per * nodes) {
      throw CheckpointError("checkpoint: lattice section has inconsistent "
                            "array sizes");
    }
  });
}

}  // namespace

LatticeState LatticeState::capture(const lbm::Lattice& lat) {
  LatticeState st;
  st.nx = lat.nx();
  st.ny = lat.ny();
  st.nz = lat.nz();
  st.origin = lat.origin();
  st.dx = lat.dx();
  st.default_tau = lat.default_tau();
  st.collision = static_cast<std::uint8_t>(lat.collision_model());
  st.trt_magic = lat.trt_magic();
  for (int a = 0; a < 3; ++a) st.periodic[a] = lat.periodic(a) ? 1 : 0;
  st.ubc_nonzero = lat.ubc_nonzero() ? 1 : 0;
  st.body_force = lat.body_force();
  st.site_updates = lat.site_updates();
  // Only resident tiles can be kept: a vacant block reads the shared
  // exterior tile, which holds the defaults.
  const std::size_t tiles = lat.num_tiles();
  std::size_t most = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    most += block_box(st, lat.resident_block(t)).nodes();
  }
  each_array(st, [&](auto& v, std::size_t per, const auto&) {
    v.reserve(per * most);
  });
  for (std::size_t t = 0; t < tiles; ++t) {
    const auto id = static_cast<std::uint32_t>(lat.resident_block(t));
    const BlockBox b = block_box(st, id);
    const std::size_t s = st.type.size(), m = b.nodes();
    // Appends the block's clipped rows of one tile field.
    const auto rows = [&](auto& dst, const auto* cells) {
      for (int z = 0; z < b.z1 - b.z0; ++z) {
        for (int y = 0; y < b.y1 - b.y0; ++y) {
          const auto* row = cells + (z * kSide + y) * kSide;
          dst.insert(dst.end(), row, row + (b.x1 - b.x0));
        }
      }
    };
    // NodeType is a uint8_t enum, which byte access may alias.
    rows(st.type, reinterpret_cast<const std::uint8_t*>(lat.tile_types(t)));
    rows(st.tau, lat.tile_tau(t));
    rows(st.ubc, lat.tile_ubc(t));
    for (std::size_t q = 0; q < kQ; ++q) {
      rows(st.f, lat.tile_f(t) + q * lbm::Lattice::kTileNodes);
    }
    rows(st.rho, lat.tile_rho(t));
    rows(st.u, lat.tile_u(t));
    // f at Wall/Exterior nodes is dead storage: streaming never writes
    // those slots, so after the buffer swap they hold stale values from
    // two steps back that no physics path ever reads. Canonicalize them
    // to zero so the captured state (and hence digests and bit-exact
    // resume comparisons) depends only on live populations.
    for (std::size_t p = 0; p < m; ++p) {
      if (lbm::is_stream_source(lbm::NodeType{st.type[s + p]})) continue;
      for (std::size_t q = 0; q < kQ; ++q) st.f[kQ * s + q * m + p] = 0.0;
    }
    // Keep the block only if some node differs from a vacant one.
    bool keep = false;
    each_array(st, [&](auto& v, std::size_t per, const auto& vacant) {
      keep = keep || std::any_of(v.begin() + per * s, v.end(),
                                 [&](const auto& x) { return !(x == vacant); });
    });
    if (keep) st.blocks.push_back(id);
    each_array(st, [&](auto& v, std::size_t per, const auto&) {
      if (!keep) v.resize(per * s);
    });
  }
  return st;
}

std::size_t LatticeState::node_pos(std::size_t i) const {
  const int x = i % nx, y = i / nx % ny, z = i / nx / ny;
  std::size_t s = 0;
  for (const std::uint32_t id : blocks) {
    const BlockBox b = block_box(*this, id);
    if (b.x0 <= x && x < b.x1 && b.y0 <= y && y < b.y1 && b.z0 <= z &&
        z < b.z1) {
      return s + ((z - b.z0) * (b.y1 - b.y0) + y - b.y0) * (b.x1 - b.x0) +
             x - b.x0;
    }
    s += b.nodes();
  }
  throw CheckpointError("checkpoint: node " + std::to_string(i) +
                        " lies in a block the lattice state omits");
}

void LatticeState::validate_geometry(const lbm::Lattice& lat) const {
  if (nx != lat.nx() || ny != lat.ny() || nz != lat.nz() ||
      std::abs(dx - lat.dx()) > 1e-15) {
    throw CheckpointError(
        "checkpoint: lattice geometry mismatch (file " + std::to_string(nx) +
        "x" + std::to_string(ny) + "x" + std::to_string(nz) + " @ dx=" +
        std::to_string(dx) + ", target " + std::to_string(lat.nx()) + "x" +
        std::to_string(lat.ny()) + "x" + std::to_string(lat.nz()) +
        " @ dx=" + std::to_string(lat.dx()) + ")");
  }
  check_layout(*this);
  if (collision > static_cast<std::uint8_t>(lbm::CollisionModel::Mrt)) {
    throw CheckpointError("checkpoint: unknown collision model id " +
                          std::to_string(collision));
  }
  // apply() hands the magic to Lattice::set_collision_model, which would
  // throw only after every node field had been overwritten.
  if (trt_magic <= 0.0) {
    throw CheckpointError("checkpoint: TRT magic parameter must be > 0");
  }
  for (const std::uint8_t t : type) {
    if (t > static_cast<std::uint8_t>(lbm::NodeType::Coupling)) {
      throw CheckpointError("checkpoint: unknown node type id " +
                            std::to_string(t));
    }
  }
}

void LatticeState::apply(lbm::Lattice& lat) const {
  // The baseline must change first: per-node writes below decide
  // materialize/no-op against it, and the release check in set_type
  // compares tile contents against it.
  lat.set_default_tau(default_tau);
  // Visit the kept blocks and the target's resident tiles; a resident
  // tile that is not kept is written with the vacant defaults.
  std::vector<std::uint32_t> resident(lat.num_tiles()), visit;
  for (std::size_t t = 0; t < resident.size(); ++t) {
    resident[t] = static_cast<std::uint32_t>(lat.resident_block(t));
  }
  std::set_union(blocks.begin(), blocks.end(), resident.begin(),
                 resident.end(), std::back_inserter(visit));
  std::size_t k = 0, s = 0;  // next kept block, its stored position
  std::array<double, lbm::kQ> fq;
  for (const std::uint32_t id : visit) {
    const BlockBox b = block_box(*this, id);
    const std::size_t m = b.nodes();
    const bool kept = k < blocks.size() && blocks[k] == id;
    const int w = b.x1 - b.x0, h = b.y1 - b.y0;
    const auto node = [&](std::size_t p) {  // lattice index of offset p
      return lat.idx(b.x0 + p % w, b.y0 + p / w % h, b.z0 + p / w / h);
    };
    // Scalar fields before types: when the type pass empties the tile,
    // its other fields already hold their final (possibly default)
    // values, so an all-default tile is released and the target ends up
    // exactly as sparse as the saved lattice.
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t i = node(p);
      lat.set_tau(i, kept ? tau[s + p] : default_tau);
      lat.set_boundary_velocity(i, kept ? ubc[s + p] : Vec3{});
      lat.set_rho(i, kept ? rho[s + p] : 1.0);
      lat.set_velocity(i, kept ? u[s + p] : Vec3{});
      for (std::size_t q = 0; q < kQ; ++q) {
        fq[q] = kept ? f[kQ * s + q * m + p] : 0.0;
      }
      lat.set_f_node(i, fq);
    }
    for (std::size_t p = 0; p < m; ++p) {
      lat.set_type(node(p), kept ? lbm::NodeType{type[s + p]}
                                 : lbm::NodeType::Exterior);
    }
    if (kept) {
      s += m;
      ++k;
    }
  }
  lat.set_periodic(periodic[0] != 0, periodic[1] != 0, periodic[2] != 0);
  lat.set_collision_model(static_cast<lbm::CollisionModel>(collision),
                          trt_magic);
  lat.set_body_force(body_force);
  lat.set_site_updates(site_updates);
  // Last: set_boundary_velocity above may have latched the flag on.
  lat.set_ubc_nonzero(ubc_nonzero != 0);
}

std::vector<char> LatticeState::serialize() const {
  check_layout(*this);
  ByteCount head;
  header(head, *this);
  // check_layout guarantees one type entry per kept node.
  BufWriter w(head.n + sizeof(std::uint32_t) * (1 + blocks.size()) +
              kWireNodeBytes * type.size());
  header(w, *this);
  w.pod(static_cast<std::uint32_t>(blocks.size()));
  std::size_t s = 0;
  for (const std::uint32_t id : blocks) {
    const std::size_t m = block_box(*this, id).nodes();
    w.pod(id);
    each_array(*this, [&](const auto& v, std::size_t per, const auto&) {
      w.bytes(&v[per * s], per * m * sizeof(v[0]));
    });
    s += m;
  }
  return w.take();
}

LatticeState LatticeState::deserialize(const std::vector<char>& payload,
                                       std::string what) {
  BufReader r(payload, std::move(what));
  LatticeState st;
  header(r, st);
  if (st.nx <= 0 || st.ny <= 0 || st.nz <= 0 ||
      st.nx > (1 << 14) || st.ny > (1 << 14) || st.nz > (1 << 14)) {
    throw CheckpointError("checkpoint: implausible lattice dimensions");
  }
  // Sized by the bytes present, never by the header's dimensions.
  each_array(st, [&](auto& v, std::size_t per, const auto&) {
    v.reserve(per * (payload.size() / kWireNodeBytes));
  });
  const auto count = r.pod<std::uint32_t>();
  for (std::uint32_t k = 0; k < count; ++k) {
    st.blocks.push_back(r.pod<std::uint32_t>());
    const std::size_t m = block_box(st, st.blocks.back()).nodes();
    each_array(st, [&](auto& v, std::size_t per, const auto&) {
      r.append(v, per * m);
    });
  }
  r.expect_end();
  check_layout(st);
  return st;
}

// --- CellPoolState ----------------------------------------------------------

std::uint64_t membrane_model_digest(const fem::MembraneModel& model) {
  Fnv1a h;
  const mesh::TriMesh& ref = model.reference();
  h.update_pod(ref.num_vertices());
  h.update_pod(ref.num_triangles());
  h.update(ref.vertices.data(), ref.vertices.size() * sizeof(Vec3));
  h.update(ref.triangles.data(),
           ref.triangles.size() * sizeof(mesh::Triangle));
  const fem::MembraneParams& p = model.params();
  h.update_pod(p.shear_modulus);
  h.update_pod(p.skalak_c);
  h.update_pod(p.bending_modulus);
  h.update_pod(p.ka_global);
  h.update_pod(p.kv_global);
  h.update_pod(p.mass);
  return h.value();
}

CellPoolState CellPoolState::capture(const cells::CellPool& pool) {
  CellPoolState st;
  st.nv = static_cast<std::uint32_t>(pool.vertices_per_cell());
  st.model_digest = membrane_model_digest(pool.model());
  const std::size_t count = pool.size();
  st.ids.reserve(count);
  st.x.reserve(count * st.nv);
  st.v.reserve(count * st.nv);
  for (std::size_t s = 0; s < count; ++s) {
    st.ids.push_back(pool.id(s));
    const auto xs = pool.positions(s);
    const auto vs = pool.velocities(s);
    st.x.insert(st.x.end(), xs.begin(), xs.end());
    st.v.insert(st.v.end(), vs.begin(), vs.end());
  }
  return st;
}

void CellPoolState::validate(const cells::CellPool& pool) const {
  if (nv != static_cast<std::uint32_t>(pool.vertices_per_cell())) {
    throw CheckpointError(
        "checkpoint: vertex-count mismatch (file cells have " +
        std::to_string(nv) + " vertices, pool expects " +
        std::to_string(pool.vertices_per_cell()) + ")");
  }
  if (model_digest != membrane_model_digest(pool.model())) {
    throw CheckpointError(
        "checkpoint: membrane-model reference state differs from the "
        "target pool's (different mesh or material parameters)");
  }
  const std::size_t count = ids.size();
  if (x.size() != count * nv || v.size() != count * nv) {
    throw CheckpointError("checkpoint: cell section has inconsistent "
                          "array sizes");
  }
  if (pool.size() + count > pool.capacity()) {
    throw CheckpointError("checkpoint: pool capacity " +
                          std::to_string(pool.capacity()) +
                          " cannot hold " + std::to_string(count) +
                          " restored cells");
  }
  for (const std::uint64_t id : ids) {
    if (pool.contains(id)) {
      throw CheckpointError("checkpoint: pool already contains cell id " +
                            std::to_string(id));
    }
  }
  // apply() adds the cells one by one, and CellPool::add rejects a
  // repeated id only after the earlier cells are in.
  std::vector<std::uint64_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw CheckpointError("checkpoint: cell section lists a cell id twice");
  }
}

void CellPoolState::apply(cells::CellPool& pool) const {
  for (std::size_t c = 0; c < ids.size(); ++c) {
    const std::size_t slot = pool.add(
        ids[c], std::span<const Vec3>(x.data() + c * nv, nv));
    auto vel = pool.velocities(slot);
    for (std::uint32_t k = 0; k < nv; ++k) vel[k] = v[c * nv + k];
  }
}

std::vector<char> CellPoolState::serialize() const {
  BufWriter w(sizeof(nv) + sizeof(model_digest) +
              3 * sizeof(std::uint64_t) + ids.size() * sizeof(ids[0]) +
              (x.size() + v.size()) * sizeof(Vec3));
  w.pod(nv);
  w.pod(model_digest);
  w.vec(ids);
  w.vec(x);
  w.vec(v);
  return w.take();
}

CellPoolState CellPoolState::deserialize(const std::vector<char>& payload,
                                         std::string what) {
  BufReader r(payload, std::move(what));
  CellPoolState st;
  r.pod(st.nv);
  r.pod(st.model_digest);
  if (st.nv == 0 || st.nv > (1u << 20)) {
    throw CheckpointError("checkpoint: implausible vertex count");
  }
  constexpr std::uint64_t kMaxCells = 1ull << 24;
  r.vec(st.ids, kMaxCells);
  const std::uint64_t nvert =
      static_cast<std::uint64_t>(st.ids.size()) * st.nv;
  r.vec(st.x, nvert);
  r.vec(st.v, nvert);
  r.expect_end();
  return st;
}

}  // namespace apr::io
