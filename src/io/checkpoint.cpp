#include "src/io/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
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
  BufWriter w;
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
  const std::uint64_t total = bytes.size();
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
    if (size > total || bytes.size() - pos < size) {
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

inline bool vec_zero(const Vec3& v) {
  return v.x == 0.0 && v.y == 0.0 && v.z == 0.0;
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
  const std::size_t n = lat.num_nodes();
  st.type.resize(n);
  st.tau.resize(n);
  st.ubc.resize(n);
  st.f.resize(static_cast<std::size_t>(lbm::kQ) * n);
  st.rho.resize(n);
  st.u.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    st.type[i] = static_cast<std::uint8_t>(lat.type(i));
    st.tau[i] = lat.tau(i);
    st.ubc[i] = lat.boundary_velocity(i);
    st.rho[i] = lat.rho(i);
    st.u[i] = lat.velocity(i);
  }
  // f at Wall/Exterior nodes is dead storage: streaming never writes those
  // slots, so after the buffer swap they hold stale values from two steps
  // back that no physics path ever reads. Canonicalize them to zero so the
  // captured state (and hence digests and bit-exact resume comparisons)
  // depends only on live populations.
  for (int q = 0; q < lbm::kQ; ++q) {
    for (std::size_t i = 0; i < n; ++i) {
      st.f[static_cast<std::size_t>(q) * n + i] =
          lbm::is_stream_source(lat.type(i)) ? lat.f(q, i) : 0.0;
    }
  }
  return st;
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
  const std::size_t n = lat.num_nodes();
  if (type.size() != n || tau.size() != n || ubc.size() != n ||
      rho.size() != n || u.size() != n ||
      f.size() != static_cast<std::size_t>(lbm::kQ) * n) {
    throw CheckpointError("checkpoint: lattice section has inconsistent "
                          "array sizes");
  }
  if (collision > static_cast<std::uint8_t>(lbm::CollisionModel::Mrt)) {
    throw CheckpointError("checkpoint: unknown collision model id " +
                          std::to_string(collision));
  }
  // apply() hands the magic to Lattice::set_collision_model, which would
  // throw only after every node field had been overwritten.
  if (trt_magic <= 0.0) {
    throw CheckpointError("checkpoint: TRT magic parameter must be > 0");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (type[i] > static_cast<std::uint8_t>(lbm::NodeType::Coupling)) {
      throw CheckpointError("checkpoint: unknown node type id " +
                            std::to_string(type[i]));
    }
  }
}

void LatticeState::apply(lbm::Lattice& lat) const {
  const std::size_t n = lat.num_nodes();
  // The baseline must change first: per-node writes below decide
  // materialize/no-op against it, and the release check in set_type
  // compares tile contents against it.
  lat.set_default_tau(default_tau);
  // Scalar fields before types: when the type pass empties a tile, its
  // other fields already hold their final (possibly default) values, so
  // an all-default tile is released and the target ends up exactly as
  // sparse as the saved lattice.
  std::array<double, lbm::kQ> fq;
  for (std::size_t i = 0; i < n; ++i) {
    lat.set_tau(i, tau[i]);
    lat.set_boundary_velocity(i, ubc[i]);
    lat.set_rho(i, rho[i]);
    lat.set_velocity(i, u[i]);
    for (int q = 0; q < lbm::kQ; ++q) {
      fq[q] = f[static_cast<std::size_t>(q) * n + i];
    }
    lat.set_f_node(i, fq);
  }
  for (std::size_t i = 0; i < n; ++i) {
    lat.set_type(i, static_cast<lbm::NodeType>(type[i]));
  }
  lat.set_periodic(periodic[0] != 0, periodic[1] != 0, periodic[2] != 0);
  lat.set_collision_model(static_cast<lbm::CollisionModel>(collision),
                          trt_magic);
  lat.set_body_force(body_force);
  lat.set_site_updates(site_updates);
  // Last: set_boundary_velocity above may have latched the flag on.
  lat.set_ubc_nonzero(ubc_nonzero != 0);
}

namespace {

/// True when node i of `st` differs from the vacant-tile defaults in any
/// serialized field; blocks with no such node are omitted from the wire.
bool node_nondefault(const LatticeState& st, std::size_t n, std::size_t i) {
  if (st.type[i] != 0) return true;
  if (st.tau[i] != st.default_tau) return true;
  if (!vec_zero(st.ubc[i])) return true;
  if (st.rho[i] != 1.0) return true;
  if (!vec_zero(st.u[i])) return true;
  for (int q = 0; q < lbm::kQ; ++q) {
    if (st.f[static_cast<std::size_t>(q) * n + i] != 0.0) return true;
  }
  return false;
}

}  // namespace

std::vector<char> LatticeState::serialize() const {
  constexpr int S = lbm::Lattice::kTileSide;
  const std::size_t n = static_cast<std::size_t>(nx) * ny * nz;
  const int tbx = (nx + S - 1) / S;
  const int tby = (ny + S - 1) / S;
  const int tbz = (nz + S - 1) / S;

  BufWriter w;
  w.pod(nx);
  w.pod(ny);
  w.pod(nz);
  w.pod(origin);
  w.pod(dx);
  w.pod(collision);
  w.pod(trt_magic);
  w.bytes(periodic, sizeof(periodic));
  w.pod(ubc_nonzero);
  w.pod(body_force);
  w.pod(site_updates);
  w.pod(default_tau);

  const auto node = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * ny + y) * nx + x;
  };
  std::vector<std::uint32_t> blocks;
  std::uint32_t b = 0;
  for (int bz = 0; bz < tbz; ++bz) {
    for (int by = 0; by < tby; ++by) {
      for (int bx = 0; bx < tbx; ++bx, ++b) {
        const int x1 = std::min(nx, (bx + 1) * S);
        const int y1 = std::min(ny, (by + 1) * S);
        const int z1 = std::min(nz, (bz + 1) * S);
        bool keep = false;
        for (int z = bz * S; z < z1 && !keep; ++z) {
          for (int y = by * S; y < y1 && !keep; ++y) {
            for (int x = bx * S; x < x1 && !keep; ++x) {
              keep = node_nondefault(*this, n, node(x, y, z));
            }
          }
        }
        if (keep) blocks.push_back(b);
      }
    }
  }

  w.pod(static_cast<std::uint32_t>(blocks.size()));
  for (const std::uint32_t id : blocks) {
    const int bx = static_cast<int>(id) % tbx;
    const int by = (static_cast<int>(id) / tbx) % tby;
    const int bz = static_cast<int>(id) / (tbx * tby);
    const int x0 = bx * S, x1 = std::min(nx, (bx + 1) * S);
    const int y0 = by * S, y1 = std::min(ny, (by + 1) * S);
    const int z0 = bz * S, z1 = std::min(nz, (bz + 1) * S);
    w.pod(id);
    const auto each = [&](auto&& fn) {
      for (int z = z0; z < z1; ++z) {
        for (int y = y0; y < y1; ++y) {
          for (int x = x0; x < x1; ++x) fn(node(x, y, z));
        }
      }
    };
    each([&](std::size_t i) { w.pod(type[i]); });
    each([&](std::size_t i) { w.pod(tau[i]); });
    each([&](std::size_t i) { w.pod(ubc[i]); });
    for (int q = 0; q < lbm::kQ; ++q) {
      each([&](std::size_t i) {
        w.pod(f[static_cast<std::size_t>(q) * n + i]);
      });
    }
    each([&](std::size_t i) { w.pod(rho[i]); });
    each([&](std::size_t i) { w.pod(u[i]); });
  }
  return w.take();
}

LatticeState LatticeState::deserialize(const std::vector<char>& payload,
                                       std::string what) {
  BufReader r(payload, std::move(what));
  LatticeState st;
  r.pod(st.nx);
  r.pod(st.ny);
  r.pod(st.nz);
  r.pod(st.origin);
  r.pod(st.dx);
  r.pod(st.collision);
  r.pod(st.trt_magic);
  for (auto& p : st.periodic) r.pod(p);
  r.pod(st.ubc_nonzero);
  r.pod(st.body_force);
  r.pod(st.site_updates);
  if (st.nx <= 0 || st.ny <= 0 || st.nz <= 0 ||
      st.nx > (1 << 14) || st.ny > (1 << 14) || st.nz > (1 << 14)) {
    throw CheckpointError("checkpoint: implausible lattice dimensions");
  }
  const std::uint64_t n = static_cast<std::uint64_t>(st.nx) * st.ny * st.nz;

  r.pod(st.default_tau);
  st.type.assign(n, 0);
  st.tau.assign(n, st.default_tau);
  st.ubc.assign(n, Vec3{});
  st.f.assign(static_cast<std::uint64_t>(lbm::kQ) * n, 0.0);
  st.rho.assign(n, 1.0);
  st.u.assign(n, Vec3{});

  constexpr int S = lbm::Lattice::kTileSide;
  const int tbx = (st.nx + S - 1) / S;
  const int tby = (st.ny + S - 1) / S;
  const int tbz = (st.nz + S - 1) / S;
  const std::uint32_t nblocks =
      static_cast<std::uint32_t>(tbx) * tby * tbz;
  const auto count = r.pod<std::uint32_t>();
  if (count > nblocks) {
    throw CheckpointError("checkpoint: lattice section has implausible "
                          "block count");
  }
  const auto node = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(z) * st.ny + y) * st.nx + x;
  };
  std::int64_t prev = -1;
  for (std::uint32_t k = 0; k < count; ++k) {
    const auto id = r.pod<std::uint32_t>();
    if (id >= nblocks || static_cast<std::int64_t>(id) <= prev) {
      throw CheckpointError("checkpoint: lattice block ids out of order "
                            "or out of range");
    }
    prev = id;
    const int bx = static_cast<int>(id) % tbx;
    const int by = (static_cast<int>(id) / tbx) % tby;
    const int bz = static_cast<int>(id) / (tbx * tby);
    const int x0 = bx * S, x1 = std::min(st.nx, (bx + 1) * S);
    const int y0 = by * S, y1 = std::min(st.ny, (by + 1) * S);
    const int z0 = bz * S, z1 = std::min(st.nz, (bz + 1) * S);
    const auto each = [&](auto&& fn) {
      for (int z = z0; z < z1; ++z) {
        for (int y = y0; y < y1; ++y) {
          for (int x = x0; x < x1; ++x) fn(node(x, y, z));
        }
      }
    };
    each([&](std::size_t i) { r.raw(&st.type[i], sizeof(st.type[i])); });
    each([&](std::size_t i) { r.raw(&st.tau[i], sizeof(st.tau[i])); });
    each([&](std::size_t i) { r.raw(&st.ubc[i], sizeof(st.ubc[i])); });
    for (int q = 0; q < lbm::kQ; ++q) {
      each([&](std::size_t i) {
        r.raw(&st.f[static_cast<std::size_t>(q) * n + i], sizeof(double));
      });
    }
    each([&](std::size_t i) { r.raw(&st.rho[i], sizeof(st.rho[i])); });
    each([&](std::size_t i) { r.raw(&st.u[i], sizeof(st.u[i])); });
  }
  r.expect_end();
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
  BufWriter w;
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
