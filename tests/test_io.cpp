#include "src/io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/lbm/boundary.hpp"
#include "src/mesh/icosphere.hpp"

namespace apr::io {
namespace {

/// Bitwise CRC-32 (reflected 0xEDB88320), one bit at a time: the
/// reference the table-driven io::crc32 must reproduce.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n,
                            std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(IoCrc32, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(IoCrc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(2024);
  std::vector<unsigned char> buf(4097 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  for (std::size_t n = 0; n <= 4097; ++n) {
    // Every length, cycling through the eight start offsets; short
    // buffers try all of them.
    const std::size_t offsets = n < 64 ? 8 : 1;
    for (std::size_t k = 0; k < offsets; ++k) {
      const unsigned char* p = buf.data() + (n + k) % 8;
      ASSERT_EQ(crc32(p, n), crc32_bitwise(p, n)) << n << " @ " << (n + k) % 8;
    }
  }
}

TEST(IoCrc32, ChainsAcrossSplitBuffers) {
  Rng rng(77);
  std::vector<unsigned char> buf(3001);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, crc32_bitwise(buf.data(), buf.size()));
  for (const std::size_t cut : {0, 1, 7, 8, 9, 1000, 2999, 3001}) {
    const std::uint32_t a = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, a), whole) << cut;
  }
}

TEST(IoFnv1a, MatchesPublishedTestVectors) {
  const auto hash = [](const std::string& s) {
    Fnv1a h;
    h.update(s.data(), s.size());
    return h.value();
  };
  EXPECT_EQ(hash(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(hash("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(hash("foobar"), 0x85944171F73967E8ull);
  // Streaming in pieces equals hashing the concatenation.
  Fnv1a split;
  split.update("foo", 3);
  split.update("bar", 3);
  EXPECT_EQ(split.value(), hash("foobar"));
  // update_pod hashes the object representation.
  const std::uint32_t word = 0x61626364u;
  Fnv1a pod;
  pod.update_pod(word);
  Fnv1a raw;
  raw.update(&word, sizeof(word));
  EXPECT_EQ(pod.value(), raw.value());
}

TEST(IoFourcc, PacksCharactersInFileOrder) {
  // The first character is the lowest byte, so a tag written in host
  // (little-endian) order reads as its four characters in the file.
  EXPECT_EQ(fourcc('L', 'A', 'T', 'T'), 0x5454414Cu);
  EXPECT_EQ(fourcc('\xFF', 0, 0, 0), 0xFFu);
  EXPECT_EQ(fourcc(0, 0, 0, '\xFF'), 0xFF000000u);
  EXPECT_NE(fourcc('A', 'B', 'C', 'D'), fourcc('D', 'C', 'B', 'A'));
}

// --- BufWriter / BufReader --------------------------------------------------

TEST(IoBuf, PodsAndVectorsRoundTrip) {
  BufWriter w;
  w.pod(std::int32_t{-7});
  w.pod(2.5);
  w.vec(std::vector<std::uint16_t>{1, 2, 65535});
  w.pod(Vec3{1.0, -2.0, 3.5});
  const std::vector<char> bytes = w.take();
  EXPECT_EQ(bytes.size(), 4u + 8u + (8u + 3u * 2u) + 24u);

  BufReader r(bytes, "test");
  EXPECT_EQ(r.pod<std::int32_t>(), -7);
  EXPECT_EQ(r.pod<double>(), 2.5);
  std::vector<std::uint16_t> v;
  r.vec(v, 3);
  EXPECT_EQ(v, (std::vector<std::uint16_t>{1, 2, 65535}));
  EXPECT_EQ(r.pod<Vec3>(), (Vec3{1.0, -2.0, 3.5}));
  EXPECT_NO_THROW(r.expect_end());
}

TEST(IoBuf, EmptyVectorRoundTrips) {
  BufWriter w;
  w.vec(std::vector<double>{});
  const std::vector<char> bytes = w.take();
  ASSERT_EQ(bytes.size(), 8u);  // just the length prefix
  BufReader r(bytes, "test");
  std::vector<double> v{1.0, 2.0};
  r.vec(v, 0);
  EXPECT_TRUE(v.empty());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(IoBuf, VecRejectsCountAboveCapBeforeAllocating) {
  BufWriter w;
  w.pod(std::uint64_t{1} << 60);  // a corrupt length field
  const std::vector<char> bytes = w.take();
  BufReader r(bytes, "test");
  std::vector<double> v;
  EXPECT_THROW(r.vec(v, 1000), CheckpointError);
  EXPECT_TRUE(v.empty());
}

TEST(IoBuf, ReadsPastTheEndThrowCheckpointError) {
  BufWriter w;
  w.pod(std::uint16_t{3});
  const std::vector<char> bytes = w.take();
  {
    BufReader r(bytes, "test");
    EXPECT_THROW(r.pod<std::uint32_t>(), CheckpointError);
  }
  {
    BufReader r(bytes, "test");
    std::vector<char> dst;
    EXPECT_THROW(r.append(dst, 3), CheckpointError);
    EXPECT_TRUE(dst.empty());  // nothing grows before the bytes are there
  }
  {
    // The length prefix is within the cap but the elements are missing.
    BufWriter wv;
    wv.pod(std::uint64_t{4});
    wv.pod(1.0);
    const std::vector<char> short_vec = wv.take();
    BufReader r(short_vec, "test");
    std::vector<double> v;
    EXPECT_THROW(r.vec(v, 4), CheckpointError);
  }
}

TEST(IoBuf, ExpectEndRejectsTrailingBytes) {
  BufWriter w;
  w.pod(std::uint32_t{1});
  w.pod(std::uint8_t{0});
  const std::vector<char> bytes = w.take();
  BufReader r(bytes, "test");
  r.pod<std::uint32_t>();
  EXPECT_THROW(r.expect_end(), CheckpointError);
  r.pod<std::uint8_t>();
  EXPECT_NO_THROW(r.expect_end());
}

// --- Checkpoint container ---------------------------------------------------

std::vector<char> chars(const std::string& s) {
  return std::vector<char>(s.begin(), s.end());
}

TEST(IoContainer, AddRejectsDuplicateTag) {
  const std::uint32_t tag = fourcc('D', 'U', 'P', 'E');
  Checkpoint ckpt;
  ckpt.add(tag, chars("first"));
  EXPECT_THROW(ckpt.add(tag, chars("second")), CheckpointError);
  EXPECT_EQ(ckpt.section(tag), chars("first"));
  EXPECT_EQ(ckpt.tags().size(), 1u);
}

TEST(IoContainer, MissingSectionFailsClosed) {
  Checkpoint ckpt;
  ckpt.add(fourcc('A', 'A', 'A', 'A'), chars("x"));
  const std::uint32_t absent = fourcc('N', 'O', 'N', 'E');
  EXPECT_FALSE(ckpt.has(absent));
  EXPECT_THROW(ckpt.section(absent), CheckpointError);
  EXPECT_TRUE(ckpt.has(fourcc('A', 'A', 'A', 'A')));
}

TEST(IoContainer, BytesRoundTripKeepsSectionsInOrder) {
  const std::uint32_t c = fourcc('C', 'C', 'C', 'C');
  const std::uint32_t a = fourcc('A', 'A', 'A', 'A');
  const std::uint32_t b = fourcc('B', 'B', 'B', 'B');
  Checkpoint ckpt;
  ckpt.add(c, chars("third letter"));
  ckpt.add(a, {});
  ckpt.add(b, chars("b"));
  EXPECT_EQ(ckpt.tags(), (std::vector<std::uint32_t>{c, a, b}));

  const Checkpoint back = Checkpoint::from_bytes(ckpt.to_bytes());
  EXPECT_EQ(back.tags(), (std::vector<std::uint32_t>{c, a, b}));
  EXPECT_EQ(back.section(c), chars("third letter"));
  EXPECT_TRUE(back.section(a).empty());
  EXPECT_EQ(back.section(b), chars("b"));
  EXPECT_EQ(back.digest(), ckpt.digest());
  EXPECT_EQ(back.to_bytes(), ckpt.to_bytes());
}

TEST(IoContainer, EmptyContainerRoundTrips) {
  const Checkpoint empty;
  const std::vector<char> bytes = empty.to_bytes();
  EXPECT_EQ(bytes.size(), 16u);  // magic, version, section count
  const Checkpoint back = Checkpoint::from_bytes(bytes);
  EXPECT_TRUE(back.tags().empty());
  EXPECT_EQ(back.digest(), empty.digest());
}

TEST(IoContainer, ByteSizeMatchesSerializedImage) {
  Checkpoint ckpt;
  EXPECT_EQ(ckpt.byte_size(), ckpt.to_bytes().size());
  ckpt.add(fourcc('Z', 'E', 'R', 'O'), {});
  EXPECT_EQ(ckpt.byte_size(), ckpt.to_bytes().size());
  ckpt.add(fourcc('B', 'I', 'G', ' '), std::vector<char>(1000, 'x'));
  EXPECT_EQ(ckpt.byte_size(), ckpt.to_bytes().size());
  // Per section: tag, size, payload, CRC.
  EXPECT_EQ(ckpt.byte_size(), 16u + 2u * (4u + 8u + 4u) + 1000u);
}

TEST(IoContainer, DigestSeesTagsPayloadsAndOrder) {
  const std::uint32_t a = fourcc('A', 'A', 'A', 'A');
  const std::uint32_t b = fourcc('B', 'B', 'B', 'B');
  const auto make = [](std::vector<std::pair<std::uint32_t, std::string>> s) {
    Checkpoint ckpt;
    for (auto& [tag, payload] : s) ckpt.add(tag, chars(payload));
    return ckpt.digest();
  };
  const std::uint64_t base = make({{a, "one"}, {b, "two"}});
  EXPECT_EQ(make({{a, "one"}, {b, "two"}}), base);
  EXPECT_NE(make({{b, "two"}, {a, "one"}}), base);
  EXPECT_NE(make({{a, "one"}, {b, "twO"}}), base);
  EXPECT_NE(make({{a, "one"}, {fourcc('B', 'B', 'B', 'C'), "two"}}), base);
  // Size is hashed too, so moving a byte across a section boundary shows.
  EXPECT_NE(make({{a, "onet"}, {b, "wo"}}), base);
}

TEST(IoContainer, FromBytesRejectsRepeatedSection) {
  // Two sections with the same tag, each correctly framed and CRC'd.
  const std::uint32_t tag = fourcc('T', 'W', 'I', 'N');
  const std::vector<char> payload = chars("payload");
  BufWriter w;
  w.pod(Checkpoint::kMagic);
  w.pod(Checkpoint::kFormatVersion);
  w.pod(std::uint32_t{2});
  for (int k = 0; k < 2; ++k) {
    w.pod(tag);
    w.pod(static_cast<std::uint64_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    w.pod(crc32(payload.data(), payload.size()));
  }
  EXPECT_THROW(Checkpoint::from_bytes(w.take()), CheckpointError);
}

TEST(IoContainer, FromBytesRejectsOversizedSectionLength) {
  Checkpoint ckpt;
  ckpt.add(fourcc('S', 'I', 'Z', 'E'), chars("abc"));
  const std::vector<char> good = ckpt.to_bytes();
  const std::size_t size_at = 16 + 4;  // header, then the section tag
  for (const std::uint64_t claim :
       {std::uint64_t{4}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::vector<char> bytes = good;
    std::memcpy(bytes.data() + size_at, &claim, sizeof(claim));
    EXPECT_THROW(Checkpoint::from_bytes(bytes), CheckpointError) << claim;
  }
  // A section count larger than the sections present is a truncation.
  std::vector<char> bytes = good;
  const std::uint32_t count = 2;
  std::memcpy(bytes.data() + 12, &count, sizeof(count));
  EXPECT_THROW(Checkpoint::from_bytes(bytes), CheckpointError);
}

TEST(IoContainer, FromBytesRejectsTrailingBytes) {
  Checkpoint ckpt;
  ckpt.add(fourcc('T', 'A', 'I', 'L'), chars("abc"));
  const std::vector<char> good = ckpt.to_bytes();
  EXPECT_NO_THROW(Checkpoint::from_bytes(good));
  for (const std::size_t extra : {1u, 2u}) {
    std::vector<char> bytes = good;
    bytes.resize(bytes.size() + extra, '\0');
    try {
      (void)Checkpoint::from_bytes(bytes, "padded.chk");
      ADD_FAILURE() << extra << " trailing bytes were accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("padded.chk"), std::string::npos)
          << e.what();
    }
  }
}

class IoTest : public ::testing::Test {
 protected:
  IoTest()
      : model_(std::make_unique<fem::MembraneModel>(mesh::icosphere(1, 1.0),
                                                    fem::MembraneParams{})) {}
  std::unique_ptr<fem::MembraneModel> model_;
};

// The single-object states travel through the checkpoint container in
// memory, along the same path AprSimulation::load_checkpoint takes:
// capture -> serialize -> Checkpoint::add/to_bytes -> from_bytes ->
// deserialize -> validate -> apply.

constexpr std::uint32_t kLatticeTag = fourcc('L', 'A', 'T', 'T');
constexpr std::uint32_t kCellsTag = fourcc('C', 'E', 'L', 'L');

/// A one-section container image holding `payload`, framed (and
/// CRC-protected) exactly as it would be on disk.
std::vector<char> frame(std::uint32_t tag, std::vector<char> payload) {
  Checkpoint ckpt;
  ckpt.add(tag, std::move(payload));
  return ckpt.to_bytes();
}

std::vector<char> lattice_image(const lbm::Lattice& lat) {
  return frame(kLatticeTag, LatticeState::capture(lat).serialize());
}

std::vector<char> cells_image(const cells::CellPool& pool) {
  return frame(kCellsTag, CellPoolState::capture(pool).serialize());
}

/// Parse and validate a lattice image against `lat` without touching it;
/// the caller applies the returned state.
LatticeState decode_lattice(const std::vector<char>& image,
                            const lbm::Lattice& lat) {
  const Checkpoint ckpt = Checkpoint::from_bytes(image);
  LatticeState st =
      LatticeState::deserialize(ckpt.section(kLatticeTag), "lattice");
  st.validate_geometry(lat);
  return st;
}

CellPoolState decode_cells(const std::vector<char>& image,
                           const cells::CellPool& pool) {
  const Checkpoint ckpt = Checkpoint::from_bytes(image);
  CellPoolState st = CellPoolState::deserialize(ckpt.section(kCellsTag),
                                                "cells");
  st.validate(pool);
  return st;
}

TEST_F(IoTest, LatticeCheckpointRoundTrips) {
  lbm::Lattice lat(8, 8, 8, Vec3{1.0, 2.0, 3.0}, 0.5, 0.9);
  lbm::mark_box_walls(lat);
  lbm::mark_face_wall(lat, lbm::Face::YMax, Vec3{0.03, 0.0, 0.0});
  lat.init_equilibrium(1.0, Vec3{});
  lat.init_node_equilibrium(lat.idx(4, 4, 4), 1.05, Vec3{0.02, 0.0, 0.01});
  for (int s = 0; s < 5; ++s) lat.step();

  const std::vector<char> image = lattice_image(lat);
  lbm::Lattice restored(8, 8, 8, Vec3{1.0, 2.0, 3.0}, 0.5, 1.0);
  decode_lattice(image, restored).apply(restored);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    ASSERT_EQ(restored.type(i), lat.type(i));
    ASSERT_EQ(restored.tau(i), lat.tau(i));
    ASSERT_EQ(restored.boundary_velocity(i), lat.boundary_velocity(i));
    // Wall/exterior f slots are canonicalized to zero by capture (they are
    // dead storage the solver never reads), so only live populations are
    // compared byte-for-byte.
    if (!lbm::is_stream_source(lat.type(i))) continue;
    for (int q = 0; q < lbm::kQ; ++q) {
      ASSERT_EQ(restored.f(q, i), lat.f(q, i));
    }
  }
  // Resumed runs produce identical trajectories (wall/exterior nodes hold
  // scratch data and are excluded -- they are never read by the solver).
  lat.step();
  restored.step();
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (!lbm::is_stream_source(lat.type(i))) continue;
    for (int q = 0; q < lbm::kQ; ++q) {
      ASSERT_EQ(restored.f(q, i), lat.f(q, i));
    }
  }
}

TEST_F(IoTest, SerializedBuffersAreAllocatedAtTheirExactSize) {
  // Each writer reserves its final size, so no doubling growth leaves
  // slack capacity (or freed smaller buffers) behind.
  lbm::Lattice lat(20, 12, 9, Vec3{}, 0.5, 0.9);
  lbm::mark_box_walls(lat);
  lat.init_equilibrium(1.0, Vec3{0.01, 0.0, 0.0});
  const std::vector<char> lattice = LatticeState::capture(lat).serialize();
  EXPECT_EQ(lattice.capacity(), lattice.size());

  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 16);
  const std::vector<char> empty = CellPoolState::capture(pool).serialize();
  EXPECT_EQ(empty.capacity(), empty.size());
  pool.add(3, cells::instantiate(*model_, Vec3{1, 2, 3}));
  pool.add(9, cells::instantiate(*model_, Vec3{-4, 0, 2}));
  const std::vector<char> cells = CellPoolState::capture(pool).serialize();
  EXPECT_EQ(cells.capacity(), cells.size());

  Checkpoint ckpt;
  ckpt.add(kLatticeTag, lattice);
  ckpt.add(kCellsTag, cells);
  const std::vector<char> image = ckpt.to_bytes();
  EXPECT_EQ(image.capacity(), image.size());
  EXPECT_EQ(image.size(), ckpt.byte_size());
}

TEST_F(IoTest, LatticeCheckpointRoundTripsCollisionModel) {
  // The collision byte and TRT magic travel with the state, so a resumed
  // run replays with the operator it was saved under -- for all three
  // models, including the MRT id added after the format was frozen.
  for (const lbm::CollisionModel model :
       {lbm::CollisionModel::Bgk, lbm::CollisionModel::Trt,
        lbm::CollisionModel::Mrt}) {
    lbm::Lattice lat(6, 6, 6, Vec3{}, 1.0, 0.8);
    lat.set_collision_model(model, 0.21);
    lat.init_equilibrium(1.0, Vec3{0.01, 0.0, 0.0});
    for (int s = 0; s < 3; ++s) lat.step();
    const std::vector<char> image = lattice_image(lat);
    lbm::Lattice restored(6, 6, 6, Vec3{}, 1.0, 1.0);
    decode_lattice(image, restored).apply(restored);
    EXPECT_EQ(restored.collision_model(), model);
    EXPECT_DOUBLE_EQ(restored.trt_magic(), 0.21);
    // The restored operator replays bit-identically.
    lat.step();
    restored.step();
    for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
      for (int q = 0; q < lbm::kQ; ++q) {
        ASSERT_EQ(restored.f(q, i), lat.f(q, i)) << "model "
                                                 << static_cast<int>(model);
      }
    }
  }
}

TEST_F(IoTest, LatticeCheckpointRejectsUnknownCollisionId) {
  lbm::Lattice lat(5, 5, 5, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  LatticeState st = LatticeState::capture(lat);
  st.collision = 3;  // one past Mrt, the highest valid id
  EXPECT_THROW(st.validate_geometry(lat), CheckpointError);
}

TEST_F(IoTest, LatticeCheckpointRejectsNonPositiveMagic) {
  lbm::Lattice lat(5, 5, 5, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  LatticeState st = LatticeState::capture(lat);
  st.trt_magic = -0.25;  // Lattice::set_collision_model refuses it
  EXPECT_THROW(st.validate_geometry(lat), CheckpointError);
}

TEST_F(IoTest, LatticeCheckpointRejectsGeometryMismatch) {
  lbm::Lattice lat(6, 6, 6, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  const std::vector<char> image = lattice_image(lat);
  lbm::Lattice wrong(7, 6, 6, Vec3{}, 1.0, 1.0);
  EXPECT_THROW(decode_lattice(image, wrong), CheckpointError);
  lbm::Lattice wrong_dx(6, 6, 6, Vec3{}, 0.5, 1.0);
  EXPECT_THROW(decode_lattice(image, wrong_dx), CheckpointError);
}

TEST_F(IoTest, LatticeCheckpointRejectsCorruptHeader) {
  const std::string garbage = "not a checkpoint";
  lbm::Lattice lat(4, 4, 4, Vec3{}, 1.0, 1.0);
  EXPECT_THROW(
      decode_lattice(std::vector<char>(garbage.begin(), garbage.end()), lat),
      CheckpointError);
}

TEST_F(IoTest, CellCheckpointRoundTrips) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 16);
  pool.add(3, cells::instantiate(*model_, Vec3{1, 2, 3}));
  pool.add(9, cells::instantiate(*model_, Vec3{-4, 0, 2}));
  const std::vector<char> image = cells_image(pool);

  cells::CellPool restored(model_.get(), cells::CellKind::Rbc, 16);
  decode_cells(image, restored).apply(restored);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_TRUE(restored.contains(3));
  EXPECT_TRUE(restored.contains(9));
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const auto a = pool.positions(s);
    const auto b = restored.positions(restored.slot_of(pool.id(s)));
    for (std::size_t v = 0; v < a.size(); ++v) ASSERT_EQ(a[v], b[v]);
  }
}

TEST_F(IoTest, CellCheckpointRejectsVertexMismatch) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model_, Vec3{}));
  const std::vector<char> image = cells_image(pool);
  auto other_model = std::make_unique<fem::MembraneModel>(
      mesh::icosphere(2, 1.0), fem::MembraneParams{});
  cells::CellPool other(other_model.get(), cells::CellKind::Rbc, 4);
  EXPECT_THROW(decode_cells(image, other), CheckpointError);
}

TEST_F(IoTest, CellCheckpointRejectsDuplicateIds) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(3, cells::instantiate(*model_, Vec3{}));
  pool.add(9, cells::instantiate(*model_, Vec3{5, 0, 0}));
  CellPoolState st = CellPoolState::capture(pool);
  st.ids[1] = st.ids[0];
  const std::vector<char> image = frame(kCellsTag, st.serialize());
  cells::CellPool target(model_.get(), cells::CellKind::Rbc, 4);
  EXPECT_THROW(decode_cells(image, target), CheckpointError);
  EXPECT_EQ(target.size(), 0u);
}

TEST_F(IoTest, LatticeCheckpointRoundTripsConfiguration) {
  // Periodicity, body force, site counter, vacant-node tau and the
  // moving-wall flag are lattice state too, not just the node arrays.
  lbm::Lattice lat(6, 6, 6, Vec3{}, 1.0, 0.8);
  lat.set_periodic(true, false, true);
  lbm::mark_face_wall(lat, lbm::Face::YMax, Vec3{0.01, 0.0, 0.0});
  lbm::mark_face_wall(lat, lbm::Face::YMin, Vec3{});
  lat.set_body_force(Vec3{1e-5, 0.0, 2e-6});
  lat.init_equilibrium(1.0, Vec3{});
  for (int s = 0; s < 4; ++s) lat.step();
  ASSERT_GT(lat.site_updates(), 0u);

  lbm::Lattice restored(6, 6, 6, Vec3{}, 1.0, 1.0);
  decode_lattice(lattice_image(lat), restored).apply(restored);
  for (int a = 0; a < 3; ++a) EXPECT_EQ(restored.periodic(a), lat.periodic(a));
  EXPECT_EQ(restored.body_force(), lat.body_force());
  EXPECT_EQ(restored.site_updates(), lat.site_updates());
  EXPECT_EQ(restored.default_tau(), 0.8);
  EXPECT_TRUE(restored.ubc_nonzero());
  lat.step();
  restored.step();
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (!lbm::is_stream_source(lat.type(i))) continue;
    for (int q = 0; q < lbm::kQ; ++q) {
      ASSERT_EQ(restored.f(q, i), lat.f(q, i));
    }
  }
}

TEST_F(IoTest, LatticeCheckpointRejectsUnknownNodeType) {
  lbm::Lattice lat(5, 5, 5, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  LatticeState st = LatticeState::capture(lat);
  st.type[st.node_pos(17)] = 200;
  EXPECT_THROW(st.validate_geometry(lat), CheckpointError);
}

TEST_F(IoTest, LatticeCheckpointRejectsInconsistentArrays) {
  lbm::Lattice lat(5, 5, 5, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  const LatticeState good = LatticeState::capture(lat);
  LatticeState short_tau = good;
  short_tau.tau.pop_back();
  EXPECT_THROW(short_tau.validate_geometry(lat), CheckpointError);
  LatticeState short_f = good;
  short_f.f.resize(short_f.f.size() - 1);
  EXPECT_THROW(short_f.validate_geometry(lat), CheckpointError);
  // The arrays must match the block list, not just each other.
  LatticeState no_blocks = good;
  no_blocks.blocks.clear();
  EXPECT_THROW(no_blocks.validate_geometry(lat), CheckpointError);
  EXPECT_THROW((void)no_blocks.serialize(), CheckpointError);
  EXPECT_NO_THROW(good.validate_geometry(lat));
}

TEST_F(IoTest, LatticeStateRejectsImplausibleDimensions) {
  lbm::Lattice lat(4, 4, 4, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  const std::vector<char> good = LatticeState::capture(lat).serialize();
  // nx, ny and nz are the first three i32 fields of the header.
  for (const std::size_t at : {0u, 4u, 8u}) {
    for (const std::int32_t bad : {0, -3, (1 << 14) + 1}) {
      std::vector<char> payload = good;
      std::memcpy(payload.data() + at, &bad, sizeof(bad));
      EXPECT_THROW(LatticeState::deserialize(payload, "lattice"),
                   CheckpointError)
          << "field @" << at << " = " << bad;
    }
  }
  EXPECT_NO_THROW(LatticeState::deserialize(good, "lattice"));
}

TEST_F(IoTest, LatticeStateHugeDimensionsFailClosed) {
  // One 4^3 block (about 14 KB) whose header claims 16384^3 nodes: the
  // claimed first block then needs 16^3 nodes of payload that are not
  // there. Nothing may be sized from the header before that shows.
  lbm::Lattice lat(4, 4, 4, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  std::vector<char> payload = LatticeState::capture(lat).serialize();
  ASSERT_LT(payload.size(), 15000u);
  const std::int32_t huge = 1 << 14;
  for (const std::size_t at : {0u, 4u, 8u}) {
    std::memcpy(payload.data() + at, &huge, sizeof(huge));
  }
  EXPECT_THROW(LatticeState::deserialize(payload, "lattice"),
               CheckpointError);
}

/// Byte offset of the u32 block count in a serialized lattice: nx ny nz
/// (i32), origin, dx, collision, trt_magic, periodic[3], ubc_nonzero,
/// body_force, site_updates, default_tau.
constexpr std::size_t kBlockCountAt =
    3 * 4 + 24 + 8 + 1 + 8 + 3 + 1 + 24 + 8 + 8;
/// Serialized bytes per node of a block: type, tau, ubc, kQ f, rho, u.
constexpr std::size_t kNodeBytes = 1 + 8 + 24 + lbm::kQ * 8 + 8 + 24;

TEST_F(IoTest, LatticeStateRejectsBadBlockIds) {
  // 32 x 16 x 16 nodes: two 16^3 blocks, both holding live populations.
  lbm::Lattice lat(32, 16, 16, Vec3{}, 1.0, 1.0);
  lat.init_equilibrium(1.0, Vec3{});
  const std::vector<char> good = LatticeState::capture(lat).serialize();
  std::uint32_t count = 0;
  std::memcpy(&count, good.data() + kBlockCountAt, sizeof(count));
  ASSERT_EQ(count, 2u);
  const std::size_t first_id_at = kBlockCountAt + 4;
  // Id 1 first makes the second block's id 1 repeat; id 2 is past the
  // last block.
  for (const std::uint32_t bad : {1u, 2u, 0xFFFFFFFFu}) {
    std::vector<char> payload = good;
    std::memcpy(payload.data() + first_id_at, &bad, sizeof(bad));
    EXPECT_THROW(LatticeState::deserialize(payload, "lattice"),
                 CheckpointError)
        << bad;
  }
  // More blocks than the lattice has.
  std::vector<char> payload = good;
  const std::uint32_t too_many = 3;
  std::memcpy(payload.data() + kBlockCountAt, &too_many, sizeof(too_many));
  EXPECT_THROW(LatticeState::deserialize(payload, "lattice"),
               CheckpointError);
}

TEST_F(IoTest, LatticeStateWireFormatOmitsDefaultBlocks) {
  // 40 x 20 x 20 nodes: 3 x 2 x 2 blocks of 16^3, the outer ones clipped.
  // Dense reference mode keeps every tile resident, so capture itself must
  // drop the all-default ones.
  lbm::Lattice lat(40, 20, 20, Vec3{}, 1.0, 0.9);
  lat.set_auto_release(false);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    lat.set_type(i, lbm::NodeType::Exterior);
  }
  ASSERT_EQ(lat.num_tiles(), lat.max_tiles());
  // One non-default node at (20, 17, 3): block (1, 1, 0), id 1 + 1 * 3.
  const std::size_t i = lat.idx(20, 17, 3);
  lat.set_type(i, lbm::NodeType::Fluid);
  lat.set_rho(i, 1.25);
  lat.set_f(5, i, 0.5);
  const LatticeState st = LatticeState::capture(lat);
  ASSERT_EQ(st.blocks, std::vector<std::uint32_t>{4});
  EXPECT_EQ(st.rho[st.node_pos(i)], 1.25);

  const std::vector<char> payload = st.serialize();
  std::uint32_t count = 0, id = 0;
  std::memcpy(&count, payload.data() + kBlockCountAt, sizeof(count));
  std::memcpy(&id, payload.data() + kBlockCountAt + 4, sizeof(id));
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(id, 4u);
  // That block is clipped to 16 x 4 x 16 nodes.
  EXPECT_EQ(payload.size(), kBlockCountAt + 4 + 4 + 16 * 4 * 16 * kNodeBytes);

  const LatticeState back = LatticeState::deserialize(payload, "lattice");
  EXPECT_EQ(back.blocks, st.blocks);
  EXPECT_EQ(back.type, st.type);
  EXPECT_EQ(back.tau, st.tau);
  EXPECT_EQ(back.ubc, st.ubc);
  EXPECT_EQ(back.f, st.f);
  EXPECT_EQ(back.rho, st.rho);
  EXPECT_EQ(back.u, st.u);
  EXPECT_EQ(back.serialize(), payload);
}

TEST_F(IoTest, LatticeStateHoldsOnlyKeptBlockNodes) {
  // 40^3 nodes: 3 x 3 x 3 blocks. Only the far corner block, clipped to
  // 8^3 nodes, is resident.
  lbm::Lattice lat(40, 40, 40, Vec3{}, 1.0, 1.0);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    lat.set_type(i, lbm::NodeType::Exterior);
  }
  ASSERT_EQ(lat.num_tiles(), 0u);
  const std::size_t i = lat.idx(39, 33, 35);
  lat.set_type(i, lbm::NodeType::Wall);
  ASSERT_EQ(lat.num_tiles(), 1u);

  const LatticeState st = LatticeState::capture(lat);
  EXPECT_EQ(st.blocks, std::vector<std::uint32_t>{26});
  const std::size_t m = 8 * 8 * 8;
  EXPECT_EQ(st.type.size(), m);
  EXPECT_EQ(st.tau.size(), m);
  EXPECT_EQ(st.ubc.size(), m);
  EXPECT_EQ(st.f.size(), lbm::kQ * m);
  EXPECT_EQ(st.rho.size(), m);
  EXPECT_EQ(st.u.size(), m);
  // Node (39, 33, 35) is (7, 1, 3) inside the clipped 8^3 block.
  EXPECT_EQ(st.node_pos(i), (3u * 8u + 1u) * 8u + 7u);
  EXPECT_EQ(st.type[st.node_pos(i)],
            static_cast<std::uint8_t>(lbm::NodeType::Wall));
  EXPECT_EQ(std::count(st.type.begin(), st.type.end(), 0), 511);
  EXPECT_THROW((void)st.node_pos(lat.idx(0, 0, 0)), CheckpointError);
}

TEST_F(IoTest, CellCheckpointRestoresVelocities) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(3, cells::instantiate(*model_, Vec3{1, 2, 3}));
  pool.add(9, cells::instantiate(*model_, Vec3{-4, 0, 2}));
  Rng rng(5);
  for (std::size_t s = 0; s < pool.size(); ++s) {
    for (Vec3& v : pool.velocities(s)) {
      v = Vec3{rng.uniform(), -rng.uniform(), rng.uniform()};
    }
  }
  const std::vector<char> image = cells_image(pool);

  // Restored cells are appended after the target's own.
  cells::CellPool restored(model_.get(), cells::CellKind::Rbc, 4);
  restored.add(50, cells::instantiate(*model_, Vec3{9, 9, 9}));
  decode_cells(image, restored).apply(restored);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.id(0), 50u);
  for (std::size_t s = 0; s < pool.size(); ++s) {
    EXPECT_EQ(restored.id(s + 1), pool.id(s));
    const auto a = pool.velocities(s);
    const auto b = restored.velocities(s + 1);
    for (std::size_t v = 0; v < a.size(); ++v) ASSERT_EQ(a[v], b[v]);
  }
}

TEST_F(IoTest, EmptyCellPoolRoundTrips) {
  const cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  const CellPoolState st = CellPoolState::capture(pool);
  EXPECT_TRUE(st.ids.empty());
  cells::CellPool restored(model_.get(), cells::CellKind::Rbc, 4);
  decode_cells(cells_image(pool), restored).apply(restored);
  EXPECT_EQ(restored.size(), 0u);
}

TEST_F(IoTest, CellCheckpointRejectsModelMismatch) {
  // Same mesh, so the vertex counts agree; only the material differs.
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model_, Vec3{}));
  const std::vector<char> image = cells_image(pool);
  fem::MembraneParams stiffer;
  stiffer.shear_modulus *= 2.0;
  const fem::MembraneModel other_model(mesh::icosphere(1, 1.0), stiffer);
  cells::CellPool other(&other_model, cells::CellKind::Rbc, 4);
  EXPECT_THROW(decode_cells(image, other), CheckpointError);
  EXPECT_EQ(other.size(), 0u);
}

TEST_F(IoTest, CellCheckpointRejectsPoolWithoutRoom) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model_, Vec3{}));
  pool.add(2, cells::instantiate(*model_, Vec3{5, 0, 0}));
  const std::vector<char> image = cells_image(pool);
  cells::CellPool small(model_.get(), cells::CellKind::Rbc, 1);
  EXPECT_THROW(decode_cells(image, small), CheckpointError);
  // Room is counted after the cells the target already holds.
  cells::CellPool partly_full(model_.get(), cells::CellKind::Rbc, 2);
  partly_full.add(7, cells::instantiate(*model_, Vec3{}));
  EXPECT_THROW(decode_cells(image, partly_full), CheckpointError);
  EXPECT_EQ(partly_full.size(), 1u);
}

TEST_F(IoTest, CellCheckpointRejectsIdAlreadyInPool) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(3, cells::instantiate(*model_, Vec3{}));
  pool.add(9, cells::instantiate(*model_, Vec3{5, 0, 0}));
  const std::vector<char> image = cells_image(pool);
  cells::CellPool target(model_.get(), cells::CellKind::Rbc, 4);
  target.add(9, cells::instantiate(*model_, Vec3{-5, 0, 0}));
  const std::vector<char> before = CellPoolState::capture(target).serialize();
  EXPECT_THROW(decode_cells(image, target), CheckpointError);
  EXPECT_EQ(CellPoolState::capture(target).serialize(), before);
}

TEST_F(IoTest, CellStateRejectsImplausibleVertexCount) {
  cells::CellPool pool(model_.get(), cells::CellKind::Rbc, 4);
  pool.add(1, cells::instantiate(*model_, Vec3{}));
  const std::vector<char> good = CellPoolState::capture(pool).serialize();
  for (const std::uint32_t bad : {0u, (1u << 20) + 1u}) {
    std::vector<char> payload = good;
    std::memcpy(payload.data(), &bad, sizeof(bad));  // nv leads the payload
    EXPECT_THROW(CellPoolState::deserialize(payload, "cells"),
                 CheckpointError)
        << bad;
  }
  EXPECT_NO_THROW(CellPoolState::deserialize(good, "cells"));
}

TEST_F(IoTest, MembraneDigestTracksReferenceState) {
  const fem::MembraneModel twin(mesh::icosphere(1, 1.0),
                                fem::MembraneParams{});
  EXPECT_EQ(membrane_model_digest(twin), membrane_model_digest(*model_));
  const fem::MembraneModel finer(mesh::icosphere(2, 1.0),
                                 fem::MembraneParams{});
  EXPECT_NE(membrane_model_digest(finer), membrane_model_digest(*model_));
  const fem::MembraneModel larger(mesh::icosphere(1, 1.5),
                                  fem::MembraneParams{});
  EXPECT_NE(membrane_model_digest(larger), membrane_model_digest(*model_));
  fem::MembraneParams bending;
  bending.bending_modulus = 1e-4;
  const fem::MembraneModel bent(mesh::icosphere(1, 1.0), bending);
  EXPECT_NE(membrane_model_digest(bent), membrane_model_digest(*model_));
}

// --- seeded byte mutation of the section payloads --------------------------

std::uint64_t digest_of(const std::vector<char>& bytes) {
  Fnv1a h;
  h.update(bytes.data(), bytes.size());
  return h.value();
}

std::uint64_t lattice_digest(const lbm::Lattice& lat) {
  return digest_of(LatticeState::capture(lat).serialize());
}

std::uint64_t pool_digest(const cells::CellPool& pool) {
  return digest_of(CellPoolState::capture(pool).serialize());
}

/// A length-like field of a serialized payload: byte offset and width.
struct Field {
  std::size_t offset;
  std::size_t width;
};

/// One seeded mutation: a byte flip (half of them aimed at the header),
/// a truncation, an extension with random bytes, a length field
/// overwritten with a boundary value, or (when `joint` is not empty) all
/// of `joint` overwritten together with one large in-range value.
void mutate(std::vector<char>& p, const std::vector<Field>& fields,
            const std::vector<Field>& joint, Rng& rng) {
  switch (rng.uniform_index(joint.empty() ? 4 : 5)) {
    case 0: {
      const std::size_t span =
          rng.uniform() < 0.5 ? std::min<std::size_t>(p.size(), 128)
                              : p.size();
      p[rng.uniform_index(span)] ^=
          static_cast<char>(1 + rng.uniform_index(255));
      break;
    }
    case 1:
      p.resize(rng.uniform_index(p.size()));
      break;
    case 2: {
      const std::size_t extra = 1 + rng.uniform_index(16);
      for (std::size_t k = 0; k < extra; ++k) {
        p.push_back(static_cast<char>(rng.next_u64()));
      }
      break;
    }
    case 4: {
      const std::uint64_t values[] = {1ull << 13, (1ull << 14) - 1,
                                      1ull << 14};
      const std::uint64_t v = values[rng.uniform_index(3)];
      for (const Field& f : joint) std::memcpy(p.data() + f.offset, &v, f.width);
      break;
    }
    default: {
      const Field f = fields[rng.uniform_index(fields.size())];
      std::uint64_t old = 0;
      std::memcpy(&old, p.data() + f.offset, f.width);
      const std::uint64_t values[] = {0,
                                      1,
                                      old - 1,
                                      old + 1,
                                      2 * old,
                                      (1ull << 14) + 1,
                                      (1ull << 20) + 1,
                                      (1ull << 24) + 1,
                                      0x7FFFFFFFull,
                                      0x80000000ull,
                                      ~0ull,
                                      rng.next_u64()};
      const std::uint64_t v =
          values[rng.uniform_index(sizeof(values) / sizeof(values[0]))];
      std::memcpy(p.data() + f.offset, &v, f.width);
      break;
    }
  }
}

TEST(IoFuzz, SectionPayloadsFailClosed) {
  // Each mutated payload is re-framed, so its CRC passes and the bytes
  // reach deserialize/validate. Every input must either be rejected with
  // a CheckpointError before apply, target untouched, or validate and
  // apply cleanly. Any other exception is a parser that fails open.
  const auto build_lattice = [](lbm::CollisionModel model, int steps) {
    lbm::Lattice lat(6, 5, 4, Vec3{}, 1.0, 0.8);
    lbm::mark_box_walls(lat);
    lbm::mark_face_wall(lat, lbm::Face::YMax, Vec3{0.02, 0.0, 0.0});
    lat.set_collision_model(model, 0.21);
    lat.set_body_force(Vec3{1e-5, 0.0, 0.0});
    lat.init_equilibrium(1.0, Vec3{});
    for (int s = 0; s < steps; ++s) lat.step();
    return lat;
  };
  const lbm::Lattice source = build_lattice(lbm::CollisionModel::Trt, 3);
  const std::vector<char> lattice_payload =
      LatticeState::capture(source).serialize();
  lbm::Lattice target = build_lattice(lbm::CollisionModel::Bgk, 1);
  const LatticeState target_state = LatticeState::capture(target);
  const std::uint64_t target_digest = lattice_digest(target);

  // Header fields, then the u32 block count and the first block id.
  const std::size_t block_count_at = kBlockCountAt;
  std::uint32_t block_count = 0;
  std::memcpy(&block_count, lattice_payload.data() + block_count_at, 4);
  ASSERT_EQ(block_count, 1u);  // the layout the fields below assume
  const std::vector<Field> lattice_fields = {
      {0, 4}, {4, 4}, {8, 4}, {block_count_at, 4}, {block_count_at + 4, 4}};
  // nx, ny and nz together: a header claiming up to 16384^3 nodes.
  const std::vector<Field> lattice_dims = {{0, 4}, {4, 4}, {8, 4}};

  const auto model = std::make_unique<fem::MembraneModel>(
      mesh::icosphere(1, 1.0), fem::MembraneParams{});
  cells::CellPool source_pool(model.get(), cells::CellKind::Rbc, 4);
  source_pool.add(3, cells::instantiate(*model, Vec3{1, 2, 3}));
  source_pool.add(9, cells::instantiate(*model, Vec3{-4, 0, 2}));
  source_pool.velocities(1)[0] = Vec3{0.5, 0.0, -0.25};
  const std::vector<char> cells_payload =
      CellPoolState::capture(source_pool).serialize();
  const auto build_pool = [&] {
    cells::CellPool pool(model.get(), cells::CellKind::Rbc, 4);
    pool.add(100, cells::instantiate(*model, Vec3{}));
    return pool;
  };
  // nv (u32), model digest (u64), then three u64-prefixed arrays: ids,
  // positions, velocities.
  const std::size_t nv = static_cast<std::size_t>(model->num_vertices());
  const std::size_t ids_at = 4 + 8;
  const std::size_t x_at = ids_at + 8 + 2 * 8;
  const std::size_t v_at = x_at + 8 + 2 * nv * sizeof(Vec3);
  ASSERT_EQ(v_at + 8 + 2 * nv * sizeof(Vec3), cells_payload.size());
  const std::vector<Field> cell_fields = {
      {0, 4}, {ids_at, 8}, {x_at, 8}, {v_at, 8}};

  Rng rng(0x10F022);
  int rejected = 0;
  int applied = 0;
  for (int i = 0; i < 2000 && !HasFailure(); ++i) {
    if (i % 2 == 0) {
      std::vector<char> payload = lattice_payload;
      mutate(payload, lattice_fields, lattice_dims, rng);
      const std::vector<char> image = frame(kLatticeTag, std::move(payload));
      try {
        const LatticeState st = decode_lattice(image, target);
        try {
          st.apply(target);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "mutation " << i << ": apply threw " << e.what();
        }
        ++applied;
        target_state.apply(target);
        ASSERT_EQ(lattice_digest(target), target_digest) << "mutation " << i;
      } catch (const CheckpointError&) {
        ++rejected;
        EXPECT_EQ(lattice_digest(target), target_digest) << "mutation " << i;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutation " << i << ": lattice payload escaped as "
                      << e.what();
      }
    } else {
      std::vector<char> payload = cells_payload;
      mutate(payload, cell_fields, {}, rng);
      const std::vector<char> image = frame(kCellsTag, std::move(payload));
      cells::CellPool pool = build_pool();
      const std::uint64_t before = pool_digest(pool);
      try {
        const CellPoolState st = decode_cells(image, pool);
        try {
          st.apply(pool);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "mutation " << i << ": apply threw " << e.what();
        }
        ++applied;
      } catch (const CheckpointError&) {
        ++rejected;
        EXPECT_EQ(pool_digest(pool), before) << "mutation " << i;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutation " << i << ": cell payload escaped as "
                      << e.what();
      }
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(applied, 0);
}

}  // namespace
}  // namespace apr::io
