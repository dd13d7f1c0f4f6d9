/// Checkpoint/restart of the assembled APR simulation: the resume
/// contract (save -> load -> step(N) bit-exact with an uninterrupted run
/// at the same worker count), and the fail-closed corruption matrix
/// (truncation, bit flips, foreign files, version skew all raise
/// io::CheckpointError and leave the target simulation untouched).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/apr/simulation.hpp"
#include "src/common/log.hpp"
#include "src/exec/exec.hpp"
#include "src/io/checkpoint.hpp"
#include "src/mesh/shapes.hpp"
#include "src/rheology/blood.hpp"

namespace apr::core {
namespace {

std::shared_ptr<fem::MembraneModel> tiny_rbc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kRbcShearModulus;
  p.skalak_c = 50.0;
  p.bending_modulus = rheology::kRbcBendingModulus;
  p.ka_global = 1e-6;
  p.kv_global = 1e-6;
  return std::make_shared<fem::MembraneModel>(mesh::rbc_biconcave(1, 1e-6),
                                              p);
}

std::shared_ptr<fem::MembraneModel> tiny_ctc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kCtcShearModulus;
  p.skalak_c = 50.0;
  p.bending_modulus = 10.0 * rheology::kRbcBendingModulus;
  p.ka_global = 1e-5;
  p.kv_global = 1e-5;
  return std::make_shared<fem::MembraneModel>(mesh::ctc_sphere(1, 1.6e-6), p);
}

AprParams tiny_params() {
  AprParams p;
  p.dx_coarse = 2.0e-6;
  p.n = 2;
  p.tau_coarse = 1.0;
  p.nu_bulk = rheology::kWholeBloodKinematicViscosity;
  p.lambda = rheology::kPlasmaViscosity / rheology::kWholeBloodViscosity;
  p.window.proper_side = 6.0e-6;
  p.window.onramp_width = 2.5e-6;
  p.window.insertion_width = 5.5e-6;  // outer = 22 um = 11 dx_coarse
  p.window.target_hematocrit = 0.10;
  p.move.trigger_distance = 1.5e-6;
  p.fsi.contact_cutoff = 0.4e-6;
  p.fsi.contact_strength = 2e-12;
  p.fsi.wall_cutoff = 0.5e-6;
  p.fsi.wall_strength = 5e-12;
  p.maintain_interval = 3;  // maintenance fires on both sides of step 25
  p.rbc_capacity = 1500;
  p.seed = 7;
  return p;
}

std::shared_ptr<geometry::TubeDomain> tube_domain() {
  return std::make_shared<geometry::TubeDomain>(
      Vec3{0.0, 0.0, -30e-6}, Vec3{0.0, 0.0, 1.0}, 60e-6, 16e-6,
      /*capped=*/false);
}

std::unique_ptr<AprSimulation> fresh_sim(const AprParams& p = tiny_params()) {
  return std::make_unique<AprSimulation>(tube_domain(), tiny_rbc(),
                                         tiny_ctc(), p);
}

/// Window + CTC + two explicitly placed RBCs in a developed force-driven
/// tube flow -- the resume scenario of the ISSUE. Manual RBC ids sit far
/// above anything next_cell_id_ can reach (maintenance and window fills
/// allocate sequentially from 1) so insertions never clash.
constexpr std::uint64_t kManualId = 1ull << 32;

void setup_two_rbc_case(AprSimulation& sim) {
  sim.initialize_flow(Vec3{});
  sim.coarse().set_periodic(false, false, true);
  sim.set_body_force_density(Vec3{0.0, 0.0, 6e6});
  for (int s = 0; s < 100; ++s) sim.coarse().step();
  sim.place_window(Vec3{});
  sim.place_ctc(Vec3{});
  sim.rbcs().add(kManualId,
                 cells::instantiate(sim.rbcs().model(), Vec3{0, 4e-6, 0}));
  sim.rbcs().add(kManualId + 1,
                 cells::instantiate(sim.rbcs().model(), Vec3{0, -4e-6, 0}));
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<char> slurp_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
}

void spew_binary(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Byte-level comparison of two simulations' full state.
void expect_bit_identical(const AprSimulation& a, const AprSimulation& b) {
  // Distributions at every stream-source node (Wall/Exterior nodes hold
  // scratch data the solver never reads).
  auto compare_lattice = [](const lbm::Lattice& la, const lbm::Lattice& lb,
                            const char* which) {
    ASSERT_EQ(la.num_nodes(), lb.num_nodes()) << which;
    for (std::size_t i = 0; i < la.num_nodes(); ++i) {
      ASSERT_EQ(la.type(i), lb.type(i)) << which << " node " << i;
      if (!lbm::is_stream_source(la.type(i))) continue;
      ASSERT_EQ(la.tau(i), lb.tau(i)) << which << " node " << i;
      for (int q = 0; q < lbm::kQ; ++q) {
        ASSERT_EQ(la.f(q, i), lb.f(q, i))
            << which << " node " << i << " q " << q;
      }
    }
  };
  compare_lattice(a.coarse(), b.coarse(), "coarse");
  ASSERT_EQ(a.has_window(), b.has_window());
  if (a.has_window()) compare_lattice(a.fine(), b.fine(), "fine");

  // Cell vertex arrays, slot by slot.
  ASSERT_EQ(a.rbcs().size(), b.rbcs().size());
  for (std::size_t s = 0; s < a.rbcs().size(); ++s) {
    ASSERT_EQ(a.rbcs().id(s), b.rbcs().id(s)) << "slot " << s;
    const auto xa = a.rbcs().positions(s);
    const auto xb = b.rbcs().positions(s);
    const auto va = a.rbcs().velocities(s);
    const auto vb = b.rbcs().velocities(s);
    for (std::size_t v = 0; v < xa.size(); ++v) {
      ASSERT_EQ(xa[v], xb[v]) << "rbc slot " << s << " vertex " << v;
      ASSERT_EQ(va[v], vb[v]) << "rbc slot " << s << " vertex " << v;
    }
  }
  ASSERT_EQ(a.ctcs().size(), b.ctcs().size());

  ASSERT_EQ(a.coarse_steps(), b.coarse_steps());
  ASSERT_EQ(a.window_move_count(), b.window_move_count());
  ASSERT_EQ(a.ctc_trajectory().size(), b.ctc_trajectory().size());

  // The digest covers everything above plus counters, Rng and BCs.
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::Error); }
};

// --- the tentpole resume contract -------------------------------------------

TEST_F(CheckpointTest, ResumeAtStep25IsBitExactWithStraightRunTo50) {
  const std::string path = temp_path("resume25.chk");

  // Reference: one uninterrupted 50-step run, checkpointing (const) at 25.
  auto ref = fresh_sim();
  setup_two_rbc_case(*ref);
  ref->run(25);
  ref->save_checkpoint(path);
  ref->run(25);

  // Resumed: a fresh simulation that never stepped, restored at 25.
  auto resumed = fresh_sim();
  resumed->load_checkpoint(path);
  EXPECT_EQ(resumed->coarse_steps(), 25);
  // Maintenance ran before the save, so the restored pool must hold more
  // than the two hand-placed cells.
  EXPECT_GT(resumed->rbcs().size(), 2u);
  resumed->run(25);

  EXPECT_EQ(resumed->coarse_steps(), 50);
  expect_bit_identical(*ref, *resumed);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ResumeAfterIncrementalWindowMoveIsBitExact) {
  // A relocation before the checkpoint builds the coupler through the
  // incremental move; load rebuilds it from the restored window alone, and
  // the restored run must still stay bit-exact.
  const std::string path = temp_path("resume_moved.chk");
  auto ref = fresh_sim();
  setup_two_rbc_case(*ref);
  ref->run(5);
  ref->relocate_window(ref->window().center() +
                       Vec3{0.0, 0.0, ref->coarse().dx()});
  ASSERT_TRUE(ref->last_relocation().incremental);
  ref->run(5);
  ref->save_checkpoint(path);
  ref->run(10);

  auto resumed = fresh_sim();
  resumed->load_checkpoint(path);
  resumed->run(10);
  expect_bit_identical(*ref, *resumed);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ResumedTrajectoryMatchesAcrossWorkerCounts) {
  // Mirrors the spread-determinism contract: state is worker-count
  // independent up to rounding, so a checkpoint written under one worker
  // count resumes under another with only rounding-level divergence.
  const std::string path = temp_path("resume_workers.chk");
  const int saved = exec::num_workers();

  exec::set_num_workers(1);
  auto ref = fresh_sim();
  setup_two_rbc_case(*ref);
  ref->run(25);
  ref->save_checkpoint(path);
  ref->run(25);
  const std::vector<Vec3> t1 = ref->ctc_trajectory();

  exec::set_num_workers(4);
  auto resumed = fresh_sim();
  resumed->load_checkpoint(path);
  resumed->run(25);
  const std::vector<Vec3> t4 = resumed->ctc_trajectory();
  exec::set_num_workers(saved);

  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_NEAR(t1[i].x, t4[i].x, 1e-12);
    EXPECT_NEAR(t1[i].y, t4[i].y, 1e-12);
    EXPECT_NEAR(t1[i].z, t4[i].z, 1e-12);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, SaveLoadSaveIsByteStable) {
  const std::string p1 = temp_path("stable1.chk");
  const std::string p2 = temp_path("stable2.chk");
  auto sim = fresh_sim();
  setup_two_rbc_case(*sim);
  sim->run(10);
  const std::uint64_t digest = sim->state_digest();
  sim->save_checkpoint(p1);

  auto other = fresh_sim();
  other->load_checkpoint(p1);
  EXPECT_EQ(other->state_digest(), digest);
  other->save_checkpoint(p2);
  EXPECT_EQ(slurp_binary(p1), slurp_binary(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST_F(CheckpointTest, InMemoryBytesRoundTripMatchesDiskFormat) {
  // to_bytes/from_bytes are what the health watchdog's rolling rollback
  // point uses; they must be the exact on-disk layout with the same
  // validation, or a rollback could restore what a file load would reject.
  const std::string path = temp_path("membytes.chk");
  auto sim = fresh_sim();
  setup_two_rbc_case(*sim);
  sim->run(6);
  sim->save_checkpoint(path);

  const io::Checkpoint from_disk = io::Checkpoint::read(path);
  const std::vector<char> bytes = from_disk.to_bytes();
  EXPECT_EQ(bytes, slurp_binary(path)) << "to_bytes differs from write()";

  const io::Checkpoint reparsed = io::Checkpoint::from_bytes(bytes, "test");
  EXPECT_EQ(reparsed.digest(), from_disk.digest());

  // Sections survive verbatim and a restore from the reparsed container
  // reproduces the simulation bit-exactly.
  const std::uint32_t meta = io::fourcc('M', 'E', 'T', 'A');
  ASSERT_TRUE(reparsed.has(meta));
  EXPECT_EQ(reparsed.section(meta), from_disk.section(meta));
  auto twin = fresh_sim();
  twin->load_checkpoint(reparsed);
  EXPECT_EQ(twin->state_digest(), sim->state_digest());

  // Damaged bytes fail closed with the caller-supplied source name.
  std::vector<char> bad = bytes;
  bad[bad.size() / 2] ^= 0x40;
  try {
    (void)io::Checkpoint::from_bytes(bad, "rollback buffer");
    FAIL() << "from_bytes accepted corrupted bytes";
  } catch (const io::CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("CRC"), std::string::npos) << "message was: " << msg;
    EXPECT_NE(msg.find("rollback buffer"), std::string::npos)
        << "message was: " << msg;
  }
  std::vector<char> truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_THROW((void)io::Checkpoint::from_bytes(truncated),
               io::CheckpointError);
  std::remove(path.c_str());
}

// --- corruption matrix: every damaged file fails closed ---------------------

class CheckpointCorruptionTest : public CheckpointTest {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each test as its own process, possibly
    // in parallel, so a shared filename would race.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = temp_path(
        (std::string("corrupt_") + info->name() + ".chk").c_str());
    donor_ = fresh_sim();
    setup_two_rbc_case(*donor_);
    donor_->run(4);
    donor_->save_checkpoint(path_);
    bytes_ = slurp_binary(path_);
    ASSERT_GT(bytes_.size(), 64u);

    target_ = fresh_sim();
    setup_two_rbc_case(*target_);
    target_->run(2);  // distinct, live state that must survive untouched
    digest_before_ = target_->state_digest();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Load must throw io::CheckpointError and leave `target_` unmodified.
  void expect_fails_closed(const std::string& expect_in_message) {
    try {
      target_->load_checkpoint(path_);
      FAIL() << "load_checkpoint accepted a damaged file";
    } catch (const io::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(expect_in_message),
                std::string::npos)
          << "message was: " << e.what();
    }
    EXPECT_EQ(target_->state_digest(), digest_before_)
        << "target simulation was modified by a failed load";
    // And it still steps normally afterwards.
    target_->step();
  }

  std::string path_;
  std::vector<char> bytes_;
  std::unique_ptr<AprSimulation> donor_;
  std::unique_ptr<AprSimulation> target_;
  std::uint64_t digest_before_ = 0;
};

TEST_F(CheckpointCorruptionTest, TruncatedHeaderFailsClosed) {
  bytes_.resize(10);  // magic survives, version is cut off
  spew_binary(path_, bytes_);
  expect_fails_closed("truncated");
}

TEST_F(CheckpointCorruptionTest, TruncatedSectionFailsClosed) {
  bytes_.resize(bytes_.size() / 2);
  spew_binary(path_, bytes_);
  expect_fails_closed("truncated");
}

TEST_F(CheckpointCorruptionTest, FlippedByteFailsCrc) {
  bytes_[bytes_.size() / 2] ^= 0x40;  // mid coarse-lattice payload
  spew_binary(path_, bytes_);
  expect_fails_closed("CRC");
}

TEST_F(CheckpointCorruptionTest, WrongMagicFailsClosed) {
  const char foreign[8] = {'N', 'O', 'T', 'A', 'C', 'K', 'P', 'T'};
  for (int i = 0; i < 8; ++i) bytes_[static_cast<std::size_t>(i)] = foreign[i];
  spew_binary(path_, bytes_);
  expect_fails_closed("magic");
}

TEST_F(CheckpointCorruptionTest, FutureVersionFailsClosed) {
  // Format version is the u32 straight after the u64 magic. A future
  // version and the previous layout (version 2) are both rejected: there
  // is no migration path.
  for (const std::uint8_t version : {99, 2}) {
    bytes_[8] = static_cast<char>(version);
    bytes_[9] = 0;
    bytes_[10] = 0;
    bytes_[11] = 0;
    spew_binary(path_, bytes_);
    digest_before_ = target_->state_digest();
    expect_fails_closed("version");
  }
}

TEST_F(CheckpointCorruptionTest, MissingFileFailsClosed) {
  std::remove(path_.c_str());
  expect_fails_closed("cannot open");
}

TEST_F(CheckpointCorruptionTest, MismatchedParamsFailClosed) {
  // A pristine checkpoint from a different configuration must be rejected
  // by the parameter digest, not silently restored.
  AprParams other = tiny_params();
  other.seed = 8;
  target_ = fresh_sim(other);
  setup_two_rbc_case(*target_);
  target_->run(2);
  digest_before_ = target_->state_digest();
  expect_fails_closed("AprParams");
}

}  // namespace
}  // namespace apr::core
