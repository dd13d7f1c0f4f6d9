/// Golden-state regression harness (fast tier, so every build flavour
/// runs it). tests/golden/ holds a committed checkpoint of the scenario in
/// tools/golden_scenario.hpp plus a manifest of its digests and physics
/// invariants. Three layers of protection:
///
///  1. The committed container must parse, CRC-clean, and its digest must
///     match the manifest *exactly* -- catches accidental edits to the
///     committed bytes and incompatible format changes.
///  2. Invariants recomputed from the loaded state must match the
///     manifest exactly -- catches silent changes to the serialization or
///     to the load path.
///  3. After replaying kGoldenEvolveSteps at one worker, the state digest
///     must equal the manifest's evolved_digest -- the build-flavour
///     contract (DESIGN.md §6): no flavour may round differently. The
///     evolved invariants must also match to 1e-6 relative, which says
///     whether a digest mismatch is rounding or physics drift.
///
/// An *intentional* physics change regenerates the files:
///     ./build/tools/make_golden tests/golden
/// and commits the result (the diff of the manifest doubles documents the
/// magnitude of the change for review).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/log.hpp"
#include "src/exec/exec.hpp"
#include "src/io/checkpoint.hpp"
#include "tools/golden_scenario.hpp"

#ifndef HEMOAPR_GOLDEN_DIR
#error "HEMOAPR_GOLDEN_DIR must be defined by the build"
#endif

namespace apr::tools {
namespace {

std::string golden_dir() { return HEMOAPR_GOLDEN_DIR; }

std::map<std::string, std::string> read_manifest(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t");
      const auto e = s.find_last_not_of(" \t");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
  return kv;
}

double as_double(const std::map<std::string, std::string>& kv,
                 const std::string& key) {
  const auto it = kv.find(key);
  EXPECT_NE(it, kv.end()) << "manifest is missing " << key;
  return it == kv.end() ? 0.0 : std::stod(it->second);
}

std::uint64_t hex_value(const std::map<std::string, std::string>& kv,
                        const std::string& key) {
  const auto it = kv.find(key);
  EXPECT_NE(it, kv.end()) << "manifest is missing " << key;
  std::uint64_t value = 0;
  if (it != kv.end()) std::stringstream(it->second) >> std::hex >> value;
  return value;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIX64, v);
  return buf;
}

/// rel_tol 0 demands exact equality.
void expect_invariants(const GoldenInvariants& inv,
                       const std::map<std::string, std::string>& kv,
                       const std::string& prefix, double rel_tol) {
  const auto check = [&](const char* name, double actual) {
    const double expected = as_double(kv, prefix + name);
    const double scale = std::max(std::abs(expected), 1e-30);
    EXPECT_NEAR(actual, expected, rel_tol * scale) << prefix << name;
  };
  check("coarse_mass", inv.coarse_mass);
  check("fine_mass", inv.fine_mass);
  check("fine_momentum_x", inv.fine_momentum.x);
  check("fine_momentum_y", inv.fine_momentum.y);
  check("fine_momentum_z", inv.fine_momentum.z);
  check("rbc_volume", inv.rbc_volume);
  check("rbc_area", inv.rbc_area);
  check("ctc_volume", inv.ctc_volume);
  check("ctc_area", inv.ctc_area);
  EXPECT_EQ(inv.rbc_count,
            static_cast<std::size_t>(as_double(kv, prefix + "rbc_count")))
      << prefix << "rbc_count";
}

class GoldenStateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::Error); }
  void SetUp() override {
    chk_ = golden_dir() + "/" + golden_checkpoint_name();
    manifest_ = read_manifest(golden_dir() + "/" + golden_manifest_name());
    ASSERT_FALSE(manifest_.empty());
  }
  std::string chk_;
  std::map<std::string, std::string> manifest_;
};

TEST_F(GoldenStateTest, CommittedContainerIsIntactAndDigestMatchesExactly) {
  const io::Checkpoint ckpt = io::Checkpoint::read(chk_);  // CRC-validates
  EXPECT_EQ(ckpt.digest(), hex_value(manifest_, "digest"))
      << "committed golden checkpoint bytes changed; if intentional, "
         "regenerate with make_golden and commit both files";
}

TEST_F(GoldenStateTest, LoadedStateReproducesManifestInvariants) {
  auto sim = std::make_unique<core::AprSimulation>(
      golden_domain(), golden_rbc_model(), golden_ctc_model(),
      golden_params());
  sim->load_checkpoint(chk_);
  EXPECT_EQ(sim->coarse_steps(),
            static_cast<int>(as_double(manifest_, "coarse_steps")));
  expect_invariants(compute_invariants(*sim), manifest_, "", 0.0);

  // Byte stability: re-serializing the loaded state reproduces the
  // committed file exactly.
  const std::string resaved =
      std::string(::testing::TempDir()) + "/golden_resave.chk";
  sim->save_checkpoint(resaved);
  std::ifstream a(chk_, std::ios::binary);
  std::ifstream b(resaved, std::ios::binary);
  const std::vector<char> ba((std::istreambuf_iterator<char>(a)),
                             std::istreambuf_iterator<char>());
  const std::vector<char> bb((std::istreambuf_iterator<char>(b)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(ba, bb);
  std::remove(resaved.c_str());
}

TEST_F(GoldenStateTest, ReplayedEvolutionMatchesManifestInvariants) {
  // The generator wrote the golden files at one worker (the state is
  // bit-exact only at a fixed worker count); replay the same way.
  const int saved = exec::num_workers();
  exec::set_num_workers(1);
  auto sim = std::make_unique<core::AprSimulation>(
      golden_domain(), golden_rbc_model(), golden_ctc_model(),
      golden_params());
  sim->load_checkpoint(chk_);
  sim->run(static_cast<int>(as_double(manifest_, "evolve_steps")));
  exec::set_num_workers(saved);
  const std::uint64_t digest = sim->state_digest();
  const std::uint64_t expected = hex_value(manifest_, "evolved_digest");
  EXPECT_EQ(digest, expected)
      << "evolved state digest " << hex16(digest) << " != manifest "
      << hex16(expected)
      << "; this build flavour rounds differently from the generator's";
  expect_invariants(compute_invariants(*sim), manifest_, "evolved_", 1e-6);
}

}  // namespace
}  // namespace apr::tools
