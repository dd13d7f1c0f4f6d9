/// \file make_golden.cpp
/// Regenerate the committed golden-state checkpoint and its manifest.
///
///   make_golden [output_dir]     (default: tests/golden)
///
/// Runs the scenario in tools/golden_scenario.hpp for kGoldenSaveSteps,
/// writes the checkpoint, then advances kGoldenEvolveSteps further and
/// records both sets of physics invariants and the evolved state digest
/// in a key=value manifest. Run this (and commit both files) whenever an
/// intentional physics change invalidates the golden state;
/// tests/test_golden.cpp explains which assertions an unintentional
/// change trips.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/common/log.hpp"
#include "src/exec/exec.hpp"
#include "src/io/checkpoint.hpp"
#include "tools/golden_scenario.hpp"

namespace {

void write_manifest(const std::string& path,
                    const apr::tools::GoldenInvariants& at_save,
                    const apr::tools::GoldenInvariants& evolved,
                    std::uint64_t digest, std::uint64_t evolved_digest,
                    int coarse_steps) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::perror("make_golden: fopen manifest");
    std::exit(1);
  }
  std::fprintf(out, "# Golden-state manifest; regenerate with make_golden.\n");
  std::fprintf(out, "format_version = %u\n",
               static_cast<unsigned>(apr::io::Checkpoint::kFormatVersion));
  std::fprintf(out, "digest = %016" PRIX64 "\n", digest);
  std::fprintf(out, "coarse_steps = %d\n", coarse_steps);
  std::fprintf(out, "evolve_steps = %d\n", apr::tools::kGoldenEvolveSteps);
  const auto dump = [out](const char* prefix,
                          const apr::tools::GoldenInvariants& inv) {
    std::fprintf(out, "%scoarse_mass = %.17g\n", prefix, inv.coarse_mass);
    std::fprintf(out, "%sfine_mass = %.17g\n", prefix, inv.fine_mass);
    std::fprintf(out, "%sfine_momentum_x = %.17g\n", prefix,
                 inv.fine_momentum.x);
    std::fprintf(out, "%sfine_momentum_y = %.17g\n", prefix,
                 inv.fine_momentum.y);
    std::fprintf(out, "%sfine_momentum_z = %.17g\n", prefix,
                 inv.fine_momentum.z);
    std::fprintf(out, "%srbc_volume = %.17g\n", prefix, inv.rbc_volume);
    std::fprintf(out, "%srbc_area = %.17g\n", prefix, inv.rbc_area);
    std::fprintf(out, "%sctc_volume = %.17g\n", prefix, inv.ctc_volume);
    std::fprintf(out, "%sctc_area = %.17g\n", prefix, inv.ctc_area);
    std::fprintf(out, "%srbc_count = %zu\n", prefix, inv.rbc_count);
  };
  dump("", at_save);
  std::fprintf(out, "evolved_digest = %016" PRIX64 "\n", evolved_digest);
  dump("evolved_", evolved);
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  apr::set_log_level(apr::LogLevel::Warn);
  // One worker: the golden bytes must not depend on the machine the
  // generator happened to run on (state is bit-exact only at fixed count).
  apr::exec::set_num_workers(1);

  const std::string dir = argc > 1 ? argv[1] : "tests/golden";
  const std::string chk = dir + "/" + apr::tools::golden_checkpoint_name();
  const std::string man = dir + "/" + apr::tools::golden_manifest_name();

  auto sim = apr::tools::golden_setup();
  sim->run(apr::tools::kGoldenSaveSteps);
  sim->save_checkpoint(chk);
  const std::uint64_t digest = sim->state_digest();
  const auto at_save = apr::tools::compute_invariants(*sim);
  const int steps_at_save = sim->coarse_steps();

  sim->run(apr::tools::kGoldenEvolveSteps);
  const auto evolved = apr::tools::compute_invariants(*sim);
  const std::uint64_t evolved_digest = sim->state_digest();

  write_manifest(man, at_save, evolved, digest, evolved_digest,
                 steps_at_save);
  std::printf("wrote %s (digest %016" PRIX64 ") and %s\n", chk.c_str(),
              digest, man.c_str());
  return 0;
}
