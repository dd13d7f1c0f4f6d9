/// \file deck_run.cpp
/// Config-deck-driven APR run, HARVEY-style: every physical and numerical
/// parameter comes from a text deck (see examples/decks/tube.cfg), with
/// key=value command-line overrides. Demonstrates the setup +
/// diagnostics layers of the public API.
///
/// Usage:
///   ./deck_run [deck-path] [key=value ...]
///   ./deck_run examples/decks/tube.cfg steps=120 target_hematocrit=0.2

#include <cstdio>
#include <exception>

#include "src/apr/diagnostics.hpp"
#include "src/apr/setup.hpp"
#include "src/common/log.hpp"

using namespace apr;

int main(int argc, char** argv) try {
  set_log_level(LogLevel::Warn);

  // Deck file (first non key=value argument) + command-line overrides.
  Config cfg;
  const char* deck_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.find('=') == std::string::npos) {
      deck_path = argv[i];
      break;
    }
  }
  if (deck_path) {
    std::printf("deck: %s\n", deck_path);
    cfg = Config::from_file(deck_path);
  } else {
    std::printf("no deck given: using built-in defaults "
                "(try examples/decks/tube.cfg)\n");
  }
  cfg.merge(Config::from_args(argc, argv));

  // Run-control keys first: make_simulation rejects any deck key nobody
  // has read.
  const double body_force = cfg.get_double("body_force", 6e6);
  const int warmup = cfg.get_int("warmup_steps", 300);
  const int steps = cfg.get_int("steps", 60);
  core::SimulationSetup setup = core::make_simulation(cfg);
  auto& sim = *setup.simulation;
  std::printf("coarse lattice %dx%dx%d at %.2f um; window outer %.1f um; "
              "lambda = %.3f\n",
              sim.coarse().nx(), sim.coarse().ny(), sim.coarse().nz(),
              setup.params.dx_coarse * 1e6,
              setup.params.window.outer_side() * 1e6, setup.params.lambda);

  sim.initialize_flow(Vec3{});
  sim.coarse().set_periodic(false, false, true);
  sim.set_body_force_density(Vec3{0, 0, body_force});
  for (int s = 0; s < warmup; ++s) sim.coarse().step();

  sim.place_window(Vec3{});
  sim.place_ctc(Vec3{});
  const auto fill = sim.fill_window();
  std::printf("window filled: %d RBCs at Ht %.3f\n", fill.added,
              sim.window_hematocrit());

  core::RunRecorder recorder(Vec3{}, Vec3{0, 0, 1});
  recorder.sample(sim);
  for (int s = 0; s < steps; ++s) {
    sim.step();
    recorder.sample(sim);
    if ((s + 1) % std::max(1, steps / 5) == 0) {
      const auto& last = recorder.samples().back();
      std::printf("step %4d: ctc_z %.3f um, Ht %.3f, %zu RBCs, %d moves\n",
                  last.step, last.ctc_position.z * 1e6, last.window_ht,
                  last.rbc_count, last.window_moves);
    }
  }

  recorder.write_csv("deck_run_samples.csv");
  std::printf("\nmean CTC speed %.3e m/s over %.2e s; samples written to "
              "deck_run_samples.csv\n",
              recorder.mean_ctc_speed(), sim.physical_time());
  return 0;
} catch (const std::exception& e) {
  // Bad decks (unparsable values, unknown keys) end here.
  std::fprintf(stderr, "deck_run: %s\n", e.what());
  return 1;
}
