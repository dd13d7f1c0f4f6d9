/// \file ablation_window_move.cpp
/// Ablation for the incremental window relocation (paper §2.4.1 moving
/// window): full rebuild -- fresh fine lattice, whole-window voxelization
/// and init-from-coarse, what place_window() does -- vs the shift-and-reuse
/// path of relocate_window(), which carries the surviving distributions
/// over and re-seeds only the exposed slab. Both paths attach the same
/// coupler. The window bounces between two snapped positions, so every
/// benchmark iteration is exactly one relocation; reported counters give
/// the per-move preserved / re-initialized node split.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "src/apr/simulation.hpp"
#include "src/common/log.hpp"
#include "src/geometry/domain.hpp"
#include "src/mesh/shapes.hpp"
#include "src/obs/trace.hpp"
#include "src/rheology/blood.hpp"

namespace {

using namespace apr;

constexpr double kDxCoarse = 2.0e-6;

std::shared_ptr<fem::MembraneModel> make_rbc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kRbcShearModulus;
  p.bending_modulus = rheology::kRbcBendingModulus;
  return std::make_shared<fem::MembraneModel>(mesh::rbc_biconcave(1, 1.0e-6),
                                              p);
}

std::shared_ptr<fem::MembraneModel> make_ctc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kCtcShearModulus;
  p.bending_modulus = 10.0 * rheology::kRbcBendingModulus;
  return std::make_shared<fem::MembraneModel>(mesh::ctc_sphere(1, 1.6e-6), p);
}

std::unique_ptr<core::AprSimulation> make_sim() {
  core::AprParams p;
  p.dx_coarse = kDxCoarse;
  p.n = 4;  // dx_fine = 0.5 um -> a 57^3 fine window
  p.tau_coarse = 1.0;
  p.nu_bulk = 4.0e-3 / 1060.0;
  p.lambda = 0.3;
  p.window.proper_side = 8e-6;
  p.window.onramp_width = 6e-6;
  p.window.insertion_width = 4e-6;  // outer = 28 um = 7 insertion tiles
  p.window.target_hematocrit = 0.02;  // tiny tile: relocation-only bench
  auto domain = std::make_shared<geometry::TubeDomain>(
      Vec3{0.0, 0.0, -60e-6}, Vec3{0.0, 0.0, 1.0}, 120e-6, 16e-6,
      /*capped=*/false);
  auto sim = std::make_unique<core::AprSimulation>(domain, make_rbc(),
                                                   make_ctc(), p);
  sim->initialize_flow(Vec3{});
  return sim;
}

/// One relocation per iteration: the window hops between two positions
/// `cells` coarse cells apart along the tube axis, shifted by
/// relocate_window() (incremental=1) or rebuilt by place_window()
/// (incremental=0).
void BM_WindowRelocation(benchmark::State& state) {
  set_log_level(LogLevel::Warn);
  const int cells = static_cast<int>(state.range(0));
  const bool incremental = state.range(1) != 0;
  auto sim = make_sim();
  const Vec3 c0{0.0, 0.0, -6e-6};
  const Vec3 c1 = c0 + Vec3{0.0, 0.0, cells * kDxCoarse};
  sim->place_window(c0);

  bool at_c0 = true;
  for (auto _ : state) {
    const Vec3& target = at_c0 ? c1 : c0;
    if (incremental) {
      sim->relocate_window(target);
    } else {
      sim->place_window(target);
    }
    at_c0 = !at_c0;
  }
  const core::WindowRelocationStats& st = sim->last_relocation();
  state.counters["preserved_nodes"] = static_cast<double>(st.preserved_nodes);
  state.counters["reinit_nodes"] = static_cast<double>(st.reinit_nodes);
  state.counters["incremental"] = st.incremental ? 1.0 : 0.0;
}

BENCHMARK(BM_WindowRelocation)
    ->ArgNames({"cells", "incremental"})
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of benchmark_main) so --trace FILE can be peeled
// off before benchmark::Initialize consumes argv, capturing relocation
// spans and per-move instant events alongside the timings.
int main(int argc, char** argv) try {
  std::string trace_file;
  std::vector<char*> bench_argv;
  bench_argv.reserve(static_cast<std::size_t>(argc));
  for (int a = 0; a < argc; ++a) {
    if (std::strcmp(argv[a], "--trace") == 0 && a + 1 < argc) {
      trace_file = argv[++a];
    } else {
      bench_argv.push_back(argv[a]);
    }
  }
  if (!trace_file.empty()) apr::obs::Tracer::instance().set_enabled(true);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!trace_file.empty()) {
    apr::obs::Tracer::instance().write_chrome_json(trace_file);
    std::printf("trace written to %s\n", trace_file.c_str());
  }
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "ablation_window_move: %s\n", ex.what());
  return 1;
}
