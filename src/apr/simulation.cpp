#include "src/apr/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "src/cells/cell.hpp"
#include "src/cells/overlap.hpp"
#include "src/common/log.hpp"
#include "src/exec/exec.hpp"
#include "src/geometry/voxelizer.hpp"
#include "src/ibm/coupling.hpp"
#include "src/obs/json.hpp"
#include "src/obs/proc_stats.hpp"
#include "src/obs/trace.hpp"

namespace apr::core {

namespace {

/// One live cell across the active pools; the FSI helpers parallelize
/// over this flattened list so RBCs and the CTC share one work queue.
struct CellRef {
  cells::CellPool* pool;
  std::size_t slot;
};

std::vector<CellRef> flatten_cells(
    const std::vector<cells::CellPool*>& pools) {
  std::vector<CellRef> refs;
  for (cells::CellPool* pool : pools) {
    for (std::size_t s = 0; s < pool->size(); ++s) refs.push_back({pool, s});
  }
  return refs;
}

/// The FSI stencil record of the calling thread: spread_cell_forces
/// builds it and the same sub-step's advect_cells reuses it. Workers
/// reach it through references taken on the calling thread.
ibm::StencilRecord& fsi_stencils() {
  static thread_local ibm::StencilRecord stencils;
  return stencils;
}

/// One span per pool, from `get`, in pool order: the vertex order of the
/// FSI record.
template <class T, class Get>
std::vector<std::span<T>> pool_blocks(
    const std::vector<cells::CellPool*>& pools, Get&& get) {
  std::vector<std::span<T>> blocks;
  blocks.reserve(pools.size());
  for (cells::CellPool* pool : pools) blocks.emplace_back(get(*pool));
  return blocks;
}

/// Cells per chunk of the force pass: small, so the dynamic schedule can
/// balance cells whose contact and wall work differ widely.
constexpr std::size_t kForceGrain = 8;

/// Relative slack on the wall-cull bound, as in the vessel BVH's bound:
/// rounding moves a computed signed distance by a few ulp of the
/// magnitudes involved, which 1e-10 of them covers many times over.
constexpr double kWallCullSlack = 1e-10;

/// Decides per cell whether the wall term can be skipped. With L the
/// domain's Lipschitz bound, every vertex v of a cell satisfies
/// sd(v) >= sd(c) - L |v - c| >= sd(c) - L R, where c is the centre of the
/// cell's box and R its largest vertex distance from c. When that bound
/// (less the slack) reaches the cutoff, no vertex gets a wall force, so
/// skipping its vertex loop changes no bit. A NaN anywhere, or L = +inf,
/// fails the comparison and keeps the loop.
class WallCull {
 public:
  WallCull(const geometry::Domain& domain, double cutoff)
      : domain_(domain),
        lipschitz_(domain.distance_lipschitz()),
        scale_(domain.bounds().magnitude()),
        cutoff_(cutoff) {}

  bool clear(std::span<const Vec3> x) const {
    if (!std::isfinite(lipschitz_)) return false;
    const Vec3 c = cells::bounds(x).center();
    double r2 = 0.0;
    for (const Vec3& v : x) {
      const double d2 = norm2(v - c);
      if (d2 > r2 || std::isnan(d2)) r2 = d2;  // a NaN sticks
    }
    const double reach = lipschitz_ * std::sqrt(r2);
    const double sd = domain_.signed_distance(c);
    const double slack = kWallCullSlack * (std::abs(sd) + reach + scale_ +
                                           Aabb{c, c}.magnitude());
    return sd - reach - slack >= cutoff_;
  }

 private:
  const geometry::Domain& domain_;
  double lipschitz_;
  double scale_;
  double cutoff_;
};

}  // namespace

std::size_t compute_cell_forces(const std::vector<cells::CellPool*>& pools,
                                const geometry::Domain* domain,
                                const FsiParams& params) {
  for (cells::CellPool* pool : pools) pool->clear_forces();
  const std::vector<CellRef> refs = flatten_cells(pools);

  // Cell-level preparation: per-cell boxes, the contact frame and the
  // broad phase over box centres. Cells with a non-finite vertex stay out
  // of the contact search, so the step completes and the health watchdog
  // can localize the fault.
  std::optional<cells::ContactSearch> contact;
  std::optional<WallCull> wall;
  {
    OBS_SPAN("forces", "prepare");
    if (params.contact_cutoff > 0.0 && params.contact_strength > 0.0 &&
        !refs.empty()) {
      contact.emplace(pools, params.contact_cutoff);
    }
    if (domain && params.wall_cutoff > 0.0 && params.wall_strength > 0.0) {
      wall.emplace(*domain, params.wall_cutoff);
    }
  }

  // One pass over cells: membrane, then contact, then wall repulsion, the
  // order each vertex's force has always been summed in. A cell writes
  // only its own force block (clear_forces just zeroed it, so membrane
  // assembly runs in place) and reads other cells' positions, so cells
  // run in any order; the dynamic schedule evens out their uneven costs.
  OBS_SPAN("forces", "cells");
  const double eps = params.wall_cutoff / 4.0;
  return exec::parallel_reduce<std::size_t>(
      refs.size(), 0,
      [&](std::size_t b, std::size_t e) {
        std::size_t pairs = 0;
        for (std::size_t k = b; k < e; ++k) {
          const auto x = refs[k].pool->positions(refs[k].slot);
          const auto f = refs[k].pool->forces(refs[k].slot);
          refs[k].pool->model().add_forces(x, f);
          if (contact) pairs += contact->add_forces(k, params.contact_strength);
          if (!wall || wall->clear(x)) continue;
          for (std::size_t v = 0; v < x.size(); ++v) {
            const double d = domain->signed_distance(x[v]);
            if (d >= params.wall_cutoff) continue;
            const double pen = 1.0 - std::max(d, 0.0) / params.wall_cutoff;
            f[v] += domain->inward_normal(x[v], eps) *
                    (params.wall_strength * pen * pen);
          }
        }
        return pairs;
      },
      [](std::size_t a, std::size_t b) { return a + b; }, kForceGrain);
}

void spread_cell_forces(lbm::Lattice& lat, const UnitConverter& conv,
                        const std::vector<cells::CellPool*>& pools,
                        ibm::DeltaKernel kernel) {
  // Every vertex of every pool goes into one record and one scatter, so
  // the parallel spreading kernel sees the whole workload at once.
  ibm::StencilRecord& stencils = fsi_stencils();
  const auto xs = pool_blocks<const Vec3>(
      pools, [](cells::CellPool& p) { return p.live_positions(); });
  const auto fs = pool_blocks<const Vec3>(
      pools, [](cells::CellPool& p) { return p.live_forces(); });
  stencils.build(lat, xs, kernel);
  ibm::spread_forces(lat, stencils, fs, conv.force_to_lattice(1.0));
}

void advect_cells(const lbm::Lattice& lat,
                  const std::vector<cells::CellPool*>& pools,
                  ibm::DeltaKernel kernel) {
  // Positions have not moved since this sub-step's spread, so its
  // stencils serve the interpolation too; any other caller (a different
  // lattice, kernel or vertex set) gets a fresh record.
  ibm::StencilRecord& stencils = fsi_stencils();
  const auto xs = pool_blocks<const Vec3>(
      pools, [](cells::CellPool& p) { return p.live_positions(); });
  if (!stencils.matches(lat, xs, kernel)) stencils.build(lat, xs, kernel);
  ibm::interpolate_velocities(
      lat, stencils,
      pool_blocks<Vec3>(
          pools, [](cells::CellPool& p) { return p.live_velocities(); }));
  const std::vector<CellRef> refs = flatten_cells(pools);
  const double dx = lat.dx();
  exec::parallel_for(refs.size(), [&](std::size_t k) {
    const auto x = refs[k].pool->positions(refs[k].slot);
    const auto u = refs[k].pool->velocities(refs[k].slot);
    for (std::size_t v = 0; v < x.size(); ++v) x[v] += u[v] * dx;
  });
}

AprSimulation::AprSimulation(
    std::shared_ptr<const geometry::Domain> domain,
    std::shared_ptr<const fem::MembraneModel> rbc_model,
    std::shared_ptr<const fem::MembraneModel> ctc_model,
    const AprParams& params)
    : domain_(std::move(domain)),
      rbc_model_(std::move(rbc_model)),
      ctc_model_(std::move(ctc_model)),
      params_(params),
      coarse_units_(UnitConverter::from_viscosity(
          params.dx_coarse, params.nu_bulk, params.tau_coarse)),
      fine_units_(params.dx_coarse / params.n, coarse_units_.dt() / params.n,
                  coarse_units_.rho()),
      rng_(params.seed) {
  if (!domain_ || !rbc_model_ || !ctc_model_) {
    throw std::invalid_argument("AprSimulation: null domain or model");
  }
  coarse_ = std::make_unique<lbm::Lattice>(geometry::make_lattice_for(
      *domain_, params_.dx_coarse, params_.tau_coarse));
  coarse_->set_collision_model(params_.collision, params_.trt_magic);
  geometry::voxelize(*coarse_, *domain_);

  rbcs_ = std::make_unique<cells::CellPool>(rbc_model_.get(),
                                            cells::CellKind::Rbc,
                                            params_.rbc_capacity);
  ctcs_ = std::make_unique<cells::CellPool>(ctc_model_.get(),
                                            cells::CellKind::Ctc, 1);

  // Pre-build the RBC tile at the target hematocrit (capped below dense
  // packing); every fill and refill stamps copies of it.
  Rng tile_rng = rng_.fork(0x711Eull);
  const double tile_side =
      std::max(params_.window.insertion_width,
               4.2 * rbc_model_->max_radius());
  tile_ = std::make_unique<cells::RbcTile>(cells::RbcTile::generate(
      *rbc_model_, tile_side,
      std::min(0.98, params_.window.target_hematocrit), tile_rng));
  log_info("AprSimulation: tile side ", tile_side * 1e6, " um, ",
           tile_->cell_count(), " RBCs, achieved Ht ",
           tile_->achieved_hematocrit());

  mover_ = std::make_unique<WindowMover>(params_.move, coarse_->origin(),
                                         coarse_->dx());
}

void AprSimulation::initialize_flow(const Vec3& u_lattice, int warmup_steps) {
  coarse_->init_equilibrium(1.0, u_lattice);
  for (int s = 0; s < warmup_steps; ++s) coarse_->step();
  coarse_->update_macroscopic();
}

void AprSimulation::set_body_force_density(const Vec3& f_phys) {
  body_force_phys_ = f_phys;
  // Force density [N/m^3] -> lattice: f * dt^2 / (rho * dx).
  auto to_lattice = [](const UnitConverter& c, const Vec3& f) {
    const double s = c.dt() * c.dt() / (c.rho() * c.dx());
    return f * s;
  };
  coarse_->set_body_force(to_lattice(coarse_units_, f_phys));
  if (fine_) fine_->set_body_force(to_lattice(fine_units_, f_phys));
}

WindowRelocationStats AprSimulation::relocate_fine_lattice(
    const Vec3& window_center, bool allow_shift) {
  OBS_SPAN("window", "relocate_fine_lattice");
  // The old coupler's footprint tau and Coupling nodes must be undone
  // before the fine lattice is shifted or replaced.
  if (coupler_) coupler_->release();
  const Aabb box = Aabb::cube(window_center, params_.window.outer_side());
  const double dxf = fine_units_.dx();
  // Node counts chosen so the fine boundary nodes lie exactly on the box
  // faces (outer_side is a multiple of dx_coarse after snapping).
  const int nn =
      static_cast<int>(std::round(params_.window.outer_side() / dxf)) + 1;
  WindowRelocationStats st;
  const bool shifted = allow_shift && try_shift_fine_lattice(box, nn, st);
  if (!shifted) build_fine_lattice(box, nn, st);
  attach_coupler();
  // Re-apply the body force and reset the per-node force field: the shift
  // does not move forces (they are re-spread every sub-step), and a fresh
  // lattice needs the body force imposed.
  set_body_force_density(body_force_phys_);
  last_relocation_ = st;
  return st;
}

void AprSimulation::build_fine_lattice(const Aabb& box, int nn,
                                       WindowRelocationStats& st) {
  const double dxf = fine_units_.dx();
  if (fine_) {
    fine_updates_retired_ += fine_->site_updates();
    fine_.reset();
  }
  fine_ = std::make_unique<lbm::Lattice>(nn, nn, nn, box.lo, dxf, 1.0);
  fine_->set_collision_model(params_.collision, params_.trt_magic);
  geometry::voxelize(*fine_, *domain_);

  // Initialize from the coarse solution.
  refresh_coarse_macro_for(box);
  st.incremental = false;
  st.preserved_nodes = 0;
  st.reinit_nodes = init_fine_from_coarse(0, nn, 0, nn, 0, nn, false);
}

bool AprSimulation::try_shift_fine_lattice(const Aabb& box, int nn,
                                           WindowRelocationStats& st) {
  if (!fine_ || fine_->nx() != nn || fine_->ny() != nn ||
      fine_->nz() != nn) {
    return false;
  }
  const double dxf = fine_->dx();
  // Displacement of the new window in fine-node units. snap_center keeps
  // moves whole-coarse-cell, so this is integral up to roundoff; fall
  // back to the full rebuild if it is not.
  const Vec3 d = (box.lo - fine_->origin()) / dxf;
  const int s[3] = {static_cast<int>(std::round(d.x)),
                    static_cast<int>(std::round(d.y)),
                    static_cast<int>(std::round(d.z))};
  if (std::abs(d.x - s[0]) > 1e-6 || std::abs(d.y - s[1]) > 1e-6 ||
      std::abs(d.z - s[2]) > 1e-6) {
    return false;
  }
  if (std::abs(s[0]) >= nn || std::abs(s[1]) >= nn || std::abs(s[2]) >= nn) {
    return false;  // windows do not overlap: nothing worth carrying over
  }

  // Shift the surviving state within the existing allocation and rebase
  // the lattice at the new window position -- no allocation churn, no
  // whole-lattice copy.
  const std::size_t tiles_before = fine_->num_tiles();
  st.preserved_nodes = fine_->shift(s[0], s[1], s[2]);
  const std::size_t tiles_after_shift = fine_->num_tiles();
  fine_->set_origin(box.lo);

  // The exposed region (complement of the shifted overlap) decomposes into
  // at most one slab per axis, mutually disjoint:
  //   x-slab over the full cross-section, y-slab over the x-overlap,
  //   z-slab over the x- and y-overlaps.
  const int ox0 = std::max(0, -s[0]);
  const int ox1 = std::min(nn, nn - s[0]);
  const int oy0 = std::max(0, -s[1]);
  const int oy1 = std::min(nn, nn - s[1]);
  const int oz0 = std::max(0, -s[2]);
  const int oz1 = std::min(nn, nn - s[2]);
  struct Slab {
    int x0, x1, y0, y1, z0, z1;
  };
  Slab slabs[3];
  int nslabs = 0;
  if (s[0] > 0) {
    slabs[nslabs++] = {ox1, nn, 0, nn, 0, nn};
  } else if (s[0] < 0) {
    slabs[nslabs++] = {0, ox0, 0, nn, 0, nn};
  }
  if (s[1] > 0) {
    slabs[nslabs++] = {ox0, ox1, oy1, nn, 0, nn};
  } else if (s[1] < 0) {
    slabs[nslabs++] = {ox0, ox1, 0, oy0, 0, nn};
  }
  if (s[2] > 0) {
    slabs[nslabs++] = {ox0, ox1, oy0, oy1, oz1, nn};
  } else if (s[2] < 0) {
    slabs[nslabs++] = {ox0, ox1, oy0, oy1, 0, oz0};
  }

  refresh_coarse_macro_for(box);
  st.incremental = true;
  st.reinit_nodes = 0;
  for (int k = 0; k < nslabs; ++k) {
    const Slab& sl = slabs[k];
    // Classify and seed exactly the exposed nodes -- the preserved fluid
    // keeps its developed state (that is the point of the shift). The
    // geometry predicate is never re-run on preserved nodes: for a node
    // lying exactly on the domain surface, inside() is decided by the
    // last ulp of origin + index*dx, which can flip across the origin
    // rebase and would turn a preserved Wall into a Fluid node with no
    // distributions behind it (rho = 0 -> NaN on the next collision).
    geometry::voxelize(*fine_, *domain_, sl.x0, sl.x1, sl.y0, sl.y1, sl.z0,
                       sl.z1);
    st.reinit_nodes += init_fine_from_coarse(sl.x0, sl.x1, sl.y0, sl.y1,
                                             sl.z0, sl.z1, /*reset=*/true);
  }
  for (int k = 0; k < nslabs; ++k) {
    const Slab& sl = slabs[k];
    // The preserved layer next to each slab came from the old lattice's
    // faces, where Wall-vs-Exterior was decided with neighbour visibility
    // clipped at the old boundary; now that it is interior, re-derive that
    // choice from the stored types (after every slab has its final types).
    // This pass never creates or destroys fluid.
    geometry::reclassify_solid(*fine_, sl.x0 - 1, sl.x1 + 1, sl.y0 - 1,
                               sl.y1 + 1, sl.z0 - 1, sl.z1 + 1);
  }
  if (obs::Tracer::instance().enabled()) {
    // Tile churn of this relocation: the shift itself drops tiles whose
    // surviving content is all-default and allocates tiles for carried
    // state landing in previously absent blocks; re-seeding the exposed
    // slabs then materializes the rest of the new window footprint.
    obs::Tracer::instance().record_instant(
        "window", "tile_remap",
        "\"tiles_before\":" + std::to_string(tiles_before) +
            ",\"tiles_after_shift\":" + std::to_string(tiles_after_shift) +
            ",\"tiles_after_seed\":" + std::to_string(fine_->num_tiles()) +
            ",\"step\":" + std::to_string(coarse_steps_));
  }
  return true;
}

std::size_t AprSimulation::init_fine_from_coarse(int x0, int x1, int y0,
                                                 int y1, int z0, int z1,
                                                 bool reset) {
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  z0 = std::max(z0, 0);
  x1 = std::min(x1, fine_->nx());
  y1 = std::min(y1, fine_->ny());
  z1 = std::min(z1, fine_->nz());
  if (x0 >= x1 || y0 >= y1 || z0 >= z1) return 0;
  const std::size_t ny_rows = static_cast<std::size_t>(y1 - y0);
  const std::size_t rows = static_cast<std::size_t>(z1 - z0) * ny_rows;
  std::vector<std::size_t> seeded(
      static_cast<std::size_t>(exec::num_workers()), 0);
  exec::parallel_for_chunks(rows, [&](std::size_t b, std::size_t e, int w) {
    std::size_t local = 0;
    for (std::size_t r = b; r < e; ++r) {
      const int z = z0 + static_cast<int>(r / ny_rows);
      const int y = y0 + static_cast<int>(r % ny_rows);
      for (int x = x0; x < x1; ++x) {
        const std::size_t i = fine_->idx(x, y, z);
        if (reset) fine_->reset_node(i);
        if (fine_->type(i) != lbm::NodeType::Fluid) continue;
        const Vec3 p = fine_->position(x, y, z);
        const Vec3 u = coarse_->interpolate_velocity(p);
        // Seed with the local coarse density, not a flat rho = 1: when the
        // window moves along a pressure gradient the exposed slab must
        // carry the gradient, or every move injects a density step (and a
        // spurious mass kick) at the seam.
        fine_->init_node_equilibrium(i, coarse_->interpolate_rho(p), u);
        ++local;
      }
    }
    seeded[static_cast<std::size_t>(w)] += local;
  });
  std::size_t total = 0;
  for (const std::size_t c : seeded) total += c;
  return total;
}

void AprSimulation::refresh_coarse_macro_for(const Aabb& box) {
  // The init interpolation only reads the coarse velocity cache inside the
  // window box; refresh just the covering coarse sub-range (one node of
  // padding for the trilinear supports) instead of the whole bulk grid.
  const Vec3 lo = coarse_->to_lattice(box.lo);
  const Vec3 hi = coarse_->to_lattice(box.hi);
  coarse_->update_macroscopic_region(static_cast<int>(std::floor(lo.x)) - 1,
                                     static_cast<int>(std::ceil(hi.x)) + 2,
                                     static_cast<int>(std::floor(lo.y)) - 1,
                                     static_cast<int>(std::ceil(hi.y)) + 2,
                                     static_cast<int>(std::floor(lo.z)) - 1,
                                     static_cast<int>(std::ceil(hi.z)) + 2);
}

void AprSimulation::attach_coupler() {
  CouplerConfig cc;
  cc.n = params_.n;
  cc.lambda = params_.lambda;
  cc.tau_coarse = params_.tau_coarse;
  coupler_.reset();  // never hold two couplers' buffers at once
  coupler_ = std::make_unique<CoarseFineCoupler>(*coarse_, *fine_, cc);
}

void AprSimulation::place_window(const Vec3& center) {
  const Vec3 snapped = Window::snap_center(center, params_.window,
                                           coarse_->origin(), coarse_->dx());
  window_.emplace(snapped, params_.window, domain_.get());
  relocate_fine_lattice(snapped, /*allow_shift=*/false);
}

WindowRelocationStats AprSimulation::relocate_window(const Vec3& center) {
  if (!window_) throw std::logic_error("relocate_window: no window yet");
  const Vec3 snapped = Window::snap_center(center, params_.window,
                                           coarse_->origin(), coarse_->dx());
  window_.emplace(snapped, params_.window, domain_.get());
  return relocate_fine_lattice(snapped, /*allow_shift=*/true);
}

void AprSimulation::place_ctc(const Vec3& position) {
  if (!window_) throw std::logic_error("place_ctc: no window yet");
  if (ctcs_->size() > 0) ctcs_->remove_slot(0);
  const auto verts = cells::instantiate(*ctc_model_, position);
  ctcs_->add(0, verts);
  trajectory_.clear();
  trajectory_.push_back(position);
}

PopulationReport AprSimulation::fill_window() {
  if (!window_) throw std::logic_error("fill_window: no window yet");
  std::span<const Vec3> avoid;
  if (ctcs_->size() > 0) avoid = ctcs_->positions(0);
  Rng fill_rng = rng_.fork(0xF111ull + move_count_);
  return window_->populate(*rbcs_, *tile_, fill_rng, next_cell_id_, avoid);
}

std::vector<cells::CellPool*> AprSimulation::active_pools() {
  std::vector<cells::CellPool*> pools;
  if (rbcs_->size() > 0) pools.push_back(rbcs_.get());
  if (ctcs_->size() > 0) pools.push_back(ctcs_.get());
  return pools;
}

Vec3 AprSimulation::ctc_position() const {
  if (ctcs_->size() == 0) return {};
  return ctcs_->cell_centroid(0);
}

namespace {

/// Fixed reduction grain of one tile: the index space is
/// resident-tile-major (tile t covers [t * kTileNodes, (t+1) * kTileNodes)),
/// so chunk boundaries land on tile seams and both chunking and combine
/// order depend only on the resident-tile list (ascending block id, i.e.
/// directory order), never the worker count -- the reductions below are
/// bit-identical across worker counts (see exec::parallel_reduce). They
/// are also identical between a tiled lattice and its dense reference
/// twin: the extra all-Exterior tiles of the dense layout contribute the
/// reduction identity, which folds in exactly.
constexpr std::size_t kMetricGrain = lbm::Lattice::kTileNodes;

bool metric_type(lbm::NodeType t) {
  return t == lbm::NodeType::Fluid || t == lbm::NodeType::Coupling;
}

std::array<double, lbm::kQ> tile_f_node(const double* tf, std::size_t c) {
  std::array<double, lbm::kQ> f;
  for (int q = 0; q < lbm::kQ; ++q) {
    f[q] = tf[static_cast<std::size_t>(q) * lbm::Lattice::kTileNodes + c];
  }
  return f;
}

}  // namespace

double lattice_total_mass(const lbm::Lattice& lat) {
  return exec::parallel_reduce(
      lat.num_tiles() * lbm::Lattice::kTileNodes, 0.0,
      [&](std::size_t b, std::size_t e) {
        double m = 0.0;
        for (std::size_t t = b / lbm::Lattice::kTileNodes;
             t < e / lbm::Lattice::kTileNodes; ++t) {
          const lbm::NodeType* types = lat.tile_types(t);
          const double* tf = lat.tile_f(t);
          for (std::size_t c = 0; c < lbm::Lattice::kTileNodes; ++c) {
            if (metric_type(types[c])) {
              m += lbm::density(tile_f_node(tf, c));
            }
          }
        }
        return m;
      },
      [](double a, double b) { return a + b; }, kMetricGrain);
}

double lattice_max_mach(const lbm::Lattice& lat) {
  // Mach = |u| / c_s with c_s = 1/sqrt(3) in lattice units, velocity from
  // the distributions like the health scans (the rho/u caches can be
  // stale mid-step).
  const double inv_cs = std::sqrt(3.0);
  return exec::parallel_reduce(
      lat.num_tiles() * lbm::Lattice::kTileNodes, 0.0,
      [&](std::size_t b, std::size_t e) {
        double mx = 0.0;
        for (std::size_t t = b / lbm::Lattice::kTileNodes;
             t < e / lbm::Lattice::kTileNodes; ++t) {
          const lbm::NodeType* types = lat.tile_types(t);
          const double* tf = lat.tile_f(t);
          for (std::size_t c = 0; c < lbm::Lattice::kTileNodes; ++c) {
            if (!metric_type(types[c])) continue;
            const auto f = tile_f_node(tf, c);
            const double rho = lbm::density(f);
            if (rho > 0.0) {
              mx = std::max(mx, norm(lbm::momentum(f)) / rho * inv_cs);
            }
          }
        }
        return mx;
      },
      [](double a, double b) { return std::max(a, b); }, kMetricGrain);
}

std::uint64_t AprSimulation::total_site_updates() const {
  std::uint64_t n = coarse_->site_updates() + fine_updates_retired_;
  if (fine_) n += fine_->site_updates();
  return n;
}

void AprSimulation::step() {
  if (!window_ || !coupler_) {
    throw std::logic_error("AprSimulation::step: window not placed");
  }
  auto pools = active_pools();
  using perf::StepPhase;
  const bool sampling = metrics_sink_ != nullptr;
  const std::int64_t step_t0 = sampling ? obs::trace_now_ns() : 0;

  {
    auto scope = profiler_.scope(StepPhase::Coupling);
    coupler_->take_pre_snapshot();
  }
  {
    auto scope = profiler_.scope(StepPhase::CoarseCollideStream);
    const std::uint64_t before = coarse_->site_updates();
    coarse_->step_no_macro();
    profiler_.add_site_updates(StepPhase::CoarseCollideStream,
                               coarse_->site_updates() - before);
  }
  {
    auto scope = profiler_.scope(StepPhase::Coupling);
    coupler_->take_post_snapshot();
  }
  for (int s = 0; s < params_.n; ++s) {
    if (!pools.empty()) {
      {
        auto scope = profiler_.scope(StepPhase::Forces);
        compute_cell_forces(pools, domain_.get(), params_.fsi);
      }
      auto scope = profiler_.scope(StepPhase::Spread);
      fine_->clear_forces();
      spread_cell_forces(*fine_, fine_units_, pools, params_.fsi.kernel);
    }
    {
      auto scope = profiler_.scope(StepPhase::Coupling);
      coupler_->set_fine_boundary(s);
    }
    {
      auto scope = profiler_.scope(StepPhase::FineCollideStream);
      const std::uint64_t before = fine_->site_updates();
      fine_->step();
      profiler_.add_site_updates(StepPhase::FineCollideStream,
                                 fine_->site_updates() - before);
    }
    if (!pools.empty()) {
      auto scope = profiler_.scope(StepPhase::Advect);
      advect_cells(*fine_, pools, params_.fsi.kernel);
    }
  }
  {
    auto scope = profiler_.scope(StepPhase::Coupling);
    coupler_->restrict_to_coarse();
  }
  ++coarse_steps_;

  if (ctcs_->size() > 0) trajectory_.push_back(ctc_position());

  // Density maintenance.
  if (params_.maintain_interval > 0 &&
      coarse_steps_ % params_.maintain_interval == 0) {
    auto scope = profiler_.scope(StepPhase::Maintenance);
    Rng maintain_rng = rng_.fork(0xAA00ull + coarse_steps_);
    window_->maintain(*rbcs_, *tile_, maintain_rng, next_cell_id_);
  }

  // Window-move check.
  if (ctcs_->size() > 0 && mover_->should_move(*window_, ctc_position())) {
    auto scope = profiler_.scope(StepPhase::WindowMove);
    rebuild_window_at_ctc();
  }

  // Numerical-health watchdog (sampled; see src/apr/health.hpp).
  if (params_.health.enabled && params_.health.interval > 0 &&
      coarse_steps_ % params_.health.interval == 0) {
    run_health_check();
  }

  // Metric sampling (see src/obs/metrics.hpp); zero work with no sink.
  if (sampling) {
    last_step_seconds_ = (obs::trace_now_ns() - step_t0) * 1e-9;
    sample_metrics();
  }
}

void AprSimulation::sample_metrics() {
  metrics_.set_gauge("step", coarse_steps_);
  metrics_.set_gauge("time", physical_time());
  metrics_.set_gauge("step.ms", last_step_seconds_ * 1e3);
  metrics_.set_gauge("coarse.mass", lattice_total_mass(*coarse_));
  metrics_.set_gauge("fine.mass", fine_ ? lattice_total_mass(*fine_) : 0.0);
  metrics_.set_gauge("fine.max_mach",
                     fine_ ? lattice_max_mach(*fine_) : 0.0);
  metrics_.set_gauge("window.hematocrit",
                     window_ ? window_->hematocrit(*rbcs_) : 0.0);

  // Tiled-storage residency (§3.5 memory budget): how much of the
  // bounding box is actually allocated.
  metrics_.set_gauge("coarse.resident_tiles",
                     static_cast<double>(coarse_->num_tiles()));
  metrics_.set_gauge("coarse.tile_bytes",
                     static_cast<double>(coarse_->tiled_bytes()));
  metrics_.set_gauge("fine.resident_tiles",
                     fine_ ? static_cast<double>(fine_->num_tiles()) : 0.0);

  // Kernel throughput (MLUPS) and sweep-plan churn: a plan rebuild per
  // step on the fine lattice would mean the shift/voxelize path is
  // dirtying residency more than it should.
  metrics_.set_gauge(
      "coarse.mlups",
      perf::phase_mlups(
          profiler_.stats(perf::StepPhase::CoarseCollideStream)));
  metrics_.set_gauge("coarse.plan_rebuilds",
                     static_cast<double>(coarse_->plan_rebuilds()));
  metrics_.set_gauge(
      "fine.plan_rebuilds",
      fine_ ? static_cast<double>(fine_->plan_rebuilds()) : 0.0);
  // Which collision operator is stepping both lattices (0 = BGK, 1 = TRT,
  // 2 = MRT) -- constant per run, but recorded so a metrics stream is
  // self-describing when operator studies are compared side by side.
  metrics_.set_gauge(
      "lbm.collision_model",
      static_cast<double>(static_cast<int>(coarse_->collision_model())));

  metrics_.set_gauge("rbc.count", static_cast<double>(rbcs_->size()));
  // Mean relative volume drift of the live RBCs: how far the constrained
  // membranes have strayed from the reference volume.
  double drift = 0.0;
  if (rbcs_->size() > 0) {
    const double ref_vol = rbcs_->model().ref_volume();
    for (std::size_t s = 0; s < rbcs_->size(); ++s) {
      drift += cells::cell_volume(rbcs_->model(), rbcs_->positions(s)) /
                   ref_vol -
               1.0;
    }
    drift /= static_cast<double>(rbcs_->size());
  }
  metrics_.set_gauge("rbc.mean_volume_drift", drift);

  const Vec3 ctc = ctc_position();
  metrics_.set_gauge("ctc.x", ctc.x);
  metrics_.set_gauge("ctc.y", ctc.y);
  metrics_.set_gauge("ctc.z", ctc.z);

  // Live resident-memory footprint next to the simulation's own byte
  // accounting: the Table-3 408 B/fluid-point budget, checked against the
  // OS instead of trusted arithmetic. Zeros on platforms with no source.
  const obs::ProcessMemory mem = obs::sample_process_memory();
  metrics_.set_gauge("proc.rss_bytes", static_cast<double>(mem.rss_bytes));
  metrics_.set_gauge("proc.peak_rss_bytes",
                     static_cast<double>(mem.peak_rss_bytes));

  metrics_.set_gauge("checkpoint.bytes",
                     static_cast<double>(last_checkpoint_bytes_));
  metrics_.set_counter("checkpoint.saves", checkpoint_saves_);
  metrics_.set_counter("window.moves", static_cast<std::uint64_t>(move_count_));
  metrics_.set_counter("health.scans", health_scans_);
  metrics_.set_counter("health.violations", health_violations_);

  // Per-phase time since the previous sample, so a plotted series shows
  // where each sampling window's time went (not a lifetime average).
  for (int i = 0; i < perf::kNumStepPhases; ++i) {
    const auto phase = static_cast<perf::StepPhase>(i);
    const double now_s = profiler_.stats(phase).seconds;
    metrics_.set_gauge(std::string("phase.") + perf::to_string(phase) + ".ms",
                       (now_s - phase_seconds_prev_[i]) * 1e3);
    phase_seconds_prev_[i] = now_s;
  }

  if (metrics_sink_) metrics_sink_->write_line(metrics_.to_json());
}

void AprSimulation::rebuild_window_at_ctc() {
  Rng move_rng = rng_.fork(0x30BEull + move_count_);
  const MoveReport rep = mover_->move(*window_, *rbcs_, ctc_position(), *tile_,
                                      move_rng, next_cell_id_);
  if (!rep.moved) return;
  ++move_count_;
  log_info("window move #", move_count_, ": captured ", rep.captured,
           ", filled ", rep.filled, ", discarded ", rep.discarded,
           ", inserted ", rep.repopulation.added);
  const WindowRelocationStats st =
      relocate_fine_lattice(window_->center(), /*allow_shift=*/true);
  log_info("  relocation: ", st.incremental ? "incremental" : "full rebuild",
           ", preserved ", st.preserved_nodes, ", re-seeded ",
           st.reinit_nodes);
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer::instance().record_instant(
        "window", "relocation",
        std::string("\"incremental\":") + (st.incremental ? "true" : "false") +
            ",\"preserved_nodes\":" + std::to_string(st.preserved_nodes) +
            ",\"reinit_nodes\":" + std::to_string(st.reinit_nodes) +
            ",\"move\":" + std::to_string(move_count_) +
            ",\"step\":" + std::to_string(coarse_steps_));
  }
}

void AprSimulation::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

HealthReport AprSimulation::check_health() const {
  const HealthParams& hp = params_.health;
  const HealthMonitor monitor(hp);
  HealthReport rep = monitor.scan_lattice(*coarse_, "coarse", coarse_steps_);
  if (!rep.ok()) return rep;
  if (fine_) {
    rep = monitor.scan_lattice(*fine_, "fine", coarse_steps_);
    if (!rep.ok()) return rep;
  }
  if (hp.check_cells) {
    rep = monitor.scan_cells(*rbcs_, "rbc", coarse_steps_);
    if (!rep.ok()) return rep;
    rep = monitor.scan_cells(*ctcs_, "ctc", coarse_steps_);
    if (!rep.ok()) return rep;
  }
  if (window_ && fine_) {
    rep = monitor.scan_coupling(
        *window_, *fine_, *coarse_, params_.n, coupler_ != nullptr,
        coupler_ ? coupler_->num_coupling_nodes() : 0, coarse_steps_);
  }
  return rep;
}

void AprSimulation::assert_healthy() const {
  HealthReport rep = check_health();
  if (!rep.ok()) throw HealthError(std::move(rep));
}

void AprSimulation::run_health_check() {
  HealthReport rep;
  {
    auto scope = profiler_.scope(perf::StepPhase::Health);
    rep = check_health();
    ++health_scans_;
    if (rep.ok() && params_.health.policy == HealthPolicy::Recover &&
        !recovering_) {
      // Clean scan: advance the rollback point. Refreshing only on clean
      // scans guarantees a later rollback lands on a state the watchdog
      // itself vouched for.
      rolling_checkpoint_ = make_checkpoint();
      rolling_checkpoint_step_ = coarse_steps_;
    }
  }
  last_health_report_ = rep;
  if (rep.ok()) return;
  ++health_violations_;
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer::instance().record_instant(
        "health", "violation",
        std::string("\"check\":\"") + to_string(rep.check) +
            "\",\"subject\":\"" + obs::json_escape(rep.subject) +
            "\",\"value\":" + obs::json_number(rep.value) +
            ",\"limit\":" + obs::json_number(rep.limit) +
            ",\"step\":" + std::to_string(rep.step));
  }
  switch (params_.health.policy) {
    case HealthPolicy::Log:
      log_warn(rep.message);
      return;
    case HealthPolicy::Throw:
      throw HealthError(std::move(rep));
    case HealthPolicy::Recover:
      if (recovering_ || !rolling_checkpoint_) {
        // Inside a replay, or no clean rollback point yet: nothing left
        // to roll back to -- escalate.
        throw HealthError(std::move(rep));
      }
      recover_from(rep);
      return;
  }
}

void AprSimulation::recover_from(const HealthReport& violation) {
  RecoveryReport rec;
  rec.violation_step = coarse_steps_;
  rec.rollback_step = rolling_checkpoint_step_;
  rec.replayed_steps = rec.violation_step - rec.rollback_step;
  log_warn(violation.message);
  log_warn("health: rolling back from step ", rec.violation_step,
           " to step ", rec.rollback_step, " and replaying");
  if (obs::Tracer::instance().enabled()) {
    obs::Tracer::instance().record_instant(
        "health", "rollback",
        "\"violation_step\":" + std::to_string(rec.violation_step) +
            ",\"rollback_step\":" + std::to_string(rec.rollback_step) +
            ",\"replayed_steps\":" + std::to_string(rec.replayed_steps));
  }

  // Move the container out first: load_checkpoint drops the (now
  // cross-timeline) rolling state as part of its commit.
  const io::Checkpoint ckpt = std::move(*rolling_checkpoint_);
  rolling_checkpoint_.reset();
  load_checkpoint(ckpt);  // strong guarantee; throws on a corrupt container
  last_recovery_ = rec;

  // Replay on the production path, window moves included: the restored
  // state and Rng stream make the span bit-exact with the original.
  recovering_ = true;
  try {
    run(rec.violation_step - coarse_steps_);
  } catch (...) {
    recovering_ = false;
    throw;
  }
  recovering_ = false;

  HealthReport after = check_health();
  last_health_report_ = after;
  if (!after.ok()) {
    // The violation reproduced from a vouched-for state: deterministic
    // fault, not transient corruption. Escalate instead of looping.
    throw HealthError(std::move(after));
  }
  rolling_checkpoint_ = make_checkpoint();
  rolling_checkpoint_step_ = coarse_steps_;
  log_info("health: recovered; replayed ", rec.replayed_steps,
           " steps from step ", rec.rollback_step);
}

}  // namespace apr::core
