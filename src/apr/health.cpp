#include "src/apr/health.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "src/apr/window.hpp"
#include "src/cells/cell.hpp"
#include "src/exec/exec.hpp"
#include "src/obs/trace.hpp"
#include "src/fem/constraints.hpp"

namespace apr::core {

namespace {

constexpr std::size_t kNoHit = std::numeric_limits<std::size_t>::max();

/// D3Q19 speed of sound, cs = 1/sqrt(3).
const double kInvCs = std::sqrt(3.0);

/// First violation found by one scan chunk; combined in ascending chunk
/// order so the first offending index in scan order wins for any worker
/// count. The lattice scan walks resident tiles in directory (block-id)
/// order and cells within each tile in storage order, so its winner is
/// deterministic but keyed by (block, cell), not by raw dense index.
struct Hit {
  std::size_t index = kNoHit;  ///< node index or cell slot
  HealthCheck check = HealthCheck::None;
  int element = -1;
  double value = 0.0;
  double limit = 0.0;
};

Hit combine_first(Hit acc, Hit partial) {
  return acc.index != kNoHit ? acc : partial;
}

std::string format_value(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

}  // namespace

const char* to_string(HealthPolicy policy) {
  switch (policy) {
    case HealthPolicy::Throw:
      return "throw";
    case HealthPolicy::Log:
      return "log";
    case HealthPolicy::Recover:
      return "recover";
  }
  return "unknown";
}

HealthPolicy health_policy_from_string(const std::string& s) {
  if (s == "throw") return HealthPolicy::Throw;
  if (s == "log") return HealthPolicy::Log;
  if (s == "recover") return HealthPolicy::Recover;
  throw std::invalid_argument("health policy must be throw, log or recover; got '" +
                              s + "'");
}

const char* to_string(HealthCheck check) {
  switch (check) {
    case HealthCheck::None:
      return "none";
    case HealthCheck::FieldFinite:
      return "field_finite";
    case HealthCheck::DensityBounds:
      return "density_bounds";
    case HealthCheck::MachLimit:
      return "mach_limit";
    case HealthCheck::CellFinite:
      return "cell_finite";
    case HealthCheck::ElementInversion:
      return "element_inversion";
    case HealthCheck::CellDeformation:
      return "cell_deformation";
    case HealthCheck::CellVolume:
      return "cell_volume";
    case HealthCheck::CouplingInvariant:
      return "coupling_invariant";
  }
  return "unknown";
}

HealthReport HealthMonitor::scan_lattice(const lbm::Lattice& lat,
                                         const std::string& subject,
                                         int step) const {
  OBS_SPAN("health", "scan_lattice");
  const HealthParams& p = params_;
  // Scan only resident tiles: vacant blocks hold Exterior nodes with
  // all-zero distributions, which no check here can flag. Cells of a
  // boundary tile that fall outside the lattice box are Exterior too, so
  // the type filter handles clipping for free.
  constexpr std::size_t kTN = lbm::Lattice::kTileNodes;
  const Hit hit = exec::parallel_reduce(
      lat.num_tiles(), Hit{},
      [&](std::size_t tb, std::size_t te) {
        for (std::size_t t = tb; t < te; ++t) {
          const lbm::NodeType* types = lat.tile_types(t);
          const double* tf = lat.tile_f(t);
          int x0 = 0, y0 = 0, z0 = 0;
          lat.tile_origin(t, x0, y0, z0);
          for (std::size_t c = 0; c < kTN; ++c) {
            const lbm::NodeType ty = types[c];
            if (ty != lbm::NodeType::Fluid && ty != lbm::NodeType::Coupling) {
              continue;
            }
            std::array<double, lbm::kQ> f;
            for (int q = 0; q < lbm::kQ; ++q) f[q] = tf[q * kTN + c];
            const double rho = lbm::density(f);
            const Vec3 mom = lbm::momentum(f);
            int lx = 0, ly = 0, lz = 0;
            lbm::Lattice::cell_coords(c, lx, ly, lz);
            const std::size_t i = lat.idx(x0 + lx, y0 + ly, z0 + lz);
            // NaN/Inf anywhere in f propagates through the moment sums, so
            // checking the moments covers every distribution slot.
            if (!std::isfinite(rho) || !finite(mom)) {
              return Hit{i, HealthCheck::FieldFinite, -1, rho, 0.0};
            }
            if (rho < p.rho_min || rho > p.rho_max) {
              const double limit = rho < p.rho_min ? p.rho_min : p.rho_max;
              return Hit{i, HealthCheck::DensityBounds, -1, rho, limit};
            }
            const double mach = norm(mom) / rho * kInvCs;
            if (mach > p.max_mach) {
              return Hit{i, HealthCheck::MachLimit, -1, mach, p.max_mach};
            }
          }
        }
        return Hit{};
      },
      combine_first, /*grain=*/1);

  HealthReport rep;
  rep.subject = subject;
  rep.step = step;
  if (hit.index == kNoHit) return rep;
  rep.check = hit.check;
  rep.node = hit.index;
  rep.node_x = static_cast<int>(hit.index % lat.nx());
  rep.node_y = static_cast<int>((hit.index / lat.nx()) % lat.ny());
  rep.node_z = static_cast<int>(hit.index / (static_cast<std::size_t>(lat.nx()) *
                                             lat.ny()));
  rep.value = hit.value;
  rep.limit = hit.limit;
  std::ostringstream os;
  os << "health: " << subject << " lattice node " << rep.node << " ("
     << rep.node_x << "," << rep.node_y << "," << rep.node_z << ") failed "
     << to_string(rep.check) << " at step " << step << ": value "
     << format_value(rep.value);
  if (rep.check != HealthCheck::FieldFinite) {
    os << " vs limit " << format_value(rep.limit);
  }
  rep.message = os.str();
  return rep;
}

HealthReport HealthMonitor::scan_cells(const cells::CellPool& pool,
                                       const std::string& subject,
                                       int step) const {
  OBS_SPAN("health", "scan_cells");
  const HealthParams& p = params_;
  const auto& tris = pool.model().reference().triangles;
  const double ref_volume = pool.model().ref_volume();

  const Hit hit = exec::parallel_reduce(
      pool.size(), Hit{},
      [&](std::size_t b, std::size_t e) {
        std::vector<Vec3> x;
        for (std::size_t slot = b; slot < e; ++slot) {
          const auto xs = pool.positions(slot);
          for (std::size_t v = 0; v < xs.size(); ++v) {
            if (!finite(xs[v])) {
              return Hit{slot, HealthCheck::CellFinite,
                         static_cast<int>(v), xs[v].x, 0.0};
            }
          }
          // Element inversion: the membrane is a closed, outward-oriented
          // surface; an element pushed through the interior contributes a
          // signed volume (relative to the cell centroid) that is negative
          // on the order of a typical element's share. The threshold is
          // relative, not zero: only the *reference* shapes are star-shaped
          // about their centroid -- a healthy deformed cell (dimples,
          // parachutes) legitimately carries faintly negative contributions
          // (under-resolved fig6-scale runs excurse to ~0.4 shares), while
          // a vertex pushed through the membrane lands at multiple shares.
          // Genuine collapse without sign reversal is caught by the det F
          // floor below.
          const Vec3 c = cells::centroid(xs);
          const double typical6 =
              6.0 * ref_volume / static_cast<double>(tris.size());
          const double inv_limit = -typical6;
          for (std::size_t t = 0; t < tris.size(); ++t) {
            const auto& tr = tris[t];
            const double vol6 = dot(xs[tr[0]] - c,
                                    cross(xs[tr[1]] - c, xs[tr[2]] - c));
            if (vol6 <= inv_limit) {
              return Hit{slot, HealthCheck::ElementInversion,
                         static_cast<int>(t), vol6, inv_limit};
            }
          }
          x.assign(xs.begin(), xs.end());
          const auto def = pool.model().deformation_scan(x);
          if (def.min_det_f <= p.min_det_f) {
            return Hit{slot, HealthCheck::ElementInversion,
                       def.min_det_f_element, def.min_det_f, p.min_det_f};
          }
          if (!std::isfinite(def.max_i1) || def.max_i1 > p.max_i1) {
            return Hit{slot, HealthCheck::CellDeformation, def.max_i1_element,
                       def.max_i1, p.max_i1};
          }
          const double volume = fem::volume_with_gradient(x, tris, nullptr);
          const double drift = std::abs(volume - ref_volume) / ref_volume;
          if (!std::isfinite(drift) || drift > p.max_volume_drift) {
            return Hit{slot, HealthCheck::CellVolume, -1, drift,
                       p.max_volume_drift};
          }
        }
        return Hit{};
      },
      combine_first);

  HealthReport rep;
  rep.subject = subject;
  rep.step = step;
  if (hit.index == kNoHit) return rep;
  rep.check = hit.check;
  rep.cell_slot = hit.index;
  rep.cell_id = pool.id(hit.index);
  rep.element = hit.element;
  rep.value = hit.value;
  rep.limit = hit.limit;
  std::ostringstream os;
  os << "health: " << subject << " cell id " << rep.cell_id << " (slot "
     << rep.cell_slot << ") failed " << to_string(rep.check) << " at step "
     << step;
  if (rep.element >= 0) os << ", element " << rep.element;
  os << ": value " << format_value(rep.value) << " vs limit "
     << format_value(rep.limit);
  rep.message = os.str();
  return rep;
}

HealthReport HealthMonitor::scan_coupling(const Window& window,
                                          const lbm::Lattice& fine,
                                          const lbm::Lattice& coarse, int n,
                                          bool coupler_attached,
                                          std::size_t coupling_nodes,
                                          int step) const {
  OBS_SPAN("health", "scan_coupling");
  HealthReport rep;
  rep.subject = "coupler";
  rep.step = step;
  const auto fail = [&](double value, double limit, const std::string& what) {
    rep.check = HealthCheck::CouplingInvariant;
    rep.value = value;
    rep.limit = limit;
    rep.message = "health: coupling invariant violated at step " +
                  std::to_string(step) + ": " + what;
    return rep;
  };

  const double dxf = fine.dx();
  const double dxc = coarse.dx();
  if (std::abs(dxc - n * dxf) > 1e-12 * dxc) {
    return fail(dxc / dxf, n, "coarse dx is not n * fine dx");
  }
  const Aabb box = window.outer_box();
  const double origin_err = norm(fine.origin() - box.lo);
  if (origin_err > 1e-9 * dxf) {
    return fail(origin_err, 1e-9 * dxf,
                "fine-lattice origin is off the window corner");
  }
  const int nn =
      static_cast<int>(std::round(window.config().outer_side() / dxf)) + 1;
  if (fine.nx() != nn || fine.ny() != nn || fine.nz() != nn) {
    return fail(fine.nx(), nn,
                "fine-lattice node counts do not span the window");
  }
  // The coupler interpolates coarse values at fine boundary nodes; the
  // window corner must sit exactly on a coarse node (snap_center's job).
  const Vec3 rel = (fine.origin() - coarse.origin()) / dxc;
  const Vec3 snapped{std::round(rel.x), std::round(rel.y), std::round(rel.z)};
  const double snap_err = norm(rel - snapped);
  if (snap_err > 1e-6) {
    return fail(snap_err, 1e-6,
                "window corner is not snapped to the coarse grid");
  }
  if (!coupler_attached) {
    return fail(0.0, 1.0, "no coupler attached to the window");
  }
  if (coupling_nodes == 0) {
    return fail(0.0, 1.0, "coupler has an empty coupling layer");
  }
  return rep;
}

}  // namespace apr::core
