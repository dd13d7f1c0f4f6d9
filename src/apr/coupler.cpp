#include "src/apr/coupler.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "src/common/units.hpp"
#include "src/exec/exec.hpp"
#include "src/obs/trace.hpp"

namespace apr::core {

using lbm::kQ;

namespace {

/// Restriction inset from the fine boundary, in coarse spacings: coarse
/// nodes closer than this to the window edge keep their own solution.
constexpr int kRestrictMargin = 2;

}  // namespace

CoarseFineCoupler::CoarseFineCoupler(lbm::Lattice& coarse, lbm::Lattice& fine,
                                     const CouplerConfig& config)
    : coarse_(&coarse), fine_(&fine), cfg_(config) {
  if (cfg_.n < 1) throw std::invalid_argument("Coupler: n must be >= 1");
  if (cfg_.lambda <= 0.0) {
    throw std::invalid_argument("Coupler: lambda must be > 0");
  }
  // Spacing and alignment checks.
  const double expected_dx = coarse.dx() / cfg_.n;
  if (std::abs(fine.dx() - expected_dx) > 1e-9 * coarse.dx()) {
    throw std::invalid_argument("Coupler: dx_fine != dx_coarse / n");
  }
  const Vec3 rel = (fine.origin() - coarse.origin()) / coarse.dx();
  for (int a = 0; a < 3; ++a) {
    if (std::abs(rel[a] - std::round(rel[a])) > 1e-6) {
      throw std::invalid_argument(
          "Coupler: fine origin not aligned with a coarse node");
    }
    base_[a] = static_cast<int>(std::round(rel[a]));
  }
  tau_f_ = fine_tau(cfg_.tau_coarse, cfg_.n, cfg_.lambda);
  tau_inside_ = 0.5 + cfg_.lambda * (cfg_.tau_coarse - 0.5);
  fine.set_uniform_tau(tau_f_);

  build_coupling_layer();
  build_footprint();

  pre_.rho.resize(support_nodes_.size());
  pre_.u.resize(support_nodes_.size());
  pre_.t.resize(support_nodes_.size());
  post_ = pre_;
  blend_ = pre_;
}

double CoarseFineCoupler::coarse_norm(double tau_local) const {
  // nu_local / (tau_local * dt) with dt_c = 1 and nu in coarse lattice
  // units: nu = cs^2 (tau - 1/2).
  return kCs2 * (tau_local - 0.5) / tau_local;
}

double CoarseFineCoupler::fine_norm() const {
  // nu_f in coarse-lattice units is lambda * nu_c; dt_f = 1/n.
  const double nu_f = cfg_.lambda * kCs2 * (cfg_.tau_coarse - 0.5);
  return nu_f / (tau_f_ * (1.0 / cfg_.n));
}

void CoarseFineCoupler::build_coupling_layer() {
  // The outermost fine-node layer that is currently Fluid becomes the
  // Coupling layer fed from the coarse grid.
  const int n = cfg_.n;
  const int nx = fine_->nx();
  const int ny = fine_->ny();
  const int nz = fine_->nz();
  const int cmax[3] = {coarse_->nx() - 2, coarse_->ny() - 2,
                       coarse_->nz() - 2};
  std::unordered_map<std::size_t, std::uint32_t> support_index;
  auto register_support = [&](std::size_t coarse_idx) {
    auto it = support_index.find(coarse_idx);
    if (it != support_index.end()) return it->second;
    const auto local = static_cast<std::uint32_t>(support_nodes_.size());
    support_nodes_.push_back(coarse_idx);
    support_index.emplace(coarse_idx, local);
    return local;
  };

  auto couple = [&](int x, int y, int z) {
    const std::size_t i = fine_->idx(x, y, z);
    if (fine_->type(i) != lbm::NodeType::Fluid) return;
    fine_->set_type(i, lbm::NodeType::Coupling);

    // Trilinear support on the coarse grid: cell base + s / n at exact
    // fraction (s % n) / n. Clamping the cell at the coarse edge shifts
    // the fraction by the same whole number.
    const int s[3] = {x, y, z};
    int c[3];
    double fr[3];
    for (int a = 0; a < 3; ++a) {
      const int c0 = base_[a] + s[a] / n;
      c[a] = std::min(std::max(c0, 0), cmax[a]);
      fr[a] = static_cast<double>(s[a] % n) / n + (c0 - c[a]);
    }
    // Non-fluid support nodes (window grazing a wall) get zero weight and
    // the rest are renormalized, all decided here at build time.
    CouplingNode node;
    node.fine_idx = i;
    int k = 0;
    double wsum = 0.0;
    for (int dz = 0; dz < 2; ++dz) {
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const std::size_t ci = coarse_->idx(c[0] + dx, c[1] + dy, c[2] + dz);
          double w = (dx ? fr[0] : 1.0 - fr[0]) * (dy ? fr[1] : 1.0 - fr[1]) *
                     (dz ? fr[2] : 1.0 - fr[2]);
          if (coarse_->type(ci) != lbm::NodeType::Fluid) w = 0.0;
          node.weight[k] = w;
          node.support[k] = w > 0.0 ? register_support(ci) : 0;
          wsum += w;
          ++k;
        }
      }
    }
    if (wsum > 0.0) {
      for (auto& w : node.weight) w /= wsum;
    }
    coupling_.push_back(node);
  };

  // Boundary sites straight off the six faces, in z,y,x scan order (a
  // site visited twice is already Coupling and skipped).
  const auto inner = [](int m) {
    return static_cast<std::size_t>(std::max(m - 2, 0));
  };
  coupling_.reserve(static_cast<std::size_t>(nx) * ny * nz -
                    inner(nx) * inner(ny) * inner(nz));
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      if (z == 0 || z == nz - 1 || y == 0 || y == ny - 1) {
        for (int x = 0; x < nx; ++x) couple(x, y, z);
      } else {
        couple(0, y, z);
        couple(nx - 1, y, z);
      }
    }
  }
  if (coupling_.empty()) {
    throw std::invalid_argument("Coupler: fine lattice has no fluid boundary");
  }
  if (support_nodes_.empty()) {
    // Fully wall-enclosed interface; keep one dummy so snapshots are
    // well-formed (weights are all zero, so it is never read).
    support_nodes_.push_back(0);
  }
}

void CoarseFineCoupler::build_footprint() {
  // Coarse node base + r lies in the footprint iff r * n is a fine index
  // on every axis. Its fluid nodes represent the window fluid: same
  // physical viscosity as the fine grid, coarse discretization. Those at
  // least kRestrictMargin coarse spacings inside every window face whose
  // coincident fine node is Fluid are restricted; nodes nearer the
  // coupling layer keep their own solution.
  const int n = cfg_.n;
  const int margin = kRestrictMargin * n;
  const int nf[3] = {fine_->nx(), fine_->ny(), fine_->nz()};
  const int nc[3] = {coarse_->nx(), coarse_->ny(), coarse_->nz()};
  int lo[3];
  int hi[3];
  for (int a = 0; a < 3; ++a) {
    lo[a] = std::max(base_[a], 0);
    hi[a] = std::min(base_[a] + (nf[a] - 1) / n + 1, nc[a]);
  }
  for (int z = lo[2]; z < hi[2]; ++z) {
    for (int y = lo[1]; y < hi[1]; ++y) {
      for (int x = lo[0]; x < hi[0]; ++x) {
        const std::size_t ci = coarse_->idx(x, y, z);
        if (coarse_->type(ci) != lbm::NodeType::Fluid) continue;
        saved_coarse_tau_.emplace_back(ci, coarse_->tau(ci));
        coarse_->set_tau(ci, tau_inside_);
        const int f[3] = {(x - base_[0]) * n, (y - base_[1]) * n,
                          (z - base_[2]) * n};
        bool inner = true;
        for (int a = 0; a < 3; ++a) {
          inner = inner && f[a] >= margin && f[a] <= nf[a] - 1 - margin;
        }
        if (!inner) continue;
        const std::size_t fi = fine_->idx(f[0], f[1], f[2]);
        if (fine_->type(fi) != lbm::NodeType::Fluid) continue;
        restriction_.push_back({ci, fi});
      }
    }
  }
}

void CoarseFineCoupler::release() {
  if (released_) return;
  for (const auto& [idx, tau] : saved_coarse_tau_) {
    coarse_->set_tau(idx, tau);
  }
  // Coupling nodes revert to plain fluid so the fine lattice can be
  // re-used or discarded safely.
  for (const auto& c : coupling_) {
    fine_->set_type(c.fine_idx, lbm::NodeType::Fluid);
  }
  released_ = true;
}

void CoarseFineCoupler::take_snapshot(Snapshot& snap) const {
  // Per unique support node: moments computed from the distributions
  // directly (no global macroscopic refresh of the coarse grid needed).
  exec::parallel_for(support_nodes_.size(), [&](std::size_t k) {
    const std::size_t ci = support_nodes_[k];
    const auto fc = coarse_->f_node(ci);
    double r = lbm::density(fc);
    if (r <= 0.0) r = 1.0;  // unreachable dummy supports
    const Vec3 uv = (lbm::momentum(fc) + coarse_->force(ci) * 0.5) / r;
    std::array<double, kQ> feq;
    lbm::equilibria(r, uv, feq);
    const double normf = coarse_norm(coarse_->tau(ci));
    snap.rho[k] = r;
    snap.u[k] = uv;
    for (int q = 0; q < kQ; ++q) {
      snap.t[k][q] = normf * (fc[q] - feq[q]);
    }
  });
}

void CoarseFineCoupler::take_pre_snapshot() {
  OBS_SPAN("coupler", "take_pre_snapshot");
  take_snapshot(pre_);
}

void CoarseFineCoupler::take_post_snapshot() {
  OBS_SPAN("coupler", "take_post_snapshot");
  take_snapshot(post_);
  bytes_ += coupling_.size() * (1 + 3 + kQ) * sizeof(double) * 2;
}

void CoarseFineCoupler::begin_coarse_step() {
  take_pre_snapshot();
  coarse_->step_no_macro();
  take_post_snapshot();
}

void CoarseFineCoupler::set_fine_boundary(int substep) {
  OBS_SPAN("coupler", "set_fine_boundary");
  if (substep < 0 || substep >= cfg_.n) {
    throw std::out_of_range("Coupler: bad substep");
  }
  const double w = static_cast<double>(substep) / cfg_.n;
  const double inv_norm = 1.0 / fine_norm();

  // Temporal blend once per support node...
  exec::parallel_for(support_nodes_.size(), [&](std::size_t k) {
    blend_.rho[k] = (1.0 - w) * pre_.rho[k] + w * post_.rho[k];
    blend_.u[k] = pre_.u[k] * (1.0 - w) + post_.u[k] * w;
    for (int q = 0; q < kQ; ++q) {
      blend_.t[k][q] = (1.0 - w) * pre_.t[k][q] + w * post_.t[k][q];
    }
  });

  // ...then spatial interpolation per coupling node.
  exec::parallel_for(coupling_.size(), [&](std::size_t k) {
    const CouplingNode& node = coupling_[k];
    double rho = 0.0;
    Vec3 u{};
    std::array<double, kQ> t{};
    double wsum = 0.0;
    for (int s = 0; s < 8; ++s) {
      const double ws = node.weight[s];
      if (ws == 0.0) continue;
      const std::uint32_t si = node.support[s];
      wsum += ws;
      rho += ws * blend_.rho[si];
      u += blend_.u[si] * ws;
      for (int q = 0; q < kQ; ++q) t[q] += ws * blend_.t[si][q];
    }
    if (wsum == 0.0) rho = 1.0;  // fully wall-enclosed: quiescent default
    std::array<double, kQ> f;
    lbm::equilibria(rho, u, f);
    for (int q = 0; q < kQ; ++q) {
      f[q] += t[q] * inv_norm;
    }
    fine_->set_f_node(node.fine_idx, f);
  });
}

void CoarseFineCoupler::restrict_to_coarse() {
  OBS_SPAN("coupler", "restrict_to_coarse");
  const double scale = fine_norm() / coarse_norm(tau_inside_);
  exec::parallel_for(restriction_.size(), [&](std::size_t k) {
    const RestrictionNode& r = restriction_[k];
    const auto ff = fine_->f_node(r.fine_idx);
    const double rho = lbm::density(ff);
    const Vec3 u = (lbm::momentum(ff) + fine_->force(r.fine_idx) * 0.5) / rho;
    std::array<double, kQ> feq_f;
    lbm::equilibria(rho, u, feq_f);
    std::array<double, kQ> f_c;
    lbm::equilibria(rho, u, f_c);
    for (int q = 0; q < kQ; ++q) {
      f_c[q] += (ff[q] - feq_f[q]) * scale;
    }
    coarse_->set_f_node(r.coarse_idx, f_c);
  });
  bytes_ += restriction_.size() * kQ * sizeof(double);
}

void CoarseFineCoupler::advance() {
  begin_coarse_step();
  for (int s = 0; s < cfg_.n; ++s) {
    set_fine_boundary(s);
    fine_->step_no_macro();
  }
  restrict_to_coarse();
}

}  // namespace apr::core
