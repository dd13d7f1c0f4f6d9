#include "src/geometry/vasculature.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <stdexcept>

namespace apr::geometry {

double VesselSegment::volume() const {
  const double l = length();
  return std::numbers::pi / 3.0 * l * (ra * ra + ra * rb + rb * rb);
}

namespace {

/// Signed distance (positive inside) to one tapered capsule.
double segment_sdf(const VesselSegment& s, const Vec3& p) {
  const Vec3 ab = s.b - s.a;
  const double len2 = norm2(ab);
  double t = len2 > 0.0 ? dot(p - s.a, ab) / len2 : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  const Vec3 closest = s.a + ab * t;
  const double r = s.ra + t * (s.rb - s.ra);
  return r - distance(p, closest);
}

/// Segments per BVH leaf.
constexpr int kLeafSize = 4;

/// Relative slack on a node's bound. Rounding moves a computed
/// segment_sdf from its exact value by a few ulp (~1e-15) of the largest
/// magnitude involved (coordinates, radius, distance); 1e-10 covers that
/// by orders of magnitude and prunes as well as the exact bound.
constexpr double kBoundSlack = 1e-10;

/// An arbitrary unit vector orthogonal to d.
Vec3 orthogonal(const Vec3& d) {
  const Vec3 ref =
      std::abs(d.x) < 0.9 ? Vec3{1.0, 0.0, 0.0} : Vec3{0.0, 1.0, 0.0};
  return normalized(cross(d, ref));
}

/// Rotate v about unit axis k by angle (Rodrigues).
Vec3 rotate_about(const Vec3& v, const Vec3& k, double angle) {
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  return v * c + cross(k, v) * s + k * (dot(k, v) * (1.0 - c));
}

}  // namespace

Vasculature::Vasculature(std::vector<VesselSegment> segments)
    : segments_(std::move(segments)) {
  if (segments_.empty()) {
    throw std::invalid_argument("Vasculature: no segments");
  }
  for (const auto& s : segments_) {
    const double r = std::max(s.ra, s.rb);
    bounds_.include(s.a - Vec3{r, r, r});
    bounds_.include(s.a + Vec3{r, r, r});
    bounds_.include(s.b - Vec3{r, r, r});
    bounds_.include(s.b + Vec3{r, r, r});
    // A zero-length segment is a sphere of radius ra: slope 0.
    const double len = s.length();
    if (len > 0.0) {
      lipschitz_ = std::max(lipschitz_, 1.0 + std::abs(s.rb - s.ra) / len);
    }
  }
  build_bvh();
}

void Vasculature::build_bvh() {
  // Median splits of the axis midpoints along their widest extent, so the
  // depth stays within log2(segments) + 1.
  const int n = static_cast<int>(segments_.size());
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  const auto mid = [this](int i) {
    return (segments_[i].a + segments_[i].b) * 0.5;
  };
  struct Job {
    int node, begin, end;
  };
  bvh_.assign(1, BvhNode{});
  std::vector<Job> jobs{{0, 0, n}};
  while (!jobs.empty()) {
    const Job job = jobs.back();
    jobs.pop_back();
    BvhNode node;
    Aabb mids;
    for (int k = job.begin; k < job.end; ++k) {
      const VesselSegment& s = segments_[order_[k]];
      node.axes.include(s.a);
      node.axes.include(s.b);
      node.rmax = std::max({node.rmax, s.ra, s.rb});
      mids.include(mid(order_[k]));
    }
    node.scale = std::max(node.rmax, node.axes.magnitude());
    if (job.end - job.begin <= kLeafSize) {
      node.first = job.begin;
      node.count = job.end - job.begin;
    } else {
      const Vec3 e = mids.extent();
      const int axis = e.x >= e.y && e.x >= e.z ? 0 : (e.y >= e.z ? 1 : 2);
      const auto key = [&](int i) {
        const Vec3 m = mid(i);
        return axis == 0 ? m.x : (axis == 1 ? m.y : m.z);
      };
      const int half = job.begin + (job.end - job.begin) / 2;
      std::nth_element(order_.begin() + job.begin, order_.begin() + half,
                       order_.begin() + job.end, [&](int i, int j) {
                         return key(i) < key(j) || (key(i) == key(j) && i < j);
                       });
      node.first = static_cast<int>(bvh_.size());
      bvh_.resize(bvh_.size() + 2);
      jobs.push_back({node.first, job.begin, half});
      jobs.push_back({node.first + 1, half, job.end});
    }
    bvh_[job.node] = node;
  }
}

Vasculature Vasculature::branching_tree(const VasculatureParams& params,
                                        Rng& rng) {
  std::vector<VesselSegment> segs;
  struct Frontier {
    int parent;
    Vec3 tip;
    Vec3 dir;
    double radius;
    double length;
    int level;
  };
  std::vector<Frontier> frontier;

  // Root segment.
  {
    VesselSegment root;
    root.a = params.root_position;
    const Vec3 d = normalized(params.root_direction);
    root.b = root.a + d * params.root_length;
    root.ra = params.root_radius;
    root.rb = params.root_radius * params.taper;
    root.parent = -1;
    root.level = 0;
    segs.push_back(root);
    frontier.push_back({0, root.b, d, root.rb,
                        params.root_length * params.length_ratio, 1});
  }

  while (!frontier.empty()) {
    const Frontier f = frontier.back();
    frontier.pop_back();
    if (f.level > params.levels) continue;

    // Two daughters in a randomly oriented bifurcation plane.
    const Vec3 n = orthogonal(f.dir);
    const double roll = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const Vec3 plane_n = rotate_about(n, f.dir, roll);
    for (int side = 0; side < 2; ++side) {
      const double angle = (side == 0 ? 1.0 : -1.0) *
                           (params.branch_angle +
                            rng.uniform(-params.angle_jitter,
                                        params.angle_jitter));
      const Vec3 d = normalized(rotate_about(f.dir, plane_n, angle));
      VesselSegment s;
      s.a = f.tip;
      s.b = f.tip + d * f.length;
      s.ra = f.radius * params.radius_ratio;
      s.rb = s.ra * params.taper;
      s.parent = f.parent;
      s.level = f.level;
      const int idx = static_cast<int>(segs.size());
      segs.push_back(s);
      frontier.push_back({idx, s.b, d, s.rb,
                          f.length * params.length_ratio, f.level + 1});
    }
  }
  return Vasculature(std::move(segs));
}

Vasculature Vasculature::cerebral_like(Rng& rng, double scale) {
  VasculatureParams p;
  p.root_position = Vec3{};
  p.root_direction = {0.15, 0.1, 1.0};
  p.root_radius = 150e-6 * scale;
  p.root_length = 1.5e-3 * scale;
  p.levels = 5;
  p.radius_ratio = 0.794;
  p.length_ratio = 0.75;
  p.branch_angle = 0.6;
  p.angle_jitter = 0.25;  // tortuous
  p.taper = 0.88;
  return branching_tree(p, rng);
}

Vasculature Vasculature::upper_body_like(Rng& rng, double scale) {
  VasculatureParams p;
  p.root_position = Vec3{};
  p.root_direction = {0.0, 0.0, 1.0};
  p.root_radius = 1.0e-2 * scale;  // aorta ~2 cm diameter
  p.root_length = 10.0e-2 * scale;
  p.levels = 6;
  p.radius_ratio = 0.75;
  p.length_ratio = 0.7;
  p.branch_angle = 0.45;
  p.angle_jitter = 0.1;
  p.taper = 0.92;
  return branching_tree(p, rng);
}

double Vasculature::signed_distance(const Vec3& p) const {
  // The max of the same segment_sdf doubles as a scan of every segment.
  // A node is skipped only when its bound is strictly below `best`, so
  // each skipped value is below `best` and could not have changed the max.
  // A NaN bound compares false and is always visited, so a non-finite p
  // evaluates every segment, as the scan does.
  const double pmag = std::max({std::abs(p.x), std::abs(p.y), std::abs(p.z)});
  // Upper bound on segment_sdf over a node's segments: no point of an axis
  // lies closer to p than the axes' box, and no radius exceeds rmax.
  const auto node_bound = [&p, pmag](const BvhNode& node) {
    const Aabb& b = node.axes;
    const double ox = std::max(std::max(b.lo.x - p.x, p.x - b.hi.x), 0.0);
    const double oy = std::max(std::max(b.lo.y - p.y, p.y - b.hi.y), 0.0);
    const double oz = std::max(std::max(b.lo.z - p.z, p.z - b.hi.z), 0.0);
    const double d = std::sqrt(ox * ox + oy * oy + oz * oz);
    return node.rmax - d + kBoundSlack * (node.scale + pmag + d);
  };
  double best = -std::numeric_limits<double>::max();
  struct Pending {
    int node;
    double bound;
  };
  // Depth <= log2(segments) + 1, and each level leaves one sibling pending.
  std::array<Pending, 64> stack;
  int top = 0;
  stack[top++] = {0, node_bound(bvh_[0])};
  while (top > 0) {
    const Pending cur = stack[--top];
    if (cur.bound < best) continue;
    const BvhNode& node = bvh_[cur.node];
    if (node.count > 0) {
      for (int k = node.first; k < node.first + node.count; ++k) {
        best = std::max(best, segment_sdf(segments_[order_[k]], p));
      }
      continue;
    }
    // Pop the child with the larger bound first: it raises `best` soonest.
    const Pending l{node.first, node_bound(bvh_[node.first])};
    const Pending r{node.first + 1, node_bound(bvh_[node.first + 1])};
    if (l.bound > r.bound) {
      stack[top++] = r;
      stack[top++] = l;
    } else {
      stack[top++] = l;
      stack[top++] = r;
    }
  }
  return best;
}

Aabb Vasculature::bounds() const { return bounds_; }

double Vasculature::total_volume() const {
  double v = 0.0;
  for (const auto& s : segments_) v += s.volume();
  return v;
}

std::vector<Vec3> Vasculature::main_path(double step) const {
  if (step <= 0.0) throw std::invalid_argument("main_path: step must be > 0");
  // Chain of segments from the root to the deepest reachable leaf; ties
  // broken by path length.
  const int n = static_cast<int>(segments_.size());
  std::vector<double> depth(n, 0.0);
  std::vector<int> next(n, -1);
  // Segments were appended parents-first, so a reverse sweep accumulates
  // subtree depth.
  for (int i = n - 1; i >= 0; --i) {
    const int parent = segments_[i].parent;
    const double d = depth[i] + segments_[i].length();
    if (parent >= 0 && d > depth[parent]) {
      depth[parent] = d;
      next[parent] = i;
    }
  }
  // Root is segment 0 by construction.
  std::vector<Vec3> path;
  int cur = 0;
  while (cur >= 0) {
    const VesselSegment& s = segments_[cur];
    const double len = s.length();
    const int samples = std::max(1, static_cast<int>(std::ceil(len / step)));
    for (int k = 0; k < samples; ++k) {
      const double t = static_cast<double>(k) / samples;
      path.push_back(s.a + (s.b - s.a) * t);
    }
    if (next[cur] < 0) path.push_back(s.b);
    cur = next[cur];
  }
  return path;
}

}  // namespace apr::geometry
