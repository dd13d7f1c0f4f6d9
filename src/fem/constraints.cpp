#include "src/fem/constraints.hpp"

namespace apr::fem {

double surface_area_with_gradient(std::span<const Vec3> x,
                                  const std::vector<mesh::Triangle>& tris,
                                  std::vector<Vec3>* grad) {
  double area = 0.0;
  for (const auto& t : tris) {
    const Vec3& a = x[t[0]];
    const Vec3& b = x[t[1]];
    const Vec3& c = x[t[2]];
    const Vec3 n = cross(b - a, c - a);
    const double nn = norm(n);
    area += 0.5 * nn;
    if (grad && nn > 0.0) {
      const Vec3 nh = n / nn;
      (*grad)[t[0]] += cross(b - c, nh) * 0.5;
      (*grad)[t[1]] += cross(c - a, nh) * 0.5;
      (*grad)[t[2]] += cross(a - b, nh) * 0.5;
    }
  }
  return area;
}

double volume_with_gradient(std::span<const Vec3> x,
                            const std::vector<mesh::Triangle>& tris,
                            std::vector<Vec3>* grad) {
  double vol = 0.0;
  for (const auto& t : tris) {
    const Vec3& a = x[t[0]];
    const Vec3& b = x[t[1]];
    const Vec3& c = x[t[2]];
    vol += dot(a, cross(b, c)) / 6.0;
    if (grad) {
      (*grad)[t[0]] += cross(b, c) / 6.0;
      (*grad)[t[1]] += cross(c, a) / 6.0;
      (*grad)[t[2]] += cross(a, b) / 6.0;
    }
  }
  return vol;
}

namespace {

/// The calling thread's gradient buffer, zeroed to x.size() entries; it
/// keeps its capacity, so only the first call per thread allocates.
std::vector<Vec3>& gradient_scratch(std::size_t n) {
  static thread_local std::vector<Vec3> grad;
  grad.assign(n, Vec3{});
  return grad;
}

}  // namespace

void add_area_constraint_forces(double ka, double ref_area,
                                std::span<const Vec3> x,
                                const std::vector<mesh::Triangle>& tris,
                                std::span<Vec3> forces) {
  if (ka == 0.0 || ref_area <= 0.0) return;
  std::vector<Vec3>& grad = gradient_scratch(x.size());
  const double area = surface_area_with_gradient(x, tris, &grad);
  const double coef = -ka * (area - ref_area) / ref_area;
  for (std::size_t i = 0; i < x.size(); ++i) forces[i] += grad[i] * coef;
}

void add_volume_constraint_forces(double kv, double ref_volume,
                                  std::span<const Vec3> x,
                                  const std::vector<mesh::Triangle>& tris,
                                  std::span<Vec3> forces) {
  if (kv == 0.0 || ref_volume == 0.0) return;
  std::vector<Vec3>& grad = gradient_scratch(x.size());
  const double vol = volume_with_gradient(x, tris, &grad);
  const double coef = -kv * (vol - ref_volume) / ref_volume;
  for (std::size_t i = 0; i < x.size(); ++i) forces[i] += grad[i] * coef;
}

}  // namespace apr::fem
