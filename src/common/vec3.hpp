#pragma once

/// \file vec3.hpp
/// Minimal 3-component vector used throughout hemoAPR for positions,
/// velocities and forces. Deliberately a plain aggregate so arrays of Vec3
/// are tightly packed and trivially relocatable (the cell memory pool relies
/// on this, see cells/cell_pool.hpp).

#include <array>
#include <cmath>
#include <iosfwd>
#include <ostream>

namespace apr {

/// 3D vector of doubles. All operations are componentwise unless noted.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr double& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }
  constexpr double operator[](int i) const {
    return i == 0 ? x : (i == 1 ? y : z);
  }

  constexpr Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  constexpr Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  constexpr Vec3& operator*=(double s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }
  constexpr Vec3& operator/=(double s) { return (*this) *= (1.0 / s); }

  friend constexpr Vec3 operator+(Vec3 a, const Vec3& b) { return a += b; }
  friend constexpr Vec3 operator-(Vec3 a, const Vec3& b) { return a -= b; }
  friend constexpr Vec3 operator*(Vec3 a, double s) { return a *= s; }
  friend constexpr Vec3 operator*(double s, Vec3 a) { return a *= s; }
  friend constexpr Vec3 operator/(Vec3 a, double s) { return a /= s; }
  friend constexpr Vec3 operator-(const Vec3& a) { return {-a.x, -a.y, -a.z}; }

  friend constexpr bool operator==(const Vec3& a, const Vec3& b) {
    return a.x == b.x && a.y == b.y && a.z == b.z;
  }
};

constexpr double dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
          a.x * b.y - a.y * b.x};
}

inline double norm(const Vec3& a) { return std::sqrt(dot(a, a)); }

constexpr double norm2(const Vec3& a) { return dot(a, a); }

/// Unit vector along `a`; returns the zero vector if |a| underflows.
inline Vec3 normalized(const Vec3& a) {
  const double n = norm(a);
  return n > 0.0 ? a / n : Vec3{};
}

inline double distance(const Vec3& a, const Vec3& b) { return norm(a - b); }

/// True when no component is NaN or infinite.
inline bool finite(const Vec3& a) {
  return std::isfinite(a.x) && std::isfinite(a.y) && std::isfinite(a.z);
}

/// Componentwise min/max, used by bounding-box accumulation.
constexpr Vec3 cwise_min(const Vec3& a, const Vec3& b) {
  return {a.x < b.x ? a.x : b.x, a.y < b.y ? a.y : b.y,
          a.z < b.z ? a.z : b.z};
}
constexpr Vec3 cwise_max(const Vec3& a, const Vec3& b) {
  return {a.x > b.x ? a.x : b.x, a.y > b.y ? a.y : b.y,
          a.z > b.z ? a.z : b.z};
}

std::ostream& operator<<(std::ostream& os, const Vec3& v);

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

/// Integer lattice coordinate triple.
struct Int3 {
  int x = 0;
  int y = 0;
  int z = 0;

  constexpr Int3() = default;
  constexpr Int3(int x_, int y_, int z_) : x(x_), y(y_), z(z_) {}

  constexpr int& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }
  constexpr int operator[](int i) const {
    return i == 0 ? x : (i == 1 ? y : z);
  }

  friend constexpr Int3 operator+(const Int3& a, const Int3& b) {
    return {a.x + b.x, a.y + b.y, a.z + b.z};
  }
  friend constexpr Int3 operator-(const Int3& a, const Int3& b) {
    return {a.x - b.x, a.y - b.y, a.z - b.z};
  }
  friend constexpr Int3 operator*(const Int3& a, int s) {
    return {a.x * s, a.y * s, a.z * s};
  }
  friend constexpr bool operator==(const Int3& a, const Int3& b) {
    return a.x == b.x && a.y == b.y && a.z == b.z;
  }
};

constexpr Vec3 to_vec3(const Int3& i) {
  return {static_cast<double>(i.x), static_cast<double>(i.y),
          static_cast<double>(i.z)};
}

}  // namespace apr
