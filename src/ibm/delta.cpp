#include "src/ibm/delta.hpp"

#include <cmath>
#include <numbers>

namespace apr::ibm {

double delta_phi(DeltaKernel kernel, double r) {
  const double a = std::abs(r);
  switch (kernel) {
    case DeltaKernel::Cosine4:
      if (a >= 2.0) return 0.0;
      return 0.25 * (1.0 + std::cos(std::numbers::pi * a / 2.0));
    case DeltaKernel::Linear2:
      if (a >= 1.0) return 0.0;
      return 1.0 - a;
    case DeltaKernel::Peskin3:
      if (a >= 1.5) return 0.0;
      if (a <= 0.5) return (1.0 + std::sqrt(1.0 - 3.0 * a * a)) / 3.0;
      return (5.0 - 3.0 * a -
              std::sqrt(-3.0 * (1.0 - a) * (1.0 - a) + 1.0)) /
             6.0;
  }
  return 0.0;
}

double delta_support(DeltaKernel kernel) {
  switch (kernel) {
    case DeltaKernel::Cosine4:
      return 2.0;
    case DeltaKernel::Linear2:
      return 1.0;
    case DeltaKernel::Peskin3:
      return 1.5;
  }
  return 0.0;
}

int delta_weights(DeltaKernel kernel, double x, int* first,
                  std::array<double, 4>& w) {
  // A non-finite or absurdly large lattice coordinate (a cell poisoned by
  // an upstream fault) must not reach the int casts below -- that is UB,
  // not a soft failure. Report an empty support instead; the health
  // watchdog localizes the bad vertex on its next scan. 2^30 nodes is far
  // beyond any lattice axis, and keeps first + 3 inside int range.
  constexpr double kMaxCoord = 1 << 30;
  if (!(std::abs(x) < kMaxCoord)) {
    *first = 0;
    return 0;
  }
  const double s = delta_support(kernel);
  const int lo = static_cast<int>(std::ceil(x - s));
  const int hi = static_cast<int>(std::floor(x + s));
  *first = lo;
  int n = 0;
  for (int j = lo; j <= hi && n < 4; ++j) {
    w[n++] = delta_phi(kernel, x - j);
  }
  return n;
}

}  // namespace apr::ibm
