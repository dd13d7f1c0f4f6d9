#pragma once

/// \file delta.hpp
/// Regularized Dirac delta kernels for the immersed boundary method
/// (paper §2.3). The paper uses the Peskin cosine approximation with a
/// four-point support; the two- and three-point kernels are provided for
/// the kernel-cost ablation bench.

#include <array>

namespace apr::ibm {

enum class DeltaKernel {
  Cosine4,  ///< Peskin cosine, 4-point support (the paper's choice)
  Linear2,  ///< hat function, 2-point support
  Peskin3,  ///< 3-point smoothed kernel
};

/// 1D kernel value phi(r) for lattice-unit distance r.
double delta_phi(DeltaKernel kernel, double r);

/// Support half-width in lattice units (2.0 for the 4-point kernel).
double delta_support(DeltaKernel kernel);

/// Evaluate the 1D weights over the integer support around coordinate x.
/// Writes the first node index to `first` and up to 4 weights; returns the
/// number of support nodes. A non-finite x or |x| >= 2^30 (outside any
/// lattice, and near the int range) yields an empty support.
int delta_weights(DeltaKernel kernel, double x, int* first,
                  std::array<double, 4>& w);

}  // namespace apr::ibm
