#include "src/ibm/delta.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace apr::ibm {
namespace {

const DeltaKernel kKernels[] = {DeltaKernel::Cosine4, DeltaKernel::Linear2,
                                DeltaKernel::Peskin3};

class KernelSweep : public ::testing::TestWithParam<DeltaKernel> {};

TEST_P(KernelSweep, VanishesOutsideSupport) {
  const DeltaKernel k = GetParam();
  const double s = delta_support(k);
  EXPECT_EQ(delta_phi(k, s), 0.0);
  EXPECT_EQ(delta_phi(k, -s), 0.0);
  EXPECT_EQ(delta_phi(k, s + 1.0), 0.0);
}

TEST_P(KernelSweep, IsEvenAndPeaksAtZero) {
  const DeltaKernel k = GetParam();
  for (double r : {0.1, 0.4, 0.9, 1.3}) {
    EXPECT_NEAR(delta_phi(k, r), delta_phi(k, -r), 1e-15);
    EXPECT_LE(delta_phi(k, r), delta_phi(k, 0.0) + 1e-15);
  }
  EXPECT_GT(delta_phi(k, 0.0), 0.0);
}

TEST_P(KernelSweep, PartitionOfUnityAtAnyOffset) {
  // sum_j phi(x - j) = 1 for all x: the zeroth moment condition that
  // guarantees force and velocity conservation in IBM.
  const DeltaKernel k = GetParam();
  for (double x = -1.0; x <= 1.0; x += 0.0137) {
    int first = 0;
    std::array<double, 4> w{};
    const int n = delta_weights(k, x, &first, w);
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += w[i];
    EXPECT_NEAR(sum, 1.0, 1e-12) << "x = " << x;
  }
}

TEST_P(KernelSweep, FirstMomentSmallOrVanishing) {
  // sum_j (x - j) phi(x - j): exactly zero for the hat and 3-point
  // kernels (linear fields interpolate exactly); the Peskin cosine kernel
  // satisfies it only approximately (|m1| < ~0.022), which is its known
  // trade-off for smoothness.
  const DeltaKernel k = GetParam();
  const double tol = k == DeltaKernel::Cosine4 ? 0.025 : 1e-10;
  for (double x = 0.0; x <= 1.0; x += 0.0731) {
    int first = 0;
    std::array<double, 4> w{};
    const int n = delta_weights(k, x, &first, w);
    double m1 = 0.0;
    for (int i = 0; i < n; ++i) m1 += (x - (first + i)) * w[i];
    EXPECT_NEAR(m1, 0.0, tol) << "x = " << x;
  }
}

TEST(Cosine4, FirstMomentVanishesAtNodeAndMidpoints) {
  // By symmetry the cosine kernel's first moment is exact at integers and
  // half-integers.
  for (double x : {3.0, 3.5, 4.0}) {
    int first = 0;
    std::array<double, 4> w{};
    const int n = delta_weights(DeltaKernel::Cosine4, x, &first, w);
    double m1 = 0.0;
    for (int i = 0; i < n; ++i) m1 += (x - (first + i)) * w[i];
    EXPECT_NEAR(m1, 0.0, 1e-12) << "x = " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweep,
                         ::testing::ValuesIn(kKernels),
                         [](const auto& info) {
                           switch (info.param) {
                             case DeltaKernel::Cosine4:
                               return "Cosine4";
                             case DeltaKernel::Linear2:
                               return "Linear2";
                             default:
                               return "Peskin3";
                           }
                         });

TEST(Cosine4, MatchesClosedForm) {
  // phi(r) = (1 + cos(pi r / 2)) / 4 on |r| < 2.
  EXPECT_NEAR(delta_phi(DeltaKernel::Cosine4, 0.0), 0.5, 1e-15);
  EXPECT_NEAR(delta_phi(DeltaKernel::Cosine4, 1.0), 0.25, 1e-15);
  EXPECT_NEAR(delta_phi(DeltaKernel::Cosine4, 2.0), 0.0, 1e-15);
}

TEST(Cosine4, SupportWidthIsTwo) {
  EXPECT_DOUBLE_EQ(delta_support(DeltaKernel::Cosine4), 2.0);
  // Integer position: exactly the nodes {x-1, x, x+1} carry weight.
  int first = 0;
  std::array<double, 4> w{};
  const int n = delta_weights(DeltaKernel::Cosine4, 5.0, &first, w);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += w[i];
  EXPECT_NEAR(sum, 1.0, 1e-14);
}

TEST(Linear2, IsTheHatFunction) {
  EXPECT_DOUBLE_EQ(delta_phi(DeltaKernel::Linear2, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(delta_phi(DeltaKernel::Linear2, 0.25), 0.75);
  EXPECT_DOUBLE_EQ(delta_phi(DeltaKernel::Linear2, 1.0), 0.0);
}

TEST(Peskin3, ContinuousAtTheBreakpoint) {
  const double below = delta_phi(DeltaKernel::Peskin3, 0.5 - 1e-10);
  const double above = delta_phi(DeltaKernel::Peskin3, 0.5 + 1e-10);
  EXPECT_NEAR(below, above, 1e-6);
}

TEST(DeltaWeights, HugeOrNonFiniteCoordinateGivesEmptySupport) {
  // Finite but far outside int range: the support bounds must not reach
  // the int casts (UB, flagged by -fsanitize=float-cast-overflow).
  for (const DeltaKernel k : kKernels) {
    for (const double x :
         {1e300, -1e300, 0x1p31, -0x1p31, HUGE_VAL, std::nan("")}) {
      std::array<double, 4> w{};
      int first = -7;
      EXPECT_EQ(delta_weights(k, x, &first, w), 0) << x;
      EXPECT_EQ(first, 0) << x;
    }
    // Just inside the guard the support is still evaluated.
    std::array<double, 4> w{};
    int first = 0;
    EXPECT_GT(delta_weights(k, 1e8 + 0.25, &first, w), 0);
    EXPECT_EQ(first, static_cast<int>(std::ceil(1e8 + 0.25 -
                                                delta_support(k))));
  }
}

}  // namespace
}  // namespace apr::ibm
