// Unit tests for the tensor substrate: Matrix/Vector ops, activations,
// softmax/cross-entropy, including parameterized activation-derivative
// finite-difference sweeps.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace advtext {
namespace {

TEST(Matrix, InitializerListAndAccess) {
  Matrix m = {{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_FLOAT_EQ(m(2, 1), 6.0f);
  m(2, 1) = 9.0f;
  EXPECT_FLOAT_EQ(m(2, 1), 9.0f);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0f, 2.0f}, {3.0f}}), std::invalid_argument);
}

TEST(Matrix, RowCopyAndSetRow) {
  Matrix m(2, 3);
  m.set_row(1, {7.0f, 8.0f, 9.0f});
  const Vector row = m.row_copy(1);
  EXPECT_EQ(row, (Vector{7.0f, 8.0f, 9.0f}));
  EXPECT_THROW(m.set_row(5, {1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(m.set_row(0, {1, 2}), std::invalid_argument);
}

TEST(Matrix, FillVariants) {
  Rng rng(1);
  Matrix m(10, 10);
  m.fill(2.5f);
  EXPECT_FLOAT_EQ(m(4, 7), 2.5f);
  m.fill_uniform(rng, 0.1f);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), 0.1f);
  }
}

TEST(VectorOps, DotAndAxpy) {
  const Vector a = {1.0f, 2.0f, 3.0f};
  const Vector b = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(dot(a, b), 4.0f - 10.0f + 18.0f);
  Vector y = b;
  axpy(2.0f, a, y);
  EXPECT_EQ(y, (Vector{6.0f, -1.0f, 12.0f}));
  EXPECT_THROW(dot(a, Vector{1.0f}), std::invalid_argument);
}

TEST(VectorOps, AddSubScaleNorm) {
  const Vector a = {3.0f, 4.0f};
  EXPECT_FLOAT_EQ(norm2(a), 5.0f);
  EXPECT_EQ(add(a, a), (Vector{6.0f, 8.0f}));
  EXPECT_EQ(sub(a, a), (Vector{0.0f, 0.0f}));
  EXPECT_EQ(scale(a, 0.5f), (Vector{1.5f, 2.0f}));
}

TEST(MatrixOps, MatvecAndTransposed) {
  const Matrix a = {{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}};
  const Vector x = {1.0f, -1.0f};
  EXPECT_EQ(matvec(a, x), (Vector{-1.0f, -1.0f, -1.0f}));
  const Vector y = {1.0f, 0.0f, -1.0f};
  EXPECT_EQ(matvec_transposed(a, y), (Vector{-4.0f, -4.0f}));
}

TEST(MatrixOps, MatmulMatchesHandComputation) {
  const Matrix a = {{1.0f, 2.0f}, {3.0f, 4.0f}};
  const Matrix b = {{5.0f, 6.0f}, {7.0f, 8.0f}};
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(MatrixOps, MatmulLargeAgainstNaive) {
  Rng rng(2);
  Matrix a(70, 90);
  Matrix b(90, 65);
  a.fill_normal(rng, 1.0f);
  b.fill_normal(rng, 1.0f);
  const Matrix c = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); i += 17) {
    for (std::size_t j = 0; j < b.cols(); j += 13) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), acc, 1e-3f);
    }
  }
}

// Every C(i, j) of gemm_nt and gemm_nt_packed is dot(a_i, b_j, k), bit for
// bit: through gemm_nt's small-problem route, the kernel's 4-row blocks and
// 1-row remainder, and full and partial 8-column tiles. On an AVX2 host
// this pins the AVX2 build of the kernel; where ADVTEXT_AVX2_CLONES is
// empty (the TSan build) it pins the baseline one.
TEST(MatrixOps, GemmNtMatchesDotBitwise) {
  Rng rng(3);
  const std::size_t arow_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65};
  for (const std::size_t k : {1, 16, 24, 48}) {
    for (const std::size_t brows : {1, 7, 8, 9, 96}) {
      Matrix b(brows, k);
      b.fill_normal(rng, 1.0f);
      PackedB packed;
      gemm_pack_b(b.data(), brows, k, packed);
      for (const std::size_t arows : arow_counts) {
        SCOPED_TRACE(testing::Message() << "arows=" << arows
                                        << " brows=" << brows << " k=" << k);
        Matrix a(arows, k);
        a.fill_normal(rng, 1.0f);
        Matrix c(arows, brows);
        Matrix c_packed(arows, brows);
        gemm_nt(a.data(), arows, b.data(), brows, k, c.data());
        gemm_nt_packed(a.data(), arows, packed, c_packed.data());
        for (std::size_t i = 0; i < arows; ++i) {
          for (std::size_t j = 0; j < brows; ++j) {
            const auto want = std::bit_cast<std::uint32_t>(
                dot(a.row(i), b.row(j), k));
            ASSERT_EQ(std::bit_cast<std::uint32_t>(c(i, j)), want)
                << "gemm_nt C(" << i << ", " << j << ")";
            ASSERT_EQ(std::bit_cast<std::uint32_t>(c_packed(i, j)), want)
                << "gemm_nt_packed C(" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(MatrixOps, AddOuterRankOne) {
  Matrix c(2, 3);
  add_outer(c, 2.0f, {1.0f, -1.0f}, {1.0f, 2.0f, 3.0f});
  EXPECT_FLOAT_EQ(c(0, 2), 6.0f);
  EXPECT_FLOAT_EQ(c(1, 0), -2.0f);
}

TEST(MatrixOps, ShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  EXPECT_THROW(matvec(a, Vector{1.0f}), std::invalid_argument);
}

TEST(Ops, SoftmaxSumsToOneAndIsStable) {
  const Vector p = softmax({1000.0f, 1001.0f, 999.0f});
  double total = 0.0;
  for (float v : p) {
    EXPECT_GT(v, 0.0f);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[0], p[2]);
}

TEST(Ops, LogSoftmaxConsistentWithSoftmax) {
  const Vector logits = {0.3f, -1.2f, 2.0f};
  const Vector p = softmax(logits);
  const Vector lp = log_softmax(logits);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(std::log(p[i]), lp[i], 1e-5);
  }
}

TEST(Ops, CrossEntropyGradientMatchesFiniteDifference) {
  const Vector logits = {0.5f, -0.25f, 1.5f};
  const std::size_t label = 2;
  const Vector grad = cross_entropy_grad(logits, label);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Vector plus = logits;
    Vector minus = logits;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd =
        (cross_entropy(plus, label) - cross_entropy(minus, label)) /
        (2.0 * eps);
    EXPECT_NEAR(grad[i], fd, 1e-3);
  }
}

TEST(Ops, SigmoidStableAtExtremes) {
  EXPECT_NEAR(sigmoid(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(sigmoid(-100.0f), 0.0f, 1e-6);
  EXPECT_FLOAT_EQ(sigmoid(0.0f), 0.5f);
}

TEST(Ops, ParseActivationRoundTrip) {
  for (Activation a :
       {Activation::kIdentity, Activation::kRelu, Activation::kTanh,
        Activation::kSigmoid, Activation::kLogSigmoid}) {
    EXPECT_EQ(parse_activation(activation_name(a)), a);
  }
  EXPECT_THROW(parse_activation("swish"), std::invalid_argument);
}

// ---- Parameterized sweep: derivative matches finite differences ----------

class ActivationGradTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradTest, DerivativeMatchesFiniteDifference) {
  const Activation a = GetParam();
  for (float x : {-3.0f, -1.0f, -0.1f, 0.1f, 0.7f, 2.5f}) {
    const float eps = 1e-3f;
    const double fd =
        (activate(a, x + eps) - activate(a, x - eps)) / (2.0 * eps);
    EXPECT_NEAR(activate_grad(a, x), fd, 2e-3) << activation_name(a) << " at "
                                               << x;
  }
}

TEST_P(ActivationGradTest, NonDecreasing) {
  const Activation a = GetParam();
  float prev = activate(a, -6.0f);
  for (float x = -5.9f; x < 6.0f; x += 0.1f) {
    const float y = activate(a, x);
    EXPECT_GE(y, prev - 1e-6f) << activation_name(a);
    prev = y;
  }
}

TEST_P(ActivationGradTest, ConcavityFlagMatchesSecondDifference) {
  const Activation a = GetParam();
  if (!is_globally_concave(a)) return;
  // For concave φ: φ(x+h) + φ(x-h) <= 2 φ(x).
  for (float x = -4.0f; x < 4.0f; x += 0.25f) {
    const float h = 0.5f;
    EXPECT_LE(activate(a, x + h) + activate(a, x - h),
              2.0f * activate(a, x) + 1e-6f)
        << activation_name(a) << " at " << x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kSigmoid,
                                           Activation::kLogSigmoid));

}  // namespace
}  // namespace advtext
