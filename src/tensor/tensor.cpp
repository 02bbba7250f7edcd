#include "src/tensor/tensor.h"

#include "src/util/check.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace advtext {

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> values) {
  rows_ = values.size();
  cols_ = rows_ == 0 ? 0 : values.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : values) {
    ADVTEXT_CHECK_SHAPE(row.size() == cols_) << "Matrix: ragged initializer";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::throw_at_out_of_range(std::size_t r, std::size_t c) const {
  std::ostringstream oss;
  oss << "Matrix::at(" << r << ", " << c << "): out of range for " << rows_
      << "x" << cols_ << " matrix";
  throw std::out_of_range(oss.str());
}

Vector Matrix::row_copy(std::size_t r) const {
  ADVTEXT_CHECK_SHAPE(r < rows_)
      << "row_copy: row " << r << " out of range for " << rows_ << " rows";
  return Vector(row(r), row(r) + cols_);
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  ADVTEXT_CHECK_SHAPE(r < rows_)
      << "set_row: row " << r << " out of range for " << rows_ << " rows";
  ADVTEXT_CHECK_SHAPE(v.size() == cols_)
      << "set_row: got " << v.size() << " values, want " << cols_;
  std::copy(v.begin(), v.end(), row(r));
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::fill_normal(Rng& rng, float stddev) {
  for (float& v : data_) v = static_cast<float>(rng.normal(0.0, stddev));
}

void Matrix::fill_uniform(Rng& rng, float bound) {
  for (float& v : data_) v = static_cast<float>(rng.uniform(-bound, bound));
}

float dot(const Vector& a, const Vector& b) {
  ADVTEXT_CHECK_SHAPE(a.size() == b.size())
      << "dot: " << a.size() << " vs " << b.size();
  return dot(a.data(), b.data(), a.size());
}

float dot(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(float alpha, const Vector& x, Vector& y) {
  ADVTEXT_CHECK_SHAPE(x.size() == y.size())
      << "axpy: " << x.size() << " vs " << y.size();
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vector add(const Vector& a, const Vector& b) {
  ADVTEXT_CHECK_SHAPE(a.size() == b.size())
      << "add: " << a.size() << " vs " << b.size();
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector sub(const Vector& a, const Vector& b) {
  ADVTEXT_CHECK_SHAPE(a.size() == b.size())
      << "sub: " << a.size() << " vs " << b.size();
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector scale(const Vector& a, float alpha) {
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = alpha * a[i];
  return out;
}

float norm2(const Vector& a) { return norm2(a.data(), a.size()); }

float norm2(const float* a, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * a[i];
  return std::sqrt(acc);
}

Vector matvec(const Matrix& a, const Vector& x) {
  ADVTEXT_CHECK_SHAPE(a.cols() == x.size())
      << "matvec: A is " << a.rows() << "x" << a.cols() << ", x has "
      << x.size() << " entries";
  Vector y(a.rows(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    y[r] = dot(a.row(r), x.data(), a.cols());
  }
  return y;
}

Vector matvec_transposed(const Matrix& a, const Vector& x) {
  ADVTEXT_CHECK_SHAPE(a.rows() == x.size())
      << "matvec_transposed: A is " << a.rows() << "x" << a.cols()
      << ", x has " << x.size() << " entries";
  Vector y(a.cols(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const float xr = x[r];
    const float* row = a.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += xr * row[c];
  }
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  ADVTEXT_CHECK_SHAPE(a.cols() == b.rows())
      << "matmul: A is " << a.rows() << "x" << a.cols() << ", B is "
      << b.rows() << "x" << b.cols();
  Matrix c(a.rows(), b.cols());
  constexpr std::size_t kBlock = 64;
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, a.rows());
    for (std::size_t k0 = 0; k0 < a.cols(); k0 += kBlock) {
      const std::size_t k1 = std::min(k0 + kBlock, a.cols());
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t k = k0; k < k1; ++k) {
          const float aik = a(i, k);
          const float* brow = b.row(k);
          float* crow = c.row(i);
          for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
  return c;
}

namespace {

// Width of the packed gemm micro-kernel: kNr independent ascending-k
// accumulator chains run side by side, one AVX2 register (two SSE2 ones).
// Per lane the mul/add sequence is identical to dot(): the build turns
// contraction off and neither clone enables FMA, so no path can fuse a
// multiply-add the other does not. Across lanes the chains are
// independent, which is what lets them vectorize and hide the float-add
// latency that makes a lone dot() latency-bound.
constexpr std::size_t kNr = 8;

// C = A * Bt^T where `tiles` holds ceil(brows/kNr) k-major tiles of kNr
// columns each, trailing lanes zero-padded (padded lanes are computed but
// never stored, so the padding value is irrelevant to the output).
//
// Rows of A go through in blocks of four: four independent accumulator
// rows, so the AVX2 clone has four add chains in flight instead of
// waiting on one (the baseline clone, with two SSE registers per row,
// loses ~15% on it; DESIGN.md §12). The block is written out row by row
// because GCC at -O2 keeps named accumulators in registers but spills an
// acc[4][kNr] array. Every C(i, j) is the same ascending-k chain from 0.0f
// whether its row falls in a block or in the 1-row remainder.
ADVTEXT_AVX2_CLONES
void gemm_nt_tiled(const float* a, std::size_t arows, const float* tiles,
                   std::size_t brows, std::size_t k, float* c) {
  for (std::size_t j0 = 0; j0 < brows; j0 += kNr) {
    const float* tile = tiles + (j0 / kNr) * k * kNr;
    const std::size_t lanes = std::min(kNr, brows - j0);
    std::size_t i = 0;
    for (; i + 4 <= arows; i += 4) {
      const float* a0 = a + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float acc0[kNr] = {0.0f};
      float acc1[kNr] = {0.0f};
      float acc2[kNr] = {0.0f};
      float acc3[kNr] = {0.0f};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* bt = tile + kk * kNr;
        const float v0 = a0[kk];
        const float v1 = a1[kk];
        const float v2 = a2[kk];
        const float v3 = a3[kk];
        for (std::size_t j = 0; j < kNr; ++j) {
          acc0[j] += v0 * bt[j];
          acc1[j] += v1 * bt[j];
          acc2[j] += v2 * bt[j];
          acc3[j] += v3 * bt[j];
        }
      }
      float* ci = c + i * brows + j0;
      for (std::size_t j = 0; j < lanes; ++j) {
        ci[j] = acc0[j];
        ci[brows + j] = acc1[j];
        ci[2 * brows + j] = acc2[j];
        ci[3 * brows + j] = acc3[j];
      }
    }
    for (; i < arows; ++i) {
      const float* ai = a + i * k;
      float acc[kNr] = {0.0f};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ai[kk];
        const float* bt = tile + kk * kNr;
        for (std::size_t j = 0; j < kNr; ++j) acc[j] += av * bt[j];
      }
      float* ci = c + i * brows + j0;
      for (std::size_t j = 0; j < lanes; ++j) ci[j] = acc[j];
    }
  }
}

void pack_b_tiles(const float* b, std::size_t brows, std::size_t k,
                  float* tiles) {
  for (std::size_t j0 = 0; j0 < brows; j0 += kNr) {
    float* tile = tiles + (j0 / kNr) * k * kNr;
    const std::size_t lanes = std::min(kNr, brows - j0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < lanes; ++j) {
        tile[kk * kNr + j] = b[(j0 + j) * k + kk];
      }
      for (std::size_t j = lanes; j < kNr; ++j) tile[kk * kNr + j] = 0.0f;
    }
  }
}

std::size_t tiled_size(std::size_t brows, std::size_t k) {
  return ((brows + kNr - 1) / kNr) * k * kNr;
}

}  // namespace

void gemm_nt(const float* a, std::size_t arows, const float* b,
             std::size_t brows, std::size_t k, float* c) {
  // Each C(i, j) is a single ascending-k dot(): the accumulation order is
  // exactly the scalar path's, so batching never changes a bit.
  if (arows < 4 && brows < kNr) {
    // Tiny problems cannot amortise the pack; the dot() loop is bit-exact
    // with the kernel, so routing by size never changes an output.
    for (std::size_t i = 0; i < arows; ++i) {
      const float* ai = a + i * k;
      float* ci = c + i * brows;
      for (std::size_t j = 0; j < brows; ++j) {
        ci[j] = dot(ai, b + j * k, k);
      }
    }
    return;
  }
  static thread_local std::vector<float> scratch;
  scratch.resize(tiled_size(brows, k));
  pack_b_tiles(b, brows, k, scratch.data());
  gemm_nt_tiled(a, arows, scratch.data(), brows, k, c);
}

void gemm_pack_b(const float* b, std::size_t brows, std::size_t k,
                 PackedB& out) {
  out.brows = brows;
  out.k = k;
  out.data.resize(tiled_size(brows, k));
  pack_b_tiles(b, brows, k, out.data.data());
}

void gemm_nt_packed(const float* a, std::size_t arows, const PackedB& b,
                    float* c) {
  gemm_nt_tiled(a, arows, b.data.data(), b.brows, b.k, c);
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  ADVTEXT_CHECK_SHAPE(a.cols() == b.cols())
      << "matmul_nt: A is " << a.rows() << "x" << a.cols() << ", B is "
      << b.rows() << "x" << b.cols();
  Matrix c(a.rows(), b.rows());
  gemm_nt(a.data(), a.rows(), b.data(), b.rows(), a.cols(), c.data());
  return c;
}

void add_outer(Matrix& c, float alpha, const Vector& x, const Vector& y) {
  ADVTEXT_CHECK_SHAPE(c.rows() == x.size() && c.cols() == y.size())
      << "add_outer: C is " << c.rows() << "x" << c.cols() << ", x has "
      << x.size() << " entries, y has " << y.size();
  for (std::size_t r = 0; r < c.rows(); ++r) {
    const float ax = alpha * x[r];
    float* row = c.row(r);
    for (std::size_t j = 0; j < c.cols(); ++j) row[j] += ax * y[j];
  }
}

float frobenius_norm(const Matrix& a) { return norm2(a.data(), a.size()); }

}  // namespace advtext
