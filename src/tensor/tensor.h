// Minimal dense linear algebra used by the neural-network substrate.
//
// advtext deliberately does not depend on BLAS: the models in this repo are
// laptop-scale and a simple row-major Matrix with a blocked gemm is both
// fast enough and fully deterministic across platforms.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"

// Compiles a hot kernel twice, once for AVX2 and once for the baseline ISA,
// and lets the loader pick the build per CPU (an ifunc resolver). Both
// builds give the same bits: the avx2 target enables no FMA, the build
// turns contraction off (-ffp-contract=off, cmake/AdvtextToolchain.cmake),
// and per-lane IEEE mul/add/div and integer ops do not depend on the
// vector width. Empty where it cannot work: under Clang and off x86-64,
// and under TSan, whose runtime segfaults in an ifunc resolver before
// main(). See DESIGN.md §12, "Kernel notes".
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define ADVTEXT_AVX2_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define ADVTEXT_AVX2_CLONES
#endif

namespace advtext {

using Vector = std::vector<float>;

/// Row-major dense float matrix.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Builds from nested initializer lists (used heavily in tests).
  Matrix(std::initializer_list<std::initializer_list<float>> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  float& operator()(std::size_t r, std::size_t c) {
    ADVTEXT_DCHECK(r < rows_ && c < cols_)
        << "Matrix(" << r << ", " << c << ") on " << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    ADVTEXT_DCHECK(r < rows_ && c < cols_)
        << "Matrix(" << r << ", " << c << ") on " << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws std::out_of_range with the
  /// offending indices and the matrix shape. Active in every build type —
  /// use operator() on hot paths.
  float& at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw_at_out_of_range(r, c);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw_at_out_of_range(r, c);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  /// Copies row r into a Vector.
  Vector row_copy(std::size_t r) const;

  /// Overwrites row r with v (v.size() must equal cols()).
  void set_row(std::size_t r, const Vector& v);

  /// Sets every element to value.
  void fill(float value);

  /// Fills with N(0, stddev) values.
  void fill_normal(Rng& rng, float stddev);

  /// Fills with U(-bound, bound) values.
  void fill_uniform(Rng& rng, float bound);

  bool operator==(const Matrix& other) const = default;

 private:
  [[noreturn]] void throw_at_out_of_range(std::size_t r, std::size_t c) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// ---- Vector ops -----------------------------------------------------------

/// Dot product; sizes must match.
float dot(const Vector& a, const Vector& b);

/// Dot product over raw pointers of length n.
float dot(const float* a, const float* b, std::size_t n);

/// y += alpha * x.
void axpy(float alpha, const Vector& x, Vector& y);

/// Elementwise y = a + b.
Vector add(const Vector& a, const Vector& b);

/// Elementwise y = a - b.
Vector sub(const Vector& a, const Vector& b);

/// Elementwise scale.
Vector scale(const Vector& a, float alpha);

/// Euclidean norm.
float norm2(const Vector& a);

/// Euclidean norm over a raw pointer of length n.
float norm2(const float* a, std::size_t n);

// ---- Matrix ops -----------------------------------------------------------

/// y = A * x (A is rows x cols, x has cols entries).
Vector matvec(const Matrix& a, const Vector& x);

/// y = A^T * x (x has rows entries, result has cols entries).
Vector matvec_transposed(const Matrix& a, const Vector& x);

/// C = A * B. Blocked triple loop; throws on shape mismatch.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A * B^T over raw row-major buffers: A is arows x k, B is brows x k,
/// C is arows x brows. Each output element is one ascending-k dot(), so a
/// batched row is bit-identical to the per-candidate scalar path — this is
/// the primitive the batched swap evaluators build their "one gemm per
/// layer" on. Blocked over B's rows for locality; `b` may point into a
/// sub-range of a larger weight matrix (e.g. one GRU gate's row block).
void gemm_nt(const float* a, std::size_t arows, const float* b,
             std::size_t brows, std::size_t k, float* c);

/// Matrix wrapper over gemm_nt: C(i, j) = dot(a.row(i), b.row(j)).
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// A B operand of gemm_nt repacked once into the kernel's k-major tile
/// layout. gemm_nt repacks its B tile on every call; when the same weight
/// matrix is multiplied thousands of times (one recurrent gemm per
/// timestep of every batched suffix recurrence), packing it once per
/// rebase and calling gemm_nt_packed removes that per-call cost. Results
/// are bit-identical to gemm_nt / dot(): the pack only reorders storage,
/// each output element still accumulates in ascending-k order.
struct PackedB {
  std::vector<float> data;
  std::size_t brows = 0;
  std::size_t k = 0;
};

/// Pack b (brows x k, row-major) into `out` for gemm_nt_packed.
void gemm_pack_b(const float* b, std::size_t brows, std::size_t k,
                 PackedB& out);

/// C = A * B^T with B pre-packed by gemm_pack_b. Bit-identical to
/// gemm_nt(a, arows, b, brows, k, c).
void gemm_nt_packed(const float* a, std::size_t arows, const PackedB& b,
                    float* c);

/// C += alpha * x * y^T (rank-1 update; x has rows entries, y cols).
void add_outer(Matrix& c, float alpha, const Vector& x, const Vector& y);

/// Frobenius norm.
float frobenius_norm(const Matrix& a);

}  // namespace advtext
