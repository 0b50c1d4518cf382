// Minimal dense linear algebra for training the anomaly models.
//
// Row-major single-precision matrices; the only solver is a Cholesky-based
// SPD solve, which is all ridge regression (ELM output weights) needs.
// Training runs on the host (the paper trains offline and deploys the
// trained model to MCM memory), so clarity beats peak FLOPS here.
#pragma once

#include <cstddef>
#include <vector>

#include "rtad/sim/rng.hpp"

namespace rtad::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  const std::vector<float>& storage() const noexcept { return data_; }

  /// Gaussian init scaled by `stddev` (deterministic via the given RNG).
  static Matrix randn(std::size_t rows, std::size_t cols, float stddev,
                      sim::Xoshiro256& rng);

  Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

using Vector = std::vector<float>;

/// y = A x
Vector matvec(const Matrix& a, const Vector& x);
/// C = A B
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T B  (avoids materializing the transpose)
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// Solve (A + lambda I) X = B for SPD A, via Cholesky. A is n x n,
/// B is n x m; returns X (n x m). Throws if A is not positive definite.
Matrix ridge_solve(Matrix a, float lambda, const Matrix& b);

float squared_distance(const Vector& a, const Vector& b);

/// Numerically stable softmax (in place).
void softmax(Vector& v);

float sigmoid(float x) noexcept;

}  // namespace rtad::ml
