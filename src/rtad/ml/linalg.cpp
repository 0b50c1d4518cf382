#include "rtad/ml/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rtad::ml {

Matrix Matrix::randn(std::size_t rows, std::size_t cols, float stddev,
                     sim::Xoshiro256& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data_[i] = stddev * static_cast<float>(rng.normal());
  }
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Vector matvec(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec shape");
  Vector y(a.rows(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    float acc = 0.0f;
    const float* row = a.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul shape");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = a(i, k);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_at_b shape");
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = a(k, i);
      if (aki == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aki * b(k, j);
      }
    }
  }
  return c;
}

Matrix ridge_solve(Matrix a, float lambda, const Matrix& b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.rows() != n) {
    throw std::invalid_argument("ridge_solve shape");
  }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += lambda;

  // Cholesky: A = L L^T (in place, lower triangle).
  for (std::size_t j = 0; j < n; ++j) {
    float diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (diag <= 0.0f) throw std::runtime_error("matrix not positive definite");
    const float ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      float v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a(i, k) * a(j, k);
      a(i, j) = v / ljj;
    }
  }

  // Solve L Y = B, then L^T X = Y, column by column.
  Matrix x(n, b.cols());
  for (std::size_t col = 0; col < b.cols(); ++col) {
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      float v = b(i, col);
      for (std::size_t k = 0; k < i; ++k) v -= a(i, k) * y[k];
      y[i] = v / a(i, i);
    }
    for (std::size_t ii = n; ii-- > 0;) {
      float v = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) v -= a(k, ii) * x(k, col);
      x(ii, col) = v / a(ii, ii);
    }
  }
  return x;
}

float squared_distance(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("distance shape");
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void softmax(Vector& v) {
  if (v.empty()) return;
  const float mx = *std::max_element(v.begin(), v.end());
  float sum = 0.0f;
  for (float& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (float& x : v) x /= sum;
}

float sigmoid(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace rtad::ml
