// Dense row-major matrix — the minimal linear-algebra substrate for the
// MLP.  Deliberately small: the networks in this system are
// control-sized MLPs (tens of units), not the ResNet-152 perception models,
// whose cost enters the experiments through their measured latency/power
// characterization (paper section VI-A), not through actual inference.
#pragma once

#include <cstddef>
#include <vector>

namespace seo::nn {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Reshapes to rows x cols without touching existing values beyond the
  /// resize; allocation-free once capacity exists.  Unlike the
  /// constructor, zero rows are allowed (an empty batch).
  void resize(std::size_t rows, std::size_t cols);

  /// y = A x  (x.size() must equal cols()).
  Vector matvec(const Vector& x) const;
  /// y = A x written into `y` (resized to rows(); no allocation once `y`
  /// has capacity).  `y` must not alias `x` — the control-path variant.
  void matvec_into(const Vector& x, Vector& y) const;
  /// Batched matvec: `x` holds one sample per ROW (x.cols() == cols()),
  /// and `y` receives one output per row (y = x * A^T, resized to
  /// x.rows() x rows()).  Each output row is computed with the exact
  /// per-element accumulation order of matvec_into, so batching a set of
  /// samples is bit-identical to calling matvec_into on each — the
  /// invariant the batched-MLP tests lock.  `y` must not alias `x`.
  void matmul_into(const Matrix& x, Matrix& y) const;
  /// y = A^T x (x.size() must equal rows()); used by backprop.
  Vector matvec_transposed(const Vector& x) const;
  /// In-place variant of matvec_transposed; `y` must not alias `x`.
  void matvec_transposed_into(const Vector& x, Vector& y) const;

  /// A += scale * (col_vec * row_vec^T); the outer-product gradient update.
  void add_outer(const Vector& col_vec, const Vector& row_vec, double scale);

  void fill(double v);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Elementwise helpers on Vector.  The `_into` forms write into `out`
/// (resized to match; allocation-free once capacity exists) and tolerate
/// `out` aliasing either input; the value-returning forms delegate to them.
Vector add(const Vector& a, const Vector& b);
void add_into(const Vector& a, const Vector& b, Vector& out);
Vector sub(const Vector& a, const Vector& b);
void sub_into(const Vector& a, const Vector& b, Vector& out);
Vector hadamard(const Vector& a, const Vector& b);
void hadamard_into(const Vector& a, const Vector& b, Vector& out);
void axpy(double alpha, const Vector& x, Vector& y);  ///< y += alpha*x
double dot(const Vector& a, const Vector& b);
double l2_norm(const Vector& a);

}  // namespace seo::nn
