// catalyst/linalg -- dense column-major matrix and vector types.
//
// The analysis pipeline manipulates "measurement matrices" whose columns are
// per-event measurement vectors.  Column-major storage keeps each event's
// vector contiguous, which is what the Householder QR kernels and the
// pivoting schemes in catalyst::core iterate over.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "linalg/error.hpp"

namespace catalyst::linalg {

using Vector = std::vector<double>;
using index_t = std::ptrdiff_t;

/// Dense, heap-allocated, column-major matrix of doubles.
///
/// Invariants:
///   * data_.size() == rows_ * cols_ at all times;
///   * element (i, j) lives at data_[j * rows_ + i].
///
/// The class is a regular value type: copyable, movable, equality-comparable
/// (exact element-wise comparison; use `max_abs_diff` for tolerant checks).
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a rows x cols matrix with every element set to `fill`.
  Matrix(index_t rows, index_t cols, double fill = 0.0);

  /// Adopts `data` as the column-major storage of a rows x cols matrix.
  /// Throws DimensionError unless data.size() == rows * cols.
  Matrix(index_t rows, index_t cols, std::vector<double> data);

  /// Creates a matrix from nested initializer lists, row by row:
  /// `Matrix{{1, 2}, {3, 4}}` is [[1,2],[3,4]].
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Builds a matrix column-by-column.  Every column must have equal length.
  static Matrix from_columns(const std::vector<Vector>& columns);

  /// The n x n identity.
  static Matrix identity(index_t n);

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  /// Unchecked element access (asserts in debug builds only).
  double& operator()(index_t i, index_t j) noexcept {
    return data_[static_cast<std::size_t>(j * rows_ + i)];
  }
  double operator()(index_t i, index_t j) const noexcept {
    return data_[static_cast<std::size_t>(j * rows_ + i)];
  }

  /// Checked element access; throws DimensionError when out of range.
  double& at(index_t i, index_t j);
  double at(index_t i, index_t j) const;

  /// Contiguous view of column j (length rows()).
  std::span<double> col(index_t j);
  std::span<const double> col(index_t j) const;

  /// Copies column j out into a Vector.
  Vector col_copy(index_t j) const;

  /// Copies row i out into a Vector.
  Vector row_copy(index_t i) const;

  /// Overwrites column j with `v` (must have length rows()).
  void set_col(index_t j, std::span<const double> v);

  /// Overwrites row i with `v` (must have length cols()).
  void set_row(index_t i, std::span<const double> v);

  /// Swaps columns j1 and j2 in place.
  void swap_cols(index_t j1, index_t j2);

  /// Returns the transpose as a new matrix.
  Matrix transposed() const;

  /// Returns the sub-block [r0, r0+nr) x [c0, c0+nc) as a new matrix.
  Matrix block(index_t r0, index_t c0, index_t nr, index_t nc) const;

  /// Returns a new matrix made of the given columns, in the given order.
  Matrix select_columns(std::span<const index_t> indices) const;

  /// Appends the columns of `other` (same row count) to the right.
  void append_columns(const Matrix& other);

  /// Raw storage access (column-major, rows()*cols() elements).
  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  // Element-wise arithmetic ------------------------------------------------
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;
  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix m, double s) { return m *= s; }
  friend Matrix operator*(double s, Matrix m) { return m *= s; }
  friend bool operator==(const Matrix& a, const Matrix& b);

  /// max_ij |a_ij - b_ij|; throws DimensionError on shape mismatch.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  void check_index(index_t i, index_t j) const;

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double> data_;
};

/// Streams a matrix in a compact bracketed text form (for diagnostics).
std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace catalyst::linalg
