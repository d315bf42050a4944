#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "core/contract.hpp"

namespace catalyst::linalg {

namespace {

[[noreturn]] void throw_shape(const char* op, index_t ar, index_t ac,
                              index_t br, index_t bc) {
  std::ostringstream os;
  os << op << ": incompatible shapes " << ar << "x" << ac << " vs " << br
     << "x" << bc;
  throw DimensionError(os.str());
}

}  // namespace

Matrix::Matrix(index_t rows, index_t cols, double fill)
    : rows_(rows), cols_(cols) {
  CATALYST_REQUIRE_AS(rows >= 0 && cols >= 0, ArgumentError,
                      "Matrix: negative dimension");
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
               fill);
}

Matrix::Matrix(index_t rows, index_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  CATALYST_REQUIRE_AS(rows >= 0 && cols >= 0, ArgumentError,
                      "Matrix: negative dimension");
  CATALYST_REQUIRE_AS(data_.size() == static_cast<std::size_t>(rows) *
                                          static_cast<std::size_t>(cols),
                      DimensionError, "Matrix: storage size != rows * cols");
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<index_t>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<index_t>(rows.begin()->size());
  data_.assign(static_cast<std::size_t>(rows_ * cols_), 0.0);
  index_t i = 0;
  for (const auto& row : rows) {
    if (static_cast<index_t>(row.size()) != cols_) {
      throw DimensionError("Matrix: ragged initializer list");
    }
    index_t j = 0;
    for (double v : row) {
      (*this)(i, j) = v;
      ++j;
    }
    ++i;
  }
}

Matrix Matrix::from_columns(const std::vector<Vector>& columns) {
  if (columns.empty()) return {};
  const auto nrows = static_cast<index_t>(columns.front().size());
  Matrix m(nrows, static_cast<index_t>(columns.size()));
  for (index_t j = 0; j < m.cols_; ++j) {
    const Vector& c = columns[static_cast<std::size_t>(j)];
    if (static_cast<index_t>(c.size()) != nrows) {
      throw DimensionError("from_columns: columns have differing lengths");
    }
    m.set_col(j, c);
  }
  return m;
}

Matrix Matrix::identity(index_t n) {
  Matrix m(n, n);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::check_index(index_t i, index_t j) const {
  if (i < 0 || i >= rows_ || j < 0 || j >= cols_) {
    std::ostringstream os;
    os << "Matrix::at(" << i << ", " << j << "): out of range for " << rows_
       << "x" << cols_;
    throw DimensionError(os.str());
  }
}

double& Matrix::at(index_t i, index_t j) {
  check_index(i, j);
  return (*this)(i, j);
}

double Matrix::at(index_t i, index_t j) const {
  check_index(i, j);
  return (*this)(i, j);
}

std::span<double> Matrix::col(index_t j) {
  CATALYST_REQUIRE_AS(j >= 0 && j < cols_, DimensionError,
                      "Matrix::col: out of range");
  return std::span<double>(data_.data() + j * rows_,
                           static_cast<std::size_t>(rows_));
}

std::span<const double> Matrix::col(index_t j) const {
  CATALYST_REQUIRE_AS(j >= 0 && j < cols_, DimensionError,
                      "Matrix::col: out of range");
  return std::span<const double>(data_.data() + j * rows_,
                                 static_cast<std::size_t>(rows_));
}

Vector Matrix::col_copy(index_t j) const {
  auto c = col(j);
  return Vector(c.begin(), c.end());
}

Vector Matrix::row_copy(index_t i) const {
  if (i < 0 || i >= rows_) throw DimensionError("Matrix::row_copy: range");
  Vector r(static_cast<std::size_t>(cols_));
  for (index_t j = 0; j < cols_; ++j) r[static_cast<std::size_t>(j)] = (*this)(i, j);
  return r;
}

void Matrix::set_col(index_t j, std::span<const double> v) {
  CATALYST_REQUIRE_AS(static_cast<index_t>(v.size()) == rows_,
                      DimensionError, "Matrix::set_col: wrong length");
  std::ranges::copy(v, col(j).begin());
}

void Matrix::set_row(index_t i, std::span<const double> v) {
  CATALYST_REQUIRE_AS(i >= 0 && i < rows_, DimensionError,
                      "Matrix::set_row: range");
  CATALYST_REQUIRE_AS(static_cast<index_t>(v.size()) == cols_,
                      DimensionError, "Matrix::set_row: wrong length");
  for (index_t j = 0; j < cols_; ++j) {
    (*this)(i, j) = v[static_cast<std::size_t>(j)];
  }
}

void Matrix::swap_cols(index_t j1, index_t j2) {
  if (j1 == j2) return;
  auto c1 = col(j1);
  auto c2 = col(j2);
  std::swap_ranges(c1.begin(), c1.end(), c2.begin());
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t i = 0; i < rows_; ++i) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

Matrix Matrix::block(index_t r0, index_t c0, index_t nr, index_t nc) const {
  CATALYST_REQUIRE_AS(r0 >= 0 && c0 >= 0 && nr >= 0 && nc >= 0 &&
                          r0 + nr <= rows_ && c0 + nc <= cols_,
                      DimensionError, "Matrix::block: range out of bounds");
  Matrix b(nr, nc);
  for (index_t j = 0; j < nc; ++j) {
    for (index_t i = 0; i < nr; ++i) {
      b(i, j) = (*this)(r0 + i, c0 + j);
    }
  }
  return b;
}

Matrix Matrix::select_columns(std::span<const index_t> indices) const {
  Matrix s(rows_, static_cast<index_t>(indices.size()));
  for (index_t j = 0; j < s.cols_; ++j) {
    const index_t src = indices[static_cast<std::size_t>(j)];
    CATALYST_REQUIRE_AS(src >= 0 && src < cols_, DimensionError,
                        "select_columns: index out of range");
    s.set_col(j, col(src));
  }
  return s;
}

void Matrix::append_columns(const Matrix& other) {
  if (empty()) {
    *this = other;
    return;
  }
  if (other.rows_ != rows_) {
    throw_shape("append_columns", rows_, cols_, other.rows_, other.cols_);
  }
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  cols_ += other.cols_;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rhs.rows_ != rows_ || rhs.cols_ != cols_) {
    throw_shape("operator+=", rows_, cols_, rhs.rows_, rhs.cols_);
  }
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rhs.rows_ != rows_ || rhs.cols_ != cols_) {
    throw_shape("operator-=", rows_, cols_, rhs.rows_, rhs.cols_);
  }
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& v : data_) v *= s;
  return *this;
}

bool operator==(const Matrix& a, const Matrix& b) {
  return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_) {
    throw_shape("max_abs_diff", a.rows_, a.cols_, b.rows_, b.cols_);
  }
  double d = 0.0;
  for (std::size_t k = 0; k < a.data_.size(); ++k) {
    d = std::max(d, std::fabs(a.data_[k] - b.data_[k]));
  }
  return d;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "[";
  for (index_t i = 0; i < m.rows(); ++i) {
    os << (i == 0 ? "[" : " [");
    for (index_t j = 0; j < m.cols(); ++j) {
      os << m(i, j) << (j + 1 < m.cols() ? ", " : "");
    }
    os << "]" << (i + 1 < m.rows() ? "\n" : "");
  }
  return os << "]";
}

}  // namespace catalyst::linalg
