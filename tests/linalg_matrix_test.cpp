// Unit tests for catalyst::linalg::Matrix.
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace catalyst::linalg {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, FillConstructor) {
  Matrix m(3, 2, 7.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      EXPECT_EQ(m(i, j), 7.5);
    }
  }
}

TEST(Matrix, NegativeDimensionThrows) {
  EXPECT_THROW(Matrix(-1, 2), ArgumentError);
  EXPECT_THROW(Matrix(2, -1), ArgumentError);
}

TEST(Matrix, InitializerListIsRowMajorSemantics) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(0, 2), 3);
  EXPECT_EQ(m(1, 0), 4);
  EXPECT_EQ(m(1, 2), 6);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), DimensionError);
}

TEST(Matrix, ColumnMajorStorage) {
  Matrix m{{1, 2}, {3, 4}};
  auto d = m.data();
  // Column 0 = (1, 3), column 1 = (2, 4).
  EXPECT_EQ(d[0], 1);
  EXPECT_EQ(d[1], 3);
  EXPECT_EQ(d[2], 2);
  EXPECT_EQ(d[3], 4);
}

TEST(Matrix, FromColumnsAndColCopy) {
  Matrix m = Matrix::from_columns({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.col_copy(0), (Vector{1, 2, 3}));
  EXPECT_EQ(m.col_copy(1), (Vector{4, 5, 6}));
}

TEST(Matrix, AdoptsColumnMajorStorageOfTheDeclaredShape) {
  const Matrix m(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m, (Matrix{{1, 3, 5}, {2, 4, 6}}));
  EXPECT_THROW(Matrix(2, 2, std::vector<double>{1, 2, 3}), DimensionError);
  EXPECT_EQ(Matrix(4, 0, std::vector<double>{}).rows(), 4);
}

TEST(Matrix, FromColumnsRejectsRagged) {
  EXPECT_THROW(Matrix::from_columns({{1, 2}, {3}}), DimensionError);
}

TEST(Matrix, Identity) {
  Matrix i3 = Matrix::identity(3);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      EXPECT_EQ(i3(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), DimensionError);
  EXPECT_THROW(m.at(0, 2), DimensionError);
  EXPECT_THROW(m.at(-1, 0), DimensionError);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, RowCopy) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.row_copy(1), (Vector{4, 5, 6}));
  EXPECT_THROW(m.row_copy(2), DimensionError);
}

TEST(Matrix, SetColAndSetRow) {
  Matrix m(2, 2);
  m.set_col(0, Vector{1, 2});
  m.set_row(0, Vector{9, 8});
  EXPECT_EQ(m(0, 0), 9);
  EXPECT_EQ(m(0, 1), 8);
  EXPECT_EQ(m(1, 0), 2);
  Vector wrong{1, 2, 3};
  EXPECT_THROW(m.set_col(0, wrong), DimensionError);
  EXPECT_THROW(m.set_row(0, wrong), DimensionError);
}

TEST(Matrix, SwapCols) {
  Matrix m{{1, 2}, {3, 4}};
  m.swap_cols(0, 1);
  EXPECT_EQ(m(0, 0), 2);
  EXPECT_EQ(m(1, 0), 4);
  EXPECT_EQ(m(0, 1), 1);
  m.swap_cols(1, 1);  // no-op
  EXPECT_EQ(m(0, 1), 1);
}

TEST(Matrix, Transposed) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  for (index_t i = 0; i < 2; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      EXPECT_EQ(m(i, j), t(j, i));
    }
  }
}

TEST(Matrix, Block) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  Matrix b = m.block(1, 1, 2, 2);
  EXPECT_EQ(b, (Matrix{{5, 6}, {8, 9}}));
  EXPECT_THROW(m.block(2, 2, 2, 2), DimensionError);
}

TEST(Matrix, SelectColumns) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  std::vector<index_t> idx{2, 0};
  Matrix s = m.select_columns(idx);
  EXPECT_EQ(s, (Matrix{{3, 1}, {6, 4}}));
  std::vector<index_t> bad{3};
  EXPECT_THROW(m.select_columns(bad), DimensionError);
}

TEST(Matrix, AppendColumns) {
  Matrix m{{1}, {2}};
  Matrix n{{3, 4}, {5, 6}};
  m.append_columns(n);
  EXPECT_EQ(m, (Matrix{{1, 3, 4}, {2, 5, 6}}));
  Matrix wrong(3, 1);
  EXPECT_THROW(m.append_columns(wrong), DimensionError);
}

TEST(Matrix, AppendColumnsToEmpty) {
  Matrix m;
  Matrix n{{1, 2}};
  m.append_columns(n);
  EXPECT_EQ(m, n);
}

TEST(Matrix, Arithmetic) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  EXPECT_EQ(a + b, (Matrix{{11, 22}, {33, 44}}));
  EXPECT_EQ(b - a, (Matrix{{9, 18}, {27, 36}}));
  EXPECT_EQ(a * 2.0, (Matrix{{2, 4}, {6, 8}}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  Matrix c(1, 2);
  EXPECT_THROW(a += c, DimensionError);
  EXPECT_THROW(a -= c, DimensionError);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 2.5}, {3, 4}};
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 0.5);
  Matrix c(1, 2);
  EXPECT_THROW(Matrix::max_abs_diff(a, c), DimensionError);
}

TEST(Matrix, StreamOutputIsNonEmpty) {
  Matrix m{{1, 2}, {3, 4}};
  std::ostringstream os;
  os << m;
  EXPECT_NE(os.str().find("1"), std::string::npos);
  EXPECT_NE(os.str().find("4"), std::string::npos);
}

}  // namespace
}  // namespace catalyst::linalg
