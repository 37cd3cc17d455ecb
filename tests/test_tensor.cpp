// Unit tests for the tensor substrate: shapes, dense tensors, sparse rows.
#include <gtest/gtest.h>

#include "tensor/sparse_row.hpp"
#include "tensor/tensor.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace sparsetrain {
namespace {

TEST(Shape, SizeAndIndex) {
  const Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.size(), 120u);
  EXPECT_EQ(s.index(0, 0, 0, 0), 0u);
  EXPECT_EQ(s.index(1, 2, 3, 4), 119u);
  EXPECT_EQ(s.index(0, 1, 0, 0), 20u);
}

TEST(Shape, IndexBoundsChecked) {
  const Shape s{1, 1, 2, 2};
  EXPECT_THROW(s.index(0, 0, 2, 0), ContractError);
  EXPECT_THROW(s.index(1, 0, 0, 0), ContractError);
}

TEST(Shape, Helpers) {
  EXPECT_EQ(Shape::vec(7), (Shape{1, 1, 1, 7}));
  EXPECT_EQ(Shape::mat(2, 3), (Shape{1, 1, 2, 3}));
  EXPECT_EQ(Shape::chw(3, 4, 5), (Shape{1, 3, 4, 5}));
}

TEST(Tensor, ZeroInitialised) {
  Tensor t(Shape{1, 2, 2, 2});
  EXPECT_EQ(t.size(), 8u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ConstructWithDataValidatesSize) {
  EXPECT_NO_THROW(Tensor(Shape::vec(3), {1.0f, 2.0f, 3.0f}));
  EXPECT_THROW(Tensor(Shape::vec(4), {1.0f}), ContractError);
}

TEST(Tensor, AtAndRowAccess) {
  Tensor t(Shape{1, 2, 3, 4});
  t.at(0, 1, 2, 3) = 5.0f;
  EXPECT_EQ(t.at(0, 1, 2, 3), 5.0f);
  auto row = t.row(0, 1, 2);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_EQ(row[3], 5.0f);
  row[0] = 7.0f;
  EXPECT_EQ(t.at(0, 1, 2, 0), 7.0f);
}

TEST(Tensor, FlatIndexChecked) {
  Tensor t(Shape::vec(2));
  EXPECT_THROW(t[2], ContractError);
}

TEST(Tensor, FillAndZero) {
  Tensor t(Shape::vec(5));
  t.fill(3.0f);
  EXPECT_EQ(t.nnz(), 5u);
  t.zero();
  EXPECT_EQ(t.nnz(), 0u);
}

TEST(Tensor, AxpyAndScale) {
  Tensor a(Shape::vec(3), {1.0f, 2.0f, 3.0f});
  Tensor b(Shape::vec(3), {10.0f, 20.0f, 30.0f});
  a.axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  EXPECT_FLOAT_EQ(a[2], 18.0f);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a[0], 12.0f);
}

TEST(Tensor, AddShapeMismatchThrows) {
  Tensor a(Shape::vec(3));
  Tensor b(Shape::vec(4));
  EXPECT_THROW(a.add(b), ContractError);
}

TEST(Tensor, Reshape) {
  Tensor t(Shape{1, 1, 2, 6});
  t.reshape(Shape{1, 3, 2, 2});
  EXPECT_EQ(t.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_THROW(t.reshape(Shape::vec(5)), ContractError);
}

TEST(Tensor, DensityMatchesConstruction) {
  Rng rng(99);
  Tensor t(Shape{1, 4, 32, 32});
  t.fill_sparse_normal(rng, 0.3);
  EXPECT_NEAR(t.density(), 0.3, 0.03);
}

TEST(Tensor, FillNormalMoments) {
  Rng rng(13);
  Tensor t(Shape::vec(50000));
  t.fill_normal(rng, 1.0f, 2.0f);
  double sum = 0.0;
  for (float x : t.flat()) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(t.size()), 1.0, 0.05);
}

TEST(Tensor, AllcloseAndMaxAbsDiff) {
  Tensor a(Shape::vec(3), {1.0f, 2.0f, 3.0f});
  Tensor b(Shape::vec(3), {1.0f, 2.0f, 3.001f});
  EXPECT_NEAR(max_abs_diff(a, b), 0.001f, 1e-6f);
  EXPECT_TRUE(allclose(a, b, 0.01f));
  EXPECT_FALSE(allclose(a, b, 1e-5f));
}

TEST(SparseRow, CompressDecompressRoundTrip) {
  const std::vector<float> dense = {0.0f, 1.5f, 0.0f, 0.0f, -2.0f, 3.0f};
  const SparseRow row = compress_row(dense);
  EXPECT_EQ(row.length, 6u);
  EXPECT_EQ(row.nnz(), 3u);
  EXPECT_TRUE(row.valid());
  EXPECT_EQ(decompress_row(row), dense);
}

TEST(SparseRow, EmptyRow) {
  const SparseRow row = compress_row(std::vector<float>{});
  EXPECT_EQ(row.length, 0u);
  EXPECT_TRUE(row.empty());
  EXPECT_EQ(row.density(), 0.0);
  EXPECT_TRUE(decompress_row(row).empty());
}

TEST(SparseRow, AllZerosRow) {
  const SparseRow row = compress_row(std::vector<float>(8, 0.0f));
  EXPECT_EQ(row.nnz(), 0u);
  EXPECT_EQ(row.density(), 0.0);
}

TEST(SparseRow, DensityAndBytes) {
  const std::vector<float> dense = {1.0f, 0.0f, 2.0f, 0.0f};
  const SparseRow row = compress_row(dense);
  EXPECT_DOUBLE_EQ(row.density(), 0.5);
  // 2-byte descriptor + 1 bitmap byte (4 positions) + 2 values × 2 bytes.
  EXPECT_EQ(row.encoded_bytes(), 2u + 1u + 2u * 2u);
}

TEST(SparseRow, ValidRejectsMalformed) {
  SparseRow row;
  row.length = 4;
  row.offsets = {2, 1};  // not ascending
  row.values = {1.0f, 2.0f};
  EXPECT_FALSE(row.valid());
  row.offsets = {1, 5};  // out of range
  EXPECT_FALSE(row.valid());
  row.offsets = {1, 2};
  row.values = {1.0f, 0.0f};  // stored zero
  EXPECT_FALSE(row.valid());
  row.values = {1.0f, 2.0f};
  EXPECT_TRUE(row.valid());
}

}  // namespace
}  // namespace sparsetrain
