#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace capes::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

/// Reference triple-loop GEMM.
Matrix reference_nn(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(k, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "index " << i;
  }
}

TEST(Matrix, BasicAccessors) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = -2.0f;
  EXPECT_EQ(m.row(0)[1], -2.0f);
}

TEST(Matrix, FillAndResize) {
  Matrix m(2, 2, 1.0f);
  m.fill(3.0f);
  EXPECT_EQ(m.at(1, 1), 3.0f);
  m.resize(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.at(2, 3), 0.0f);
}

TEST(MatMul, IdentityNn) {
  util::Rng rng(1);
  Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Matrix c;
  matmul_nn(a, eye, c);
  expect_matrix_near(c, a);
}

TEST(MatMul, KnownSmallProduct) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Matrix c;
  matmul_nn(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(MatMul, NnMatchesReference) {
  util::Rng rng(2);
  Matrix a = random_matrix(7, 13, rng);
  Matrix b = random_matrix(13, 5, rng);
  Matrix c;
  matmul_nn(a, b, c);
  expect_matrix_near(c, reference_nn(a, b));
}

TEST(MatMul, NtMatchesReference) {
  util::Rng rng(3);
  Matrix a = random_matrix(6, 9, rng);
  Matrix bt = random_matrix(4, 9, rng);  // b = bt^T is 9x4
  Matrix b(9, 4);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 4; ++j) b.at(i, j) = bt.at(j, i);
  }
  Matrix c;
  matmul_nt(a, bt, c);
  expect_matrix_near(c, reference_nn(a, b));
}

TEST(MatMul, TnMatchesReference) {
  util::Rng rng(4);
  Matrix at = random_matrix(9, 6, rng);  // a = at^T is 6x9
  Matrix a(6, 9);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 9; ++j) a.at(i, j) = at.at(j, i);
  }
  Matrix b = random_matrix(9, 3, rng);
  Matrix c;
  matmul_tn(at, b, c);
  expect_matrix_near(c, reference_nn(a, b));
}

/// The documented nt order: lane l sums the products p = l, l+8, ... in
/// ascending p, then ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)).
float lane_dot(const float* a, const float* b, std::size_t k) {
  float lane[8] = {};
  for (std::size_t p = 0; p < k; ++p) lane[p % 8] += a[p] * b[p];
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
         ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

void expect_matrix_eq(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "index " << i;
  }
}

/// Batch x (in -> out) Dense-layer shapes: the DQN's own (8/16/32-domain
/// observations into 128 hidden units, 128 -> 128, and 128 into 33/65/129
/// actions), plus odd sizes whose k, row count and column count are not
/// multiples of the 8 lanes or the 4/8-row blocks, big enough to fan out.
struct LayerShape {
  std::size_t batch, in, out;
};
const LayerShape kLayerShapes[] = {
    {32, 1800, 128}, {32, 3600, 128}, {32, 7200, 128}, {32, 128, 128},
    {32, 128, 33},   {32, 128, 65},   {32, 128, 129},  {1, 1800, 128},
    {37, 263, 45},   {29, 1801, 13},  {3, 5, 7},       {70, 97, 131},
};

// Pooled kernels are bit-identical to serial ones at every thread count
// (row partitioning never changes an element's summation order), and
// match the documented order exactly.
TEST(MatMul, ThreadPoolMatchesSerial) {
  util::ThreadPool pool1(1), pool3(3), pool7(7);
  util::ThreadPool* const pools[] = {nullptr, &pool1, &pool3, &pool7};
  util::Rng rng(5);
  for (const LayerShape& s : kLayerShapes) {
    SCOPED_TRACE(std::to_string(s.batch) + "x" + std::to_string(s.in) + "->" +
                 std::to_string(s.out));
    const Matrix x = random_matrix(s.batch, s.in, rng);
    const Matrix w = random_matrix(s.out, s.in, rng);
    const Matrix g = random_matrix(s.batch, s.out, rng);
    const Matrix bias = random_matrix(1, s.out, rng);

    Matrix nt_ref(s.batch, s.out), nn_ref(s.batch, s.in), tn_ref(s.out, s.in);
    for (std::size_t i = 0; i < s.batch; ++i) {
      for (std::size_t j = 0; j < s.out; ++j) {
        nt_ref.at(i, j) = lane_dot(x.row(i), w.row(j), s.in) + bias.at(0, j);
      }
      for (std::size_t j = 0; j < s.in; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < s.out; ++p) acc += g.at(i, p) * w.at(p, j);
        nn_ref.at(i, j) = acc;
      }
    }
    for (std::size_t i = 0; i < s.out; ++i) {
      for (std::size_t j = 0; j < s.in; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < s.batch; ++p) acc += g.at(p, i) * x.at(p, j);
        tn_ref.at(i, j) = acc;
      }
    }

    for (util::ThreadPool* pool : pools) {
      SCOPED_TRACE(pool == nullptr ? 0 : pool->size());
      Matrix nt(s.batch, s.out), nn, tn, tn_acc = tn_ref;
      matmul_nt(x.view(), w.view(), bias.data(), nt.view(), pool);
      expect_matrix_eq(nt, nt_ref);
      matmul_nn(g, w, nn, pool);
      expect_matrix_eq(nn, nn_ref);
      matmul_tn(g, x, tn, pool);
      expect_matrix_eq(tn, tn_ref);
      // Accumulating continues each element's chain from its old value.
      matmul_tn(g.view(), x.view(), tn_acc.view(), /*accumulate=*/true, pool);
      for (std::size_t i = 0; i < s.out; ++i) {
        for (std::size_t j = 0; j < s.in; ++j) {
          float acc = tn_ref.at(i, j);
          for (std::size_t p = 0; p < s.batch; ++p) {
            acc += g.at(p, i) * x.at(p, j);
          }
          ASSERT_EQ(tn_acc.at(i, j), acc) << i << "," << j;
        }
      }
    }
  }
}

TEST(MatMul, NtBiasIsAddedLast) {
  util::Rng rng(9);
  const Matrix a = random_matrix(5, 11, rng);
  const Matrix b = random_matrix(3, 11, rng);
  const std::vector<float> bias = {0.5f, -1.25f, 3.0f};
  Matrix plain, with_bias(5, 3);
  matmul_nt(a, b, plain);
  matmul_nt(a.view(), b.view(), bias.data(), with_bias.view());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(with_bias.at(i, j), plain.at(i, j) + bias[j]);
    }
  }
}

TEST(MatMul, OutputOverwritesPreviousContents) {
  util::Rng rng(6);
  Matrix a = random_matrix(3, 3, rng);
  Matrix b = random_matrix(3, 3, rng);
  Matrix c(10, 10, 99.0f);
  matmul_nn(a, b, c);
  EXPECT_EQ(c.rows(), 3u);
  expect_matrix_near(c, reference_nn(a, b));
}

TEST(MatrixHelpers, ColumnSums) {
  Matrix m(3, 2);
  m.at(0, 0) = 1;
  m.at(1, 0) = 2;
  m.at(2, 0) = 3;
  m.at(0, 1) = -1;
  std::vector<float> sums;
  column_sums(m, sums);
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_FLOAT_EQ(sums[0], 6.0f);
  EXPECT_FLOAT_EQ(sums[1], -1.0f);
}

class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, AllVariantsAgree) {
  const auto [n, k, m] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 1000 + k * 10 + m));
  Matrix a = random_matrix(n, k, rng);
  Matrix b = random_matrix(k, m, rng);
  const Matrix ref = reference_nn(a, b);

  Matrix c_nn;
  matmul_nn(a, b, c_nn);
  expect_matrix_near(c_nn, ref, 1e-3f);

  Matrix bt(m, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < m; ++j) bt.at(j, i) = b.at(i, j);
  }
  Matrix c_nt;
  matmul_nt(a, bt, c_nt);
  expect_matrix_near(c_nt, ref, 1e-3f);

  Matrix at(k, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) at.at(j, i) = a.at(i, j);
  }
  Matrix c_tn;
  matmul_tn(at, b, c_tn);
  expect_matrix_near(c_tn, ref, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 1),
                      std::make_tuple(2, 3, 4), std::make_tuple(16, 16, 16),
                      std::make_tuple(32, 7, 9), std::make_tuple(5, 64, 3),
                      std::make_tuple(33, 17, 65)));

}  // namespace
}  // namespace capes::nn
