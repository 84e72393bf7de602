#include "nn/matrix.hpp"

#include <algorithm>
#include <type_traits>

#include "util/thread_pool.hpp"

namespace capes::nn {

namespace {

/// Lanes of the fixed-order partial sums (see matrix.hpp).
constexpr std::size_t kLanes = 8;

/// Below this many multiply-adds a GEMM runs on the calling thread: the
/// pool's wake-up and join cost more than the rows would save.
constexpr std::size_t kParallelMinMacs = std::size_t{1} << 18;

/// Run fn(begin, end) over [0, n) in row blocks of `block` rows, fanned out
/// over the pool when the call is big enough. Results never depend on the
/// split: every output element is reduced the same way wherever its row
/// lands. Templated (not std::function) so no closure reaches the heap.
template <typename Fn>
void for_row_blocks(std::size_t n, std::size_t block, std::size_t macs,
                    util::ThreadPool* pool, const Fn& fn) {
  const std::size_t blocks = (n + block - 1) / block;
  if (pool != nullptr && blocks > 1 && macs >= kParallelMinMacs) {
    pool->parallel_for(blocks, [&](std::size_t b) {
      fn(b * block, std::min(n, b * block + block));
    });
  } else {
    fn(0, n);
  }
}

float combine_lanes(const float* l) {
  return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

/// out[jb] = lane-split dot(a, b + jb*ldb) over k, for JB rows of B at
/// once so each load of `a` feeds JB dot products.
template <std::size_t JB>
void nt_dots(const float* a, const float* b, std::size_t ldb, std::size_t k,
             float* out) {
  float acc[JB][kLanes] = {};
  std::size_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    for (std::size_t jb = 0; jb < JB; ++jb) {
      const float* bj = b + jb * ldb + p;
      for (std::size_t l = 0; l < kLanes; ++l) acc[jb][l] += a[p + l] * bj[l];
    }
  }
  if (p < k) {
    // The k % 8 tail, zero-padded to a full step: lanes past the tail add
    // 0*0 = +0, which leaves every (never -0) accumulator unchanged.
    float at[kLanes] = {};
    float bt[JB][kLanes] = {};
    for (std::size_t l = 0; p + l < k; ++l) {
      at[l] = a[p + l];
      for (std::size_t jb = 0; jb < JB; ++jb) bt[jb][l] = b[jb * ldb + p + l];
    }
    for (std::size_t jb = 0; jb < JB; ++jb) {
      for (std::size_t l = 0; l < kLanes; ++l) acc[jb][l] += at[l] * bt[jb][l];
    }
  }
  for (std::size_t jb = 0; jb < JB; ++jb) out[jb] = combine_lanes(acc[jb]);
}

/// Rows [i0, i1) of C = A * B^T (+ bias). B's rows go in blocks of 4
/// (outer) against every A row of the range (inner), so the four B rows
/// stay in L1 while the range's A rows stream from L2.
void nt_rows(ConstMatrixView a, ConstMatrixView b, const float* bias,
             MatrixView c, std::size_t i0, std::size_t i1) {
  constexpr std::size_t kJb = 4;
  const std::size_t k = a.cols;
  const std::size_t m = b.rows;
  float out[kJb];
  std::size_t j = 0;
  for (; j + kJb <= m; j += kJb) {
    for (std::size_t i = i0; i < i1; ++i) {
      nt_dots<kJb>(a.row(i), b.row(j), k, k, out);
      float* crow = c.row(i) + j;
      for (std::size_t jb = 0; jb < kJb; ++jb) {
        crow[jb] = bias != nullptr ? out[jb] + bias[j + jb] : out[jb];
      }
    }
  }
  for (; j < m; ++j) {
    for (std::size_t i = i0; i < i1; ++i) {
      nt_dots<1>(a.row(i), b.row(j), k, k, out);
      c.row(i)[j] = bias != nullptr ? out[0] + bias[j] : out[0];
    }
  }
}

// The p loops below are in-order reductions. GCC's loop vectorizer would
// split them across p as fold-left sums of scalar adds whenever A is
// contiguous in p (4x slower); SLP across the W output columns is the
// vectorization wanted, so the loop vectorizer is off for these two.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("no-tree-loop-vectorize")
#endif

/// An R x W tile of C = sum_p A(r, p) * B[p, :], where A(r, p) is
/// a[r*a_row + p*a_step] (so one body serves both A and A^T). Each output
/// is one ascending-p chain; the W columns run side by side in registers.
template <std::size_t R, std::size_t W>
void outer_tile(const float* a, std::size_t a_row, std::size_t a_step,
                const float* b, std::size_t ldb, float* c, std::size_t ldc,
                std::size_t k, bool accumulate) {
  float acc[R][W];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t l = 0; l < W; ++l) {
      acc[r][l] = accumulate ? c[r * ldc + l] : 0.0f;
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * a_row + p * a_step];
      for (std::size_t l = 0; l < W; ++l) acc[r][l] += av * bp[l];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t l = 0; l < W; ++l) c[r * ldc + l] = acc[r][l];
  }
}

/// C rows [i0, i1) of the outer-product form in 4 x kLanes tiles. Column
/// strips go outer, so a strip of B stays in L1 across all row tiles.
void outer_range(const float* a, std::size_t a_row, std::size_t a_step,
                 ConstMatrixView b, MatrixView c, std::size_t k,
                 bool accumulate, std::size_t i0, std::size_t i1) {
  constexpr std::size_t kRb = 4;
  const auto tile = [&](auto rows, auto cols, std::size_t i, std::size_t j) {
    outer_tile<decltype(rows)::value, decltype(cols)::value>(
        a + i * a_row, a_row, a_step, b.data + j, b.cols, c.row(i) + j, c.cols,
        k, accumulate);
  };
  using One = std::integral_constant<std::size_t, 1>;
  using Rows = std::integral_constant<std::size_t, kRb>;
  using Lanes = std::integral_constant<std::size_t, kLanes>;
  std::size_t j = 0;
  for (; j + kLanes <= b.cols; j += kLanes) {
    std::size_t i = i0;
    for (; i + kRb <= i1; i += kRb) tile(Rows{}, Lanes{}, i, j);
    for (; i < i1; ++i) tile(One{}, Lanes{}, i, j);
  }
  for (; j < b.cols; ++j) {
    for (std::size_t i = i0; i < i1; ++i) tile(One{}, One{}, i, j);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

}  // namespace

void matmul_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               util::ThreadPool* pool) {
  assert(a.cols == b.rows && c.rows == a.rows && c.cols == b.cols);
  const std::size_t k = a.cols;
  for_row_blocks(a.rows, 4, a.rows * k * b.cols, pool,
                 [&](std::size_t i0, std::size_t i1) {
                   outer_range(a.data, k, 1, b, c, k, false, i0, i1);
                 });
}

void matmul_nt(ConstMatrixView a, ConstMatrixView b, const float* bias,
               MatrixView c, util::ThreadPool* pool) {
  assert(a.cols == b.cols && c.rows == a.rows && c.cols == b.rows);
  for_row_blocks(a.rows, 8, a.rows * a.cols * b.rows, pool,
                 [&](std::size_t i0, std::size_t i1) {
                   nt_rows(a, b, bias, c, i0, i1);
                 });
}

void matmul_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               bool accumulate, util::ThreadPool* pool) {
  assert(a.rows == b.rows && c.rows == a.cols && c.cols == b.cols);
  const std::size_t k = a.rows;
  for_row_blocks(a.cols, 4, a.cols * k * b.cols, pool,
                 [&](std::size_t i0, std::size_t i1) {
                   outer_range(a.data, 1, a.cols, b, c, k, accumulate, i0, i1);
                 });
}

void matmul_nn(const Matrix& a, const Matrix& b, Matrix& c,
               util::ThreadPool* pool) {
  c.resize(a.rows(), b.cols());
  matmul_nn(a.view(), b.view(), c.view(), pool);
}

void matmul_nt(const Matrix& a, const Matrix& b, Matrix& c,
               util::ThreadPool* pool) {
  c.resize(a.rows(), b.rows());
  matmul_nt(a.view(), b.view(), nullptr, c.view(), pool);
}

void matmul_tn(const Matrix& a, const Matrix& b, Matrix& c,
               util::ThreadPool* pool) {
  c.resize(a.cols(), b.cols());
  matmul_tn(a.view(), b.view(), c.view(), false, pool);
}

void column_sums(const Matrix& m, std::vector<float>& out) {
  out.assign(m.cols(), 0.0f);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += row[j];
  }
}

}  // namespace capes::nn
