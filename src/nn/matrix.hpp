#pragma once
// Dense row-major float matrices and the three GEMM kernels a multi-layer
// perceptron needs (forward X*W^T, backward G^T*X and G*W).
//
// Summation-order contract. Every output element is reduced in one fixed
// order that depends only on the operand shapes — never on the thread
// count, the row partitioning or which rows share a register block — so
// pooled and serial runs are bit-identical:
//
//   * matmul_nt (a dot product over k per output): k is split into 8
//     lanes, lane l holding the products p = l, l+8, l+16, ...
//     accumulated in ascending p (the k % 8 tail products go to lanes
//     0..k%8-1). The lanes then combine in a fixed tree,
//     ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)), and the bias, when
//     given, is added last.
//   * matmul_nn / matmul_tn (a sum over k of outer-product rows): each
//     output is one chain in ascending p, starting from 0 (or from the
//     output's old value when accumulating). The 8 lanes here run across
//     8 adjacent output columns, which share every load of A.
//
// The lane arrays are plain loops that GCC/Clang vectorize at baseline
// x86-64 (SSE2) without -ffast-math: no reduction is reassociated, so the
// vector and scalar code paths compute the same bits. Output rows are the
// parallel unit; a call fans out over the thread pool only when its
// n*k*m multiply-adds outweigh the dispatch.

#include <cassert>
#include <cstddef>
#include <vector>

namespace capes::util {
class ThreadPool;
}

namespace capes::nn {

/// Non-owning view of `rows` x `cols` row-major floats at `data`.
struct ConstMatrixView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  const float* row(std::size_t r) const { return data + r * cols; }
};

/// Mutable counterpart of ConstMatrixView.
struct MatrixView {
  float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  float* row(std::size_t r) const { return data + r * cols; }
};

/// Row-major float matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  MatrixView view() { return {data_.data(), rows_, cols_}; }
  ConstMatrixView view() const { return {data_.data(), rows_, cols_}; }

  float& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  void fill(float v) { data_.assign(data_.size(), v); }
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A[n,k] * B[k,m]. `pool` may be null (single-threaded).
void matmul_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               util::ThreadPool* pool = nullptr);

/// C = A[n,k] * B[m,k]^T -> [n,m], plus bias[j] on every row when `bias`
/// (length m) is non-null.
void matmul_nt(ConstMatrixView a, ConstMatrixView b, const float* bias,
               MatrixView c, util::ThreadPool* pool = nullptr);

/// C = A[k,n]^T * B[k,m] -> [n,m]; with `accumulate` the products add onto
/// C's current contents (C += A^T * B).
void matmul_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               bool accumulate, util::ThreadPool* pool = nullptr);

/// Matrix forms of the kernels above: C is resized to [n,m] and overwritten.
void matmul_nn(const Matrix& a, const Matrix& b, Matrix& c,
               util::ThreadPool* pool = nullptr);
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& c,
               util::ThreadPool* pool = nullptr);
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& c,
               util::ThreadPool* pool = nullptr);

/// Column-wise sums of `m` into `out` (resized to m.cols()).
void column_sums(const Matrix& m, std::vector<float>& out);

}  // namespace capes::nn
