#include "nn/layers.hpp"

#include <cmath>

namespace capes::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, std::string name)
    : in_(in_features), out_(out_features) {
  w_.name = name + ".weight";
  w_.value.assign(in_ * out_, 0.0f);
  w_.grad.assign(in_ * out_, 0.0f);
  b_.name = name + ".bias";
  b_.value.assign(out_, 0.0f);
  b_.grad.assign(out_, 0.0f);
}

void Dense::init_xavier(util::Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + out_));
  for (auto& w : w_.value) {
    w = static_cast<float>(rng.uniform(-limit, limit));
  }
  for (auto& b : b_.value) b = 0.0f;
}

const Matrix& Dense::forward(const Matrix& x, util::ThreadPool* pool) {
  assert(x.cols() == in_);
  input_ = x.view();
  output_.resize(x.rows(), out_);
  matmul_nt(input_, weight_view(), b_.value.data(), output_.view(), pool);
  return output_;
}

void Dense::accumulate_grads(const Matrix& grad_out, util::ThreadPool* pool) {
  assert(grad_out.cols() == out_);
  assert(grad_out.rows() == input_.rows);

  // dW += grad_out^T * X  ([out, batch] x [batch, in] -> [out, in])
  matmul_tn(grad_out.view(), input_, MatrixView{w_.grad.data(), out_, in_},
            /*accumulate=*/true, pool);

  // db += column sums of grad_out
  column_sums(grad_out, db_scratch_);
  for (std::size_t i = 0; i < out_; ++i) b_.grad[i] += db_scratch_[i];
}

const Matrix& Dense::backward(const Matrix& grad_out, util::ThreadPool* pool) {
  accumulate_grads(grad_out, pool);
  // dX = grad_out * W ([batch, out] x [out, in] -> [batch, in])
  grad_input_.resize(grad_out.rows(), in_);
  matmul_nn(grad_out.view(), weight_view(), grad_input_.view(), pool);
  return grad_input_;
}

void Dense::zero_grad() {
  w_.grad.assign(w_.grad.size(), 0.0f);
  b_.grad.assign(b_.grad.size(), 0.0f);
}

const Matrix& Tanh::forward(const Matrix& x) {
  output_.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    output_.data()[i] = std::tanh(x.data()[i]);
  }
  return output_;
}

const Matrix& Tanh::backward(const Matrix& grad_out) {
  assert(grad_out.rows() == output_.rows() && grad_out.cols() == output_.cols());
  grad_input_.resize(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    const float y = output_.data()[i];
    grad_input_.data()[i] = grad_out.data()[i] * (1.0f - y * y);
  }
  return grad_input_;
}

const Matrix& Relu::forward(const Matrix& x) {
  output_.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.data()[i];
    output_.data()[i] = v > 0.0f ? v : 0.0f;
  }
  return output_;
}

const Matrix& Relu::backward(const Matrix& grad_out) {
  grad_input_.resize(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_input_.data()[i] = output_.data()[i] > 0.0f ? grad_out.data()[i] : 0.0f;
  }
  return grad_input_;
}

}  // namespace capes::nn
