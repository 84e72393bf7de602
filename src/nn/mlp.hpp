#pragma once
// The multi-layer perceptron the paper uses as its Q-network (§3.4): a
// stack of Dense layers with tanh between them and a linear output layer
// (one output per action). Supports forward/backward, checkpointing, hard
// copies and the soft target-network update theta- = (1-a)theta- + a*theta.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace capes::nn {

enum class Activation { kTanh, kRelu };

/// Feed-forward MLP. Construct with layer sizes
/// {input, hidden..., output}; the last layer is always linear.
class Mlp {
 public:
  /// `sizes` must have at least 2 entries. Weights are Xavier-initialized
  /// from `rng`.
  Mlp(const std::vector<std::size_t>& sizes, util::Rng& rng,
      Activation activation = Activation::kTanh);

  /// X: [batch, input] -> [batch, output]. Caches activations for backward
  /// and keeps a view of X, which must outlive the matching backward().
  const Matrix& forward(const Matrix& x, util::ThreadPool* pool = nullptr);

  /// grad wrt output: [batch, output]. Accumulates parameter gradients;
  /// the gradient wrt X is not computed.
  void backward(const Matrix& grad_out, util::ThreadPool* pool = nullptr);

  void zero_grad();

  /// All parameter tensors, in a stable order (for the optimizer and for
  /// checkpoints).
  std::vector<Parameter*> parameters();
  std::vector<const Parameter*> parameters() const;

  /// Total number of scalar parameters.
  std::size_t parameter_count() const;

  /// In-memory size of the model in bytes (values + gradients), the
  /// quantity Table 2 reports as "size of the DNN model".
  std::size_t memory_bytes() const;

  std::size_t input_size() const { return sizes_.front(); }
  std::size_t output_size() const { return sizes_.back(); }
  const std::vector<std::size_t>& layer_sizes() const { return sizes_; }
  Activation activation() const { return activation_; }

  /// Copy all parameter values from another MLP of identical shape.
  void copy_weights_from(const Mlp& other);

  /// Deep copy of shape + parameter values (gradients start zeroed).
  std::unique_ptr<Mlp> clone() const;

  /// Soft update: theta_this = (1 - alpha) * theta_this + alpha * theta_other.
  void soft_update_from(const Mlp& other, float alpha);

  /// Serialize weights (shape header + all parameter values).
  std::vector<std::uint8_t> serialize() const;

  /// Reconstruct from serialize() output. Returns nullptr on malformed or
  /// shape-incompatible data.
  static std::unique_ptr<Mlp> deserialize(const std::vector<std::uint8_t>& data);

  /// Convenience: save/load checkpoints to a file. Return false on error.
  bool save_checkpoint(const std::string& path) const;
  static std::unique_ptr<Mlp> load_checkpoint(const std::string& path);

 private:
  /// Private raw constructor used by deserialize (no init).
  struct RawTag {};
  Mlp(const std::vector<std::size_t>& sizes, Activation activation, RawTag);

  std::vector<std::size_t> sizes_;
  Activation activation_;
  std::vector<Dense> dense_;
  std::vector<Tanh> tanh_;
  std::vector<Relu> relu_;
};

}  // namespace capes::nn
