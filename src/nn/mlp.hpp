// Multi-layer perceptron with forward inference, backprop training and a
// flat-parameter view.  Control-sized networks only (examples/
// state_estimator, the BM_MlpForward* microbenchmarks).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/activation.hpp"
#include "nn/matrix.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace seo::nn {

/// Architecture description: layer widths and per-layer activations.
/// `sizes = {4, 32, 32, 2}` builds a 4-input, 2-output net with two hidden
/// layers; `hidden_act` applies to all but the last layer, which uses
/// `output_act`.
struct MlpConfig {
  std::vector<std::size_t> sizes;
  Activation hidden_act = Activation::kTanh;
  Activation output_act = Activation::kIdentity;
};

/// Reusable per-layer buffers for `Mlp::forward`.  Sized lazily on first
/// use; after that, repeated forward passes through the same architecture
/// perform zero heap allocations — the property the per-tick control path
/// relies on.  One workspace per caller (not thread-safe, not shareable
/// across concurrently-running policies).
class MlpWorkspace {
 public:
  /// Network output of the most recent forward pass; requires at least one
  /// forward call with this workspace.
  const Vector& output() const {
    SEO_EXPECT(!layers_.empty());
    return layers_.back();
  }

 private:
  friend class Mlp;
  std::vector<Vector> layers_;  ///< activation produced by each layer
};

/// Reusable per-layer batch buffers for `Mlp::forward_batch`: one Matrix of
/// activations (one sample per row) per layer, plus the packed input batch.
/// Same contract as MlpWorkspace — grown on first use, then allocation-free
/// for a fixed architecture and (maximum) batch size; one per caller.
class MlpBatchWorkspace {
 public:
  /// Batch output of the most recent forward_batch (one row per sample);
  /// requires at least one forward_batch call with this workspace.
  const Matrix& output() const {
    SEO_EXPECT(!layers_.empty());
    return layers_.back();
  }

  /// Packs `inputs` (all the same size) into the row-per-sample input
  /// matrix and returns it — the convenience bridge from vector-of-Vector
  /// datasets to forward_batch.  An empty set yields a zero-row batch.
  const Matrix& pack(const std::vector<Vector>& inputs, std::size_t width);

 private:
  friend class Mlp;
  Matrix input_;                ///< packed input batch (pack())
  std::vector<Matrix> layers_;  ///< batch activation produced by each layer
};

class Mlp {
 public:
  explicit Mlp(MlpConfig config);

  const MlpConfig& config() const { return config_; }
  std::size_t input_size() const { return config_.sizes.front(); }
  std::size_t output_size() const { return config_.sizes.back(); }
  std::size_t layer_count() const { return weights_.size(); }
  /// Total number of trainable scalars.
  std::size_t parameter_count() const;

  /// Xavier/Glorot-uniform initialization of all weights (biases zero).
  void init_xavier(Rng& rng);

  /// Forward pass; input size must match the first layer.  Allocates the
  /// result — convenience form; delegates to the workspace overload.
  Vector forward(const Vector& input) const;

  /// Allocation-free forward pass: all intermediates live in `workspace`,
  /// which is grown on first use and reused verbatim afterwards.  Returns
  /// `workspace.output()`, valid until the next call with that workspace.
  const Vector& forward(const Vector& input, MlpWorkspace& workspace) const;

  /// Batched forward pass over `inputs` (one sample per ROW; inputs.cols()
  /// must equal input_size(); zero rows are allowed).  Returns the batch
  /// output, one row per sample, valid until the next call with that
  /// workspace.  Row i is bit-identical to forward(sample i) — batching
  /// changes memory traffic, never arithmetic — so offline evaluation can
  /// use this path while per-tick control keeps the single-sample one.
  const Matrix& forward_batch(const Matrix& inputs,
                              MlpBatchWorkspace& workspace) const;

  /// Forward pass retaining intermediate values, followed by a backward
  /// pass accumulating gradients of 0.5*||output - target||^2.  Returns
  /// the sample loss.  Gradients accumulate until sgd_step/zero_grad.
  double train_sample(const Vector& input, const Vector& target);

  /// Applies accumulated gradients: w -= lr * grad / batch, then clears.
  void sgd_step(double learning_rate, std::size_t batch_size);
  void zero_grad();

  /// Flattened parameter access (weights row-major, then biases, per
  /// layer).
  Vector flatten_parameters() const;
  void set_parameters(const Vector& flat);

 private:
  Activation layer_activation(std::size_t layer) const;

  MlpConfig config_;
  std::vector<Matrix> weights_;
  std::vector<Vector> biases_;
  std::vector<Matrix> grad_weights_;
  std::vector<Vector> grad_biases_;
};

/// Mean-squared-error over a batch of (input, target) pairs.
double mse_loss(const Mlp& net, const std::vector<Vector>& inputs,
                const std::vector<Vector>& targets);

}  // namespace seo::nn
