#include "nn/mlp.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace seo::nn {

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
  SEO_EXPECT(config_.sizes.size() >= 2);
  for (const auto s : config_.sizes) SEO_EXPECT(s > 0);
  for (std::size_t l = 0; l + 1 < config_.sizes.size(); ++l) {
    weights_.emplace_back(config_.sizes[l + 1], config_.sizes[l]);
    biases_.emplace_back(config_.sizes[l + 1], 0.0);
    grad_weights_.emplace_back(config_.sizes[l + 1], config_.sizes[l]);
    grad_biases_.emplace_back(config_.sizes[l + 1], 0.0);
  }
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l)
    n += weights_[l].size() + biases_[l].size();
  return n;
}

Activation Mlp::layer_activation(std::size_t layer) const {
  return layer + 1 == weights_.size() ? config_.output_act
                                      : config_.hidden_act;
}

void Mlp::init_xavier(Rng& rng) {
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    auto& w = weights_[l];
    const double bound =
        std::sqrt(6.0 / static_cast<double>(w.rows() + w.cols()));
    for (std::size_t r = 0; r < w.rows(); ++r)
      for (std::size_t c = 0; c < w.cols(); ++c)
        w.at(r, c) = rng.uniform(-bound, bound);
    for (auto& b : biases_[l]) b = 0.0;
  }
}

Vector Mlp::forward(const Vector& input) const {
  MlpWorkspace workspace;
  return forward(input, workspace);
}

const Vector& Mlp::forward(const Vector& input,
                           MlpWorkspace& workspace) const {
  SEO_EXPECT(input.size() == input_size());
  workspace.layers_.resize(weights_.size());
  const Vector* h = &input;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Vector& out = workspace.layers_[l];
    weights_[l].matvec_into(*h, out);
    const Vector& b = biases_[l];
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += b[i];
    apply_activation_inplace(layer_activation(l), out);
    h = &out;
  }
  return workspace.layers_.back();
}

const Matrix& MlpBatchWorkspace::pack(const std::vector<Vector>& inputs,
                                      std::size_t width) {
  input_.resize(inputs.size(), width);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SEO_EXPECT(inputs[i].size() == width);
    double* row = input_.data() + i * width;
    for (std::size_t c = 0; c < width; ++c) row[c] = inputs[i][c];
  }
  return input_;
}

const Matrix& Mlp::forward_batch(const Matrix& inputs,
                                 MlpBatchWorkspace& workspace) const {
  SEO_EXPECT(inputs.cols() == input_size());
  workspace.layers_.resize(weights_.size());
  const std::size_t batch = inputs.rows();
  const Matrix* h = &inputs;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Matrix& out = workspace.layers_[l];
    weights_[l].matmul_into(*h, out);
    const Vector& b = biases_[l];
    const std::size_t width = b.size();
    for (std::size_t i = 0; i < batch; ++i) {
      double* row = out.data() + i * width;
      for (std::size_t j = 0; j < width; ++j) row[j] += b[j];
    }
    apply_activation_inplace(layer_activation(l), out.data(),
                             batch * width);
    h = &out;
  }
  return workspace.layers_.back();
}

double Mlp::train_sample(const Vector& input, const Vector& target) {
  SEO_EXPECT(input.size() == input_size());
  SEO_EXPECT(target.size() == output_size());

  // Forward, caching per-layer inputs and pre-activations.
  std::vector<Vector> layer_inputs;   // activation entering each layer
  std::vector<Vector> pre_acts;       // W x + b per layer
  Vector h = input;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    layer_inputs.push_back(h);
    Vector pre = add(weights_[l].matvec(h), biases_[l]);
    pre_acts.push_back(pre);
    h = apply_activation(layer_activation(l), pre);
  }

  // Loss 0.5*||h - target||^2 and its gradient wrt output.
  Vector delta = sub(h, target);
  const double loss = 0.5 * dot(delta, delta);

  // Backward.
  for (std::size_t li = weights_.size(); li-- > 0;) {
    const Vector dact = activation_derivative(layer_activation(li),
                                              pre_acts[li]);
    delta = hadamard(delta, dact);
    grad_weights_[li].add_outer(delta, layer_inputs[li], 1.0);
    axpy(1.0, delta, grad_biases_[li]);
    if (li > 0) delta = weights_[li].matvec_transposed(delta);
  }
  return loss;
}

void Mlp::sgd_step(double learning_rate, std::size_t batch_size) {
  SEO_EXPECT(learning_rate > 0.0);
  SEO_EXPECT(batch_size > 0);
  const double scale = learning_rate / static_cast<double>(batch_size);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    auto& w = weights_[l];
    auto& gw = grad_weights_[l];
    for (std::size_t i = 0; i < w.rows() * w.cols(); ++i)
      w.data()[i] -= scale * gw.data()[i];
    for (std::size_t i = 0; i < biases_[l].size(); ++i)
      biases_[l][i] -= scale * grad_biases_[l][i];
  }
  zero_grad();
}

void Mlp::zero_grad() {
  for (auto& g : grad_weights_) g.fill(0.0);
  for (auto& g : grad_biases_)
    for (auto& v : g) v = 0.0;
}

Vector Mlp::flatten_parameters() const {
  Vector flat;
  flat.reserve(parameter_count());
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const auto& w = weights_[l];
    flat.insert(flat.end(), w.data(), w.data() + w.size());
    flat.insert(flat.end(), biases_[l].begin(), biases_[l].end());
  }
  return flat;
}

void Mlp::set_parameters(const Vector& flat) {
  SEO_EXPECT(flat.size() == parameter_count());
  std::size_t pos = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    auto& w = weights_[l];
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = flat[pos++];
    for (auto& b : biases_[l]) b = flat[pos++];
  }
  SEO_ENSURE(pos == flat.size());
}

double mse_loss(const Mlp& net, const std::vector<Vector>& inputs,
                const std::vector<Vector>& targets) {
  SEO_EXPECT(inputs.size() == targets.size());
  SEO_EXPECT(!inputs.empty());
  // One batched pass instead of N single-sample passes: all layer matmuls
  // run over the packed dataset (better locality, one activation sweep per
  // layer), and per-row bit-identity of forward_batch keeps the loss the
  // exact double the per-sample loop produced.
  MlpBatchWorkspace workspace;
  const Matrix& out =
      net.forward_batch(workspace.pack(inputs, net.input_size()), workspace);
  const std::size_t width = net.output_size();
  double acc = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SEO_EXPECT(targets[i].size() == width);
    const double* row = out.data() + i * width;
    double sample = 0.0;
    for (std::size_t j = 0; j < width; ++j) {
      const double d = row[j] - targets[i][j];
      sample += d * d;
    }
    acc += sample;
  }
  return acc / static_cast<double>(inputs.size());
}

}  // namespace seo::nn
