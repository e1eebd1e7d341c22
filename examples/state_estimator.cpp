// Lambda'' state estimation, learned: trains a small autoencoder-style MLP
// to regress the safety-relevant state (clearance and bearing to the
// nearest obstacle) from a noisy synthetic range profile — the in-repo
// counterpart of the paper's VAE front-end for the safety filter
// (section VI-A reuses ShieldNN's variational autoencoder).
//
//   ./examples/state_estimator [epochs]
//
// The benches keep using ground-truth state (as the paper does); this
// example demonstrates that the learning substrate for the critical subset
// exists and converges.
#include <iostream>

#include "dynamics/obstacle.hpp"
#include "example_args.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace seo;

constexpr int kBeams = 16;       // radial range profile resolution
constexpr double kMaxRange = 40.0;

/// Simulates one noisy range profile for a vehicle at the origin heading
/// +x with a single obstacle; the regression target is (clearance/40,
/// bearing/pi).
void make_sample(Rng& rng, nn::Vector& input, nn::Vector& target) {
  const double distance = rng.uniform(3.0, 35.0);
  const double bearing = rng.uniform(-1.2, 1.2);
  const double radius = rng.uniform(0.5, 1.5);

  input.assign(kBeams, 1.0);
  for (int b = 0; b < kBeams; ++b) {
    const double beam_angle = -1.3 + 2.6 * b / (kBeams - 1);
    // Beam "hit": angular footprint of the obstacle around its bearing.
    const double half_width = std::atan2(radius, distance);
    if (std::abs(wrap_angle(beam_angle - bearing)) < half_width + 0.05) {
      const double measured =
          std::max(0.5, distance - radius + rng.gaussian(0.0, 0.3));
      input[static_cast<std::size_t>(b)] = measured / kMaxRange;
    }
  }
  target = {(distance - radius) / kMaxRange, bearing / 3.14159265};
}

}  // namespace

int main(int argc, char** argv) {
  const int epochs = static_cast<int>(seo::example::int_arg(
      argc, argv, 1, 1, 100000, 600, "state_estimator [epochs 1..100000]"));

  Rng rng(31);
  nn::MlpConfig config;
  config.sizes = {kBeams, 32, 16, 2};
  config.hidden_act = nn::Activation::kTanh;
  config.output_act = nn::Activation::kIdentity;
  nn::Mlp net(config);
  net.init_xavier(rng);

  // Fixed train/validation sets.
  std::vector<nn::Vector> train_x(512), train_y(512), val_x(128), val_y(128);
  for (std::size_t i = 0; i < train_x.size(); ++i)
    make_sample(rng, train_x[i], train_y[i]);
  for (std::size_t i = 0; i < val_x.size(); ++i)
    make_sample(rng, val_x[i], val_y[i]);

  std::cout << "Training the Lambda'' state estimator ("
            << net.parameter_count() << " parameters, " << epochs
            << " epochs)\n";
  seo::TextTable table("Validation loss (MSE on normalized state)");
  table.set_header({"epoch", "val MSE", "clearance RMSE [m]"});

  const double before = nn::mse_loss(net, val_x, val_y);
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    for (std::size_t i = 0; i < train_x.size(); ++i)
      net.train_sample(train_x[i], train_y[i]);
    net.sgd_step(0.03, train_x.size());
    if (epoch % std::max(epochs / 6, 1) == 0) {
      const double mse = nn::mse_loss(net, val_x, val_y);
      // Clearance RMSE in meters: first output dimension un-normalized.
      double acc = 0.0;
      for (std::size_t i = 0; i < val_x.size(); ++i) {
        const double err =
            (net.forward(val_x[i])[0] - val_y[i][0]) * kMaxRange;
        acc += err * err;
      }
      table.add_row({std::to_string(epoch), seo::fmt_double(mse, 5),
                     seo::fmt_double(std::sqrt(acc / val_x.size()), 2)});
    }
  }
  std::cout << table.render();
  const double after = nn::mse_loss(net, val_x, val_y);
  std::cout << "\nval MSE " << seo::fmt_double(before, 4) << " -> "
            << seo::fmt_double(after, 4)
            << (after < 0.25 * before ? "  (converged)" : "  (check config)")
            << "\nA clearance estimate this sharp is what the safety filter "
               "consumes as x;\nthe benches use simulator ground truth for "
               "it, exactly like the paper.\n";
  return after < 0.25 * before ? 0 : 1;
}
