// Transformer MLP: Linear -> GELU -> Linear.
#pragma once

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace geofm::nn {

class Mlp : public Module {
 public:
  Mlp(std::string name, i64 dim, i64 hidden_dim, Rng& rng);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override;

  Linear fc1;
  Linear fc2;

 private:
  Tensor cached_dgelu_;  // dgelu/dx at the fc1 output (kernels::gelu_fwd)
};

}  // namespace geofm::nn
