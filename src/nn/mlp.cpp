#include "nn/mlp.hpp"

#include "tensor/kernels/kernels.hpp"

namespace geofm::nn {

Mlp::Mlp(std::string name, i64 dim, i64 hidden_dim, Rng& rng)
    : fc1(name + ".fc1", dim, hidden_dim, rng),
      fc2(name + ".fc2", hidden_dim, dim, rng) {}

Tensor Mlp::forward(const Tensor& x) {
  cached_dgelu_ = fc1.forward(x);
  Tensor h(cached_dgelu_.shape());
  // Overwrites the pre-activation with dgelu/dx in place.
  kernels::gelu_fwd(h.numel(), cached_dgelu_.data(), h.data());
  return fc2.forward(h);
}

Tensor Mlp::backward(const Tensor& dy) {
  GEOFM_CHECK(cached_dgelu_.defined(), "Mlp backward before forward");
  Tensor dh = fc2.backward(dy);
  kernels::gelu_bwd(dh.numel(), dh.data(), cached_dgelu_.data(), dh.data());
  return fc1.backward(dh);
}

std::vector<Parameter*> Mlp::parameters() {
  std::vector<Parameter*> out;
  for (Parameter* p : fc1.parameters()) out.push_back(p);
  for (Parameter* p : fc2.parameters()) out.push_back(p);
  return out;
}

}  // namespace geofm::nn
