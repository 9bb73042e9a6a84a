#include "nn/block.hpp"

namespace geofm::nn {

TransformerBlock::TransformerBlock(std::string name, i64 dim, i64 n_heads,
                                   i64 mlp_dim, Rng& rng)
    : ln1(name + ".ln1", dim),
      attn(name + ".attn", dim, n_heads, rng),
      ln2(name + ".ln2", dim),
      mlp(name + ".mlp", dim, mlp_dim, rng) {}

// Residual adds accumulate into the freshly computed branch output: IEEE
// addition commutes and add_'s alpha of 1 is exact, so branch + x is
// bitwise x + branch without cloning x.
Tensor TransformerBlock::forward(const Tensor& x) {
  Tensor h = attn.forward(ln1.forward(x));
  h.add_(x);
  Tensor out = mlp.forward(ln2.forward(h));
  out.add_(h);
  return out;
}

Tensor TransformerBlock::backward(const Tensor& dy) {
  // out = h + mlp(ln2(h)); dh = dy + ln2.bwd(mlp.bwd(dy))
  Tensor dh = ln2.backward(mlp.backward(dy));
  dh.add_(dy);
  // h = x + attn(ln1(x)); dx = dh + ln1.bwd(attn.bwd(dh))
  Tensor dx = ln1.backward(attn.backward(dh));
  dx.add_(dh);
  return dx;
}

std::vector<Parameter*> TransformerBlock::parameters() {
  std::vector<Parameter*> out;
  for (Parameter* p : ln1.parameters()) out.push_back(p);
  for (Parameter* p : attn.parameters()) out.push_back(p);
  for (Parameter* p : ln2.parameters()) out.push_back(p);
  for (Parameter* p : mlp.parameters()) out.push_back(p);
  return out;
}

}  // namespace geofm::nn
