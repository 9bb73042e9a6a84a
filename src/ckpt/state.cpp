#include "ckpt/state.hpp"

#include "ckpt/checkpoint.hpp"
#include "ckpt/reshard.hpp"

namespace geofm::ckpt {
namespace {

/// Even contiguous split: rank r of W owns [n*r/W, n*(r+1)/W).
Range even_split(i64 numel, int rank, int world) {
  const i64 begin = numel * rank / world;
  const i64 end = numel * (rank + 1) / world;
  return {begin, end - begin};
}

void add_replicated(StateDesc& desc, const std::string& name,
                    const std::vector<i64>& shape, const Tensor& storage,
                    int rank, int world, bool for_save) {
  TensorSlice slice;
  slice.name = name;
  slice.shape = shape;
  if (for_save) {
    const Range r = even_split(storage.numel(), rank, world);
    if (r.len == 0) return;  // tiny tensor: this rank contributes nothing
    slice.begin = r.begin;
    slice.data = storage.flat_view(r.begin, r.len);
  } else {
    slice.begin = 0;
    slice.data = storage.flat_view(0, storage.numel());
  }
  desc.slices.push_back(std::move(slice));
}

}  // namespace

std::string slot_tensor_name(const std::string& param_name, const char* slot) {
  return param_name + "#" + slot;
}

StateDesc replicated_state(nn::Module& module, optim::Optimizer* optimizer,
                           int rank, int world, bool for_save) {
  GEOFM_CHECK(world >= 1 && rank >= 0 && rank < world,
              "bad rank " << rank << "/" << world);
  StateDesc desc;
  for (nn::Parameter* p : module.parameters()) {
    add_replicated(desc, p->name, p->value.shape(), p->value, rank, world,
                   for_save);
  }
  if (optimizer != nullptr) {
    for (const auto& slot : optimizer->state_view().slots) {
      add_replicated(desc, slot_tensor_name(slot.param->name, slot.slot),
                     slot.param->value.shape(), slot.tensor, rank, world,
                     for_save);
    }
  }
  return desc;
}

StateDesc fsdp_state(parallel::Fsdp& fsdp, optim::Optimizer* optimizer) {
  StateDesc desc;
  auto layouts = fsdp.checkpoint_layout();

  // Optimizer slots keyed by the flat parameter they accompany; each
  // slot tensor shares its flat parameter's element layout, so the same
  // ranges slice both.
  optim::OptimizerStateView view;
  if (optimizer != nullptr) view = optimizer->state_view();

  for (const parallel::FsdpUnitLayout& unit : layouts) {
    for (const parallel::FsdpParamRange& r : unit.ranges) {
      TensorSlice slice;
      slice.name = r.param->name;
      slice.shape = r.param->value.shape();
      slice.begin = r.param_begin;
      slice.data = unit.shard.flat_view(r.shard_begin, r.len);
      desc.slices.push_back(std::move(slice));
    }
    for (const auto& slot : view.slots) {
      if (slot.param != unit.opt_param) continue;
      for (const parallel::FsdpParamRange& r : unit.ranges) {
        TensorSlice slice;
        slice.name = slot_tensor_name(r.param->name, slot.slot);
        slice.shape = r.param->value.shape();
        slice.begin = r.param_begin;
        slice.data = slot.tensor.flat_view(r.shard_begin, r.len);
        desc.slices.push_back(std::move(slice));
      }
    }
  }
  return desc;
}

std::map<std::string, i64> optimizer_scalars(optim::Optimizer& optimizer) {
  std::map<std::string, i64> out;
  for (const auto& scalar : optimizer.state_view().scalars) {
    out["optim." + std::string(scalar.name)] = *scalar.value;
  }
  return out;
}

void save_module(nn::Module& module, const std::string& path) {
  save_file(path, replicated_state(module, /*optimizer=*/nullptr, /*rank=*/0,
                                   /*world=*/1, /*for_save=*/true));
}

void load_module(nn::Module& module, const std::string& path) {
  CheckpointReader reader(path);
  reader.restore(replicated_state(module, /*optimizer=*/nullptr, /*rank=*/0,
                                  /*world=*/1, /*for_save=*/false));
}

}  // namespace geofm::ckpt
