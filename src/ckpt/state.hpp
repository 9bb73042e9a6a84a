// State descriptions: what one rank contributes to (or needs from) a
// checkpoint, as named logical-tensor slices aliasing live storage.
//
// The same StateDesc type drives both directions. On save, each slice is
// a range this rank owns and the Checkpointer stages/writes it; on load,
// each slice is a range this rank wants and CheckpointReader assembles it
// from whatever ranks wrote (reshard.hpp). The builders below produce the
// descriptions for the repo's three training topologies:
//
//   * replicated_state — plain modules and DDP. Every rank holds the full
//     model, so on save each rank writes an even 1/W contiguous split of
//     every tensor (the checkpoint is sharded on disk even though memory
//     is not), and on load every rank requests full tensors.
//   * fsdp_state — FSDP in any strategy. Slices come straight from
//     Fsdp::checkpoint_layout(): each rank saves/loads exactly its flat
//     shard's logical ranges, so no rank ever materializes the model.
//
// Optimizer state rides along under slot-derived names: the slot tensor
// for parameter `p` and slot `s` is the logical tensor "`p`#`s`" with
// p's shape (slot tensors are elementwise companions of their parameter,
// so they reshard by the same plan). Optimizer scalar counters (AdamW's
// step) are saved as "optim.<name>" integer counters.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "nn/module.hpp"
#include "optim/optimizer.hpp"
#include "parallel/fsdp.hpp"
#include "tensor/tensor.hpp"

namespace geofm::ckpt {

/// One named logical-tensor range, aliasing live storage. `data` holds
/// elements [begin, begin + data.numel()) of the flattened tensor.
struct TensorSlice {
  std::string name;
  std::vector<i64> shape;  // full logical shape of the named tensor
  i64 begin = 0;
  Tensor data;
};

/// A rank's view of the checkpointable training state.
struct StateDesc {
  std::vector<TensorSlice> slices;
};

/// Logical tensor name of an optimizer slot ("<param>#<slot>").
std::string slot_tensor_name(const std::string& param_name, const char* slot);

/// State description for replicated training (plain module or DDP).
/// `optimizer` may be null (parameters only). With `for_save`, rank
/// `rank` of `world` contributes an even contiguous 1/world split of
/// every tensor; otherwise every tensor is requested in full.
StateDesc replicated_state(nn::Module& module, optim::Optimizer* optimizer,
                           int rank, int world, bool for_save);

/// Shard-local state description for FSDP training (any strategy). Used
/// unchanged for save and load. `optimizer` may be null; when given it
/// must be stepping fsdp.optimizer_parameters().
StateDesc fsdp_state(parallel::Fsdp& fsdp, optim::Optimizer* optimizer);

/// The optimizer's scalar counters as checkpoint counters
/// ("optim.<name>" -> value); empty map for stateless optimizers.
std::map<std::string, i64> optimizer_scalars(optim::Optimizer& optimizer);

/// Writes every parameter (name, shape, data) of `module` to `path` as a
/// single-rank, parameters-only checkpoint: one checksummed shard file
/// (atomic: temp + rename).
void save_module(nn::Module& module, const std::string& path);

/// Loads a save_module checkpoint into `module`. Every parameter in the
/// module must be present with a matching full shape — the first mismatch
/// is reported by parameter name; extra entries in the file are ignored.
/// Throws geofm::Error on mismatch, corruption, or malformed input.
void load_module(nn::Module& module, const std::string& path);

}  // namespace geofm::ckpt
