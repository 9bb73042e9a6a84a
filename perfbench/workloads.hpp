// The benchmark's workloads. Each runs for about --seconds, checks the
// program's outputs, and returns the metrics of its mode: end-to-end
// (timed run) or per-layer (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

// Relative tolerance of a final training loss against its recorded
// reference (same seed, same build flags on another x86-64 host may
// contract FMAs differently).
inline constexpr double kLossRelTolerance = 1e-4;

Outcome run_pretrain_1rank(const Args& args);
Outcome run_pretrain_fsdp4(const Args& args);
Outcome run_serve_hotswap(const Args& args);
// One pretrain_fsdp4 elastic run (rank 1 killed after a checkpoint) in
// this process, under args.workdir; prints its one result line. The timed
// pretrain_fsdp4 run starts it in child processes.
void run_elastic_probe(const Args& args);

}  // namespace perfbench
