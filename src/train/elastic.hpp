// Elastic in-run failure recovery: a shrink-and-continue supervisor over
// `pretrain_mae_distributed`.
//
// `run_elastic` owns one persistent worker thread per initial rank
// ("identity"). Each attempt it forms a communicator over the live
// identities, hands every worker a rank, and runs the distributed
// pretraining driver to completion — or to a fault. When a rank dies
// (a FaultPlan kill, or a stall the comm watchdog aborts), the
// supervisor:
//
//   1. *detects*: survivors unwind with `comm::Aborted` (the dead rank
//      with `comm::RankKilled`); the span `recover.detect` covers first
//      failure -> all ranks reported;
//   2. *quarantines*: RankKilled ranks plus the watchdog's stall suspects
//      are retired — their threads exit, their identities never rejoin;
//   3. *re-forms*: a fresh communicator over the survivors
//      (`recover.reform`), shrinking further if the global batch does not
//      divide the survivor count;
//   4. *reshards + continues*: the next attempt resumes from the latest
//      complete checkpoint — the ordinary elastic-restore path
//      (`plan_reads` reassembles any saved world/strategy into the new
//      one, surfaced as `recover.reshard`), with loader slicing rescaled
//      to the new world size — and training continues in-process, no
//      external restart.
//
// Because a resumed run is bitwise deterministic for a given world size,
// the post-recovery loss trajectory is *exactly* the trajectory of a
// fresh run launched at the shrunken world from the same checkpoint (the
// recovery tests assert float equality).
//
// Metrics: `recovery.count`, `recovery.seconds` (first failure ->
// next attempt running), `recovery.world`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "data/datasets.hpp"
#include "models/config.hpp"
#include "models/mae.hpp"
#include "parallel/fsdp.hpp"
#include "train/distributed.hpp"

namespace geofm::train {

/// A run gives up (rethrows the last failure) after this many recoveries:
/// past it the run is in a fault storm, not a fault.
constexpr int kMaxRecoveries = 8;

/// When and who may re-join a shrunken run (grow-back).
///
/// Re-admission happens only at *checkpoint boundaries*: when growth is
/// possible, the supervisor truncates the shrunken attempt at the next
/// step the driver checkpoints, and on its completion runs a
/// *probationary rendezvous* — candidates form a probe group with the
/// supervisor, run the (optional) health-check hook, and complete a
/// barrier + all-reduce under a watchdog armed with a 0.75 s
/// rendezvous deadline. A candidate that stalls or throws is
/// re-quarantined permanently (`ElasticResult::probation_rejected`)
/// without stalling the run; the healthy remainder is admitted, the
/// communicator re-forms *up*, and the next attempt reshards from the
/// boundary checkpoint onto the larger world. Identities parked while
/// awaiting re-admission are in no communicator group, so the training
/// watchdog never sees (and never flags) them. The world never grows
/// beyond its initial size, and the supervisor gives up on growing after
/// four probation rounds.
struct ReadmissionPolicy {
  /// Re-admit identities the supervisor quarantined earlier (a node
  /// coming back after a reboot).
  bool readmit_quarantined = false;
  /// Fresh replacement identities world..world+spares-1, parked from the
  /// start (a spare node joining for the first time).
  int spare_identities = 0;
  /// Test seam: runs on the candidate's thread before its probationary
  /// rendezvous. Throwing or sleeping past the deadline gets the
  /// candidate rejected.
  std::function<void(int identity)> probation_hook;

  bool enabled() const { return readmit_quarantined || spare_identities > 0; }
};

struct ElasticConfig {
  /// Per-attempt training template. The supervisor owns `resume_from`,
  /// `recovery_resume`, `fault_injector`, and
  /// `watchdog_deadline_seconds`; set faults/watchdog on the fields
  /// below instead. `checkpoint_dir` doubles as the recovery source: a
  /// run that faults before its first save has nothing to resume from
  /// and restarts the attempt from step 0.
  DistributedPretrainConfig train;

  /// Model + sharding, rebuilt per attempt (every surviving rank
  /// reconstructs the model from `model_seed`, then restores from the
  /// checkpoint — same as a fresh launch at the new world size).
  models::MaeConfig model;
  parallel::FsdpOptions fsdp;
  u64 model_seed = 1;

  /// Initial world size (identities 0..world-1). Must divide
  /// train.global_batch.
  int world = 4;
  /// Give up (rethrow the last failure) if survivors would drop below
  /// this after quarantine + divisibility trimming.
  int min_world = 1;

  /// Fault schedule, in *identity* (initial-world rank, plus spare
  /// identity) terms. Unfired events carry over across attempts,
  /// remapped to each attempt's ranks; events targeting identities not
  /// in the attempt are held back — and fire if their identity is later
  /// re-admitted.
  comm::FaultPlan faults;

  /// > 0 arms the comm watchdog on every attempt's group: stalled ranks
  /// are diagnosed, aborted, and quarantined like crashed ones.
  double watchdog_deadline_seconds = 0;

  /// Grow-back: re-admit quarantined/replacement identities at checkpoint
  /// boundaries. Disabled by default (a shrunken run stays shrunken).
  ReadmissionPolicy readmission;
};

/// One attempt = one communicator generation.
struct ElasticAttempt {
  int world = 0;
  bool completed = false;
  i64 start_step = 0;              // first step this attempt executed
  std::vector<float> losses;       // per-step losses this attempt produced
  std::string resumed_from;        // checkpoint dir ("" = from scratch)
  std::vector<int> quarantined;    // identities retired after this attempt
  std::vector<int> readmitted;     // identities admitted before this attempt
  std::string failure;             // first failure's message ("" if none)
  /// Path of the postmortem bundle this attempt's failure archived under
  /// `<checkpoint_dir>/postmortem/` ("" when the attempt completed, no
  /// checkpoint dir was configured, or archiving itself failed). See
  /// `obs::FlightRecorder`.
  std::string postmortem;
  i64 faults_fired = 0;            // plan events consumed by this attempt
  /// True when the supervisor cut this attempt short at a checkpoint
  /// boundary to attempt grow-back (its completion is a boundary stop,
  /// not the end of training).
  bool truncated_for_growth = false;
};

struct ElasticResult {
  std::vector<ElasticAttempt> attempts;  // >= 1; last one completed
  int recoveries = 0;
  double recovery_seconds = 0;  // summed first-failure -> next-attempt time
  /// Successful grow-back rounds (readmitted identities per round are on
  /// the following attempt's `readmitted`).
  int readmissions = 0;
  /// Candidates rejected during probation, permanently re-quarantined.
  std::vector<int> probation_rejected;
  /// Every plan event that actually fired across all attempts, in
  /// identity terms — serialize with `comm::plan_to_json` to capture the
  /// run's realized fault schedule for bitwise replay.
  comm::FaultPlan fired_plan;
  /// The completing attempt's driver result (its step_losses are the
  /// post-recovery trajectory).
  DistributedPretrainResult final_result;
  /// Identities that survived to the completing attempt, in rank order.
  std::vector<int> final_identities;
};

/// Runs MAE pretraining to completion across faults, shrinking the world
/// as ranks die. Throws the underlying error when recovery is impossible
/// (no diagnosable dead rank, survivors below min_world, more than
/// kMaxRecoveries recoveries, or a non-comm failure).
ElasticResult run_elastic(const ElasticConfig& cfg,
                          const data::SceneDataset& corpus);

}  // namespace geofm::train
