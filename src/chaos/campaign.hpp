// Chaos campaigns: seeded, randomized-but-replayable fault schedules
// that span every fault seam the system has — comm (rank kills, stalls),
// storage IO (torn/failed/slow checkpoint writes, slow uploads), the
// data path (loader worker death, hung renders, poisoned samples), and
// the serving tier (client overload bursts, mirror-upload faults).
//
// A `Campaign` is generated from a `CampaignConfig` by pure seeded
// draws: the same (config, seed) always yields the same campaign, and a
// campaign's `plan` feeds straight into `ElasticConfig::faults`, so one
// u64 reproduces an entire multi-subsystem failure scenario. Faults are
// drawn in *correlated bursts* — a burst picks one step interval and one
// victim rank, then lands several faults inside that window (the
// "kill a rank while its checkpoint write tears" shape that uncorrelated
// single-fault tests never exercise).
//
// `plan_from_postmortem` closes the record/replay loop: it parses the
// realized fault schedule out of a flight-recorder postmortem bundle
// (the "fired_plan" note `run_elastic` embeds in every bundle) — or a
// bare `plan_to_json` trace — back into a campaign, so the schedule that
// actually killed a real run can be replayed under a debugger.
#pragma once

#include <string>
#include <vector>

#include "comm/fault.hpp"

namespace geofm::chaos {

struct CampaignConfig {
  u64 seed = 0;
  /// Fault-target space. `world` bounds victim ranks (identities under
  /// run_elastic); `steps` bounds step/ordinal triggers (loader ordinals
  /// assume one global batch per step, which is what the MAE driver
  /// does); `io_ops` bounds storage-op triggers.
  int world = 4;
  i64 steps = 8;
  i64 io_ops = 4;
  /// Correlated bursts per campaign, each landing 1 ..
  /// `max_faults_per_burst` faults in one (interval, victim) window.
  int bursts = 2;
  int max_faults_per_burst = 3;
  /// Hard bound on rank kills across the whole campaign, so a campaign
  /// never shrinks a run below `world - max_kills` (keep it above the
  /// supervisor's min_world).
  int max_kills = 1;
  /// Subsystems to draw from. Disabling one removes its fault kinds from
  /// the menu; the draw sequence is unchanged (a disabled pick redraws
  /// deterministically). Loader faults are always on the menu.
  bool comm_faults = true;
  bool storage_faults = true;
  bool serve_overload = true;
};

/// Concurrent submissions per serving overload flood (read by the
/// campaign's describe() and by the soak harness that drives the flood).
constexpr i64 kOverloadRequests = 32;

/// One generated campaign. `plan` is in identity terms, ready for
/// `ElasticConfig::faults`; `overload_steps` schedules client-side
/// request floods against the serving tier (driven by the soak harness —
/// overload is a traffic pattern, not an injectable event), each of
/// `kOverloadRequests` concurrent submissions.
struct Campaign {
  u64 seed = 0;
  comm::FaultPlan plan;
  std::vector<i64> overload_steps;

  /// Human-readable one-line-per-event summary (for soak logs).
  std::string describe() const;
};

/// Deterministically expands `cfg` into a campaign: same config, same
/// campaign, bitwise — `generate_campaign(cfg).plan` serialized with
/// `comm::plan_to_json` is stable across runs and platforms.
Campaign generate_campaign(const CampaignConfig& cfg);

/// Parses a recorded failure trace back into a replayable campaign.
/// Accepts either a flight-recorder postmortem bundle (the JSON written
/// by `obs::FlightRecorder::archive`, whose "fired_plan" note holds the
/// escaped `plan_to_json` of every event that had fired by the time the
/// run aborted) or a bare fault-plan JSON. Throws `geofm::Error` when
/// the text is neither.
Campaign plan_from_postmortem(const std::string& text);

/// `plan_from_postmortem` over a file's contents.
Campaign plan_from_postmortem_file(const std::string& path);

}  // namespace geofm::chaos
