// System invariant checker: after a chaos campaign runs, assert the
// guarantees every subsystem promised individually — as one audit.
//
//   futures-conserved      every serving request issued came back,
//                          exactly once, fulfilled or typed-shed
//   publications-atomic    the newest manifest under every publish root
//                          (primary + mirror) passes a full checksum
//                          verify: a torn publication is never visible
//                          through latest_published_manifest /
//                          published_sources
//   recovery-bitwise       the completing attempt's losses equal a fresh
//                          run at the same world resumed from the same
//                          checkpoint, with the attempt's loss-affecting
//                          fired faults replayed
//   recovery-bounded       recoveries stay within train::kMaxRecoveries
//                          and summed recovery seconds under the
//                          configured ceiling
//   postmortems-present    every failed attempt archived a flight
//                          bundle, the file exists, and its fired_plan
//                          note parses back into a replayable campaign
//
// The checker is pure audit: it never mutates the run's state (the
// bitwise replay trains into nothing — no checkpoint dir). Each check
// only runs when its inputs are provided, and `InvariantReport::checked`
// records which ones did, so a passing report can't silently mean
// "nothing was checked".
#pragma once

#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "serve/server.hpp"
#include "train/elastic.hpp"

namespace geofm::chaos {

/// Client-side serving audit, counted by whoever drove the traffic.
struct ServeAudit {
  i64 issued = 0;    // requests submitted
  i64 resolved = 0;  // futures that produced a value or a typed error
  serve::ServerStats stats;
};

struct InvariantInputs {
  /// Elastic run under audit (both null = skip the training checks).
  const train::ElasticConfig* config = nullptr;
  const train::ElasticResult* result = nullptr;
  /// Corpus the run trained on; required for the bitwise-recovery replay.
  const data::SceneDataset* corpus = nullptr;
  /// Publish roots to audit (primary checkpoint dir, uploader mirror).
  std::vector<std::string> publish_roots;
  /// Serving audit (issued == 0 = skip).
  ServeAudit serve;
  /// Time ceiling for recovery-bounded (<= 0 skips the time bound); the
  /// count ceiling is train::kMaxRecoveries.
  double max_recovery_seconds = 0;
};

struct InvariantViolation {
  std::string invariant;  // e.g. "publications-atomic"
  std::string detail;
};

struct InvariantReport {
  std::vector<std::string> checked;  // invariants that actually ran
  std::vector<InvariantViolation> violations;

  bool ok() const { return violations.empty(); }
  std::string to_string() const;
};

InvariantReport check_invariants(const InvariantInputs& in);

}  // namespace geofm::chaos
