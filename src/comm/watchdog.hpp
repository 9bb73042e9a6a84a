// Comm watchdog: heartbeat-based health monitoring with per-rendezvous
// deadlines.
//
// `Communicator::start_watchdog` launches one background monitor thread
// per root group. Every poll it walks the group's in-flight collectives,
// its barrier, and (recursively) every sub-communicator, looking for a
// rendezvous some ranks joined more than `deadline_seconds` ago that other
// ranks still have not reached. The ranks that are missing are the
// suspects: the monitor records them on the root group and aborts the
// whole group with a diagnosis like
//
//   rank 3 stalled in all_reduce ticket 42 for 2.0s (last heartbeat 2.1s
//   ago)
//
// so every healthy rank unblocks with `Aborted` instead of deadlocking,
// and the elastic supervisor (`train/elastic.hpp`) can quarantine the
// stalled rank and continue with the survivors.
//
// The deadline bounds *rendezvous skew*, not collective duration: the
// clock for an op starts when its first rank joins, so a deadline must
// exceed the worst healthy-case spread between the first and last rank
// reaching the same collective (scheduling skew, imbalanced compute,
// checkpoint stalls). On an oversubscribed CI box keep it generous —
// hundreds of milliseconds, not tens.
#pragma once

#include <condition_variable>
#include <mutex>
#include <thread>

#include "comm/communicator.hpp"

namespace geofm::comm {

struct WatchdogOptions {
  /// Max age of a partially-joined rendezvous before the missing ranks are
  /// declared stalled and the group is aborted. The monitor thread polls
  /// every deadline_seconds / 4, so detection latency is at most 1.25x
  /// the deadline.
  double deadline_seconds = 1.0;
};

namespace detail {

/// Monitor-thread state owned by the CommGroup it watches (full definition
/// here so ~CommGroup, defined in communicator.cpp, can destroy it).
struct WatchdogState {
  WatchdogOptions opts;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::thread monitor;
};

/// Scan result: which global ranks stalled, and the human diagnosis.
struct StallDiagnosis {
  std::vector<int> suspects;
  std::string message;
};

/// Walks `g` and its subgroups for rendezvous older than
/// `deadline_seconds` with missing ranks (exposed for tests).
StallDiagnosis scan_for_stalls(CommGroup& g, double deadline_seconds);

}  // namespace detail

}  // namespace geofm::comm
