// Retrying background checkpoint uploader: streams published checkpoints
// to a secondary location while training continues.
//
// The paper's runs drain checkpoints off-node (Lustre -> archival
// storage) so a node-local disk loss cannot cost the campaign; this is
// the in-process analogue. An `Uploader` watches one checkpoint root:
// whenever the save path publishes `step_N/` there, the publication hook
// (`notify_checkpoint_published`, called from the Checkpointer's publish
// path) enqueues the step and returns immediately — training never
// blocks on upload. A background thread then mirrors the step directory
// to `destination`:
//
//   queued -> copying (to a hidden `.step_N.tmp/` under the destination)
//          -> verifying (re-reads every shard record at the destination
//             and checks its FNV-1a checksum — corruption in transit is
//             caught before the copy is trusted)
//          -> published (atomic rename to `step_N/`, destination LATEST
//             updated)
//
// Any failure — injected via the io-fault seam (`IoPath::kUpload`), a
// real filesystem error, a checksum mismatch at verify, or a per-attempt
// timeout — discards the temp dir and retries with exponential backoff
// and deterministic jitter, up to `max_retries` attempts. Exhausting the
// attempts *degrades gracefully*: the step is recorded in
// `stats().gave_up` and the `upload.gave_up` metric, a log line fires,
// and the uploader moves on to the next queued step.
//
// Retention integration: `apply_retention` (checkpoint.cpp) consults
// `uploader_protects(root, step)` before dooming a step directory, so GC
// never deletes a checkpoint that is queued, mid-upload, or the newest
// one the secondary location is known to hold (the recovery anchor if
// the primary root is lost).
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "util/common.hpp"

namespace geofm::ckpt {

struct UploaderOptions {
  std::string source;       // checkpoint root to mirror (registered)
  std::string destination;  // secondary location; empty = uploads disabled
  int owner_rank = 0;       // rank whose trace track the uploader joins
  int max_retries = 5;      // attempts per checkpoint before giving up
  double initial_backoff_seconds = 0.05;
  double max_backoff_seconds = 2.0;
  // Bytes/second cap on mirror copies; 0 = unthrottled. Mirroring shares
  // the filesystem with the checkpoint writer and the serving tier's
  // reload path — an unthrottled bulk copy can starve both. The pacing
  // is file-granular (sleep after each shard until the attempt's
  // cumulative bytes fit the rate), interruptible by shutdown, and the
  // slept time is counted in `stats().throttled_seconds` and the
  // `upload.throttled_seconds` metric. Throttle sleeps count against
  // the 30 s per-attempt timeout; size the cap so a step fits in it.
  double max_bytes_per_second = 0;

  bool enabled() const { return !destination.empty(); }
};

struct UploaderStats {
  i64 uploaded = 0;   // checkpoints verified + published at destination
  i64 attempts = 0;   // upload attempts started
  i64 retries = 0;    // attempts after the first, per checkpoint
  i64 failures = 0;   // failed attempts (each retried or given up)
  i64 gave_up = 0;    // checkpoints abandoned after max_retries
  i64 newest_uploaded_step = -1;
  double throttled_seconds = 0;  // slept under the bandwidth cap
};

class Uploader {
 public:
  /// Registers for `opts.source` (one uploader per root) and starts the
  /// background thread. Requires `opts.enabled()`.
  explicit Uploader(UploaderOptions opts);
  /// Unregisters, finishes the in-flight attempt (not the whole queue),
  /// and joins. Call drain() first to guarantee the queue is flushed.
  ~Uploader();

  Uploader(const Uploader&) = delete;
  Uploader& operator=(const Uploader&) = delete;

  /// Queues `step_<step>/` under the source root for upload. Never
  /// blocks; duplicates and already-uploaded steps are dropped.
  void enqueue(i64 step);

  /// Blocks until the queue is empty and no upload is in flight (given-up
  /// checkpoints count as drained).
  void drain();

  /// True while `step` must survive retention GC: queued, mid-upload, or
  /// the newest step verified at the destination.
  bool protects(i64 step) const;

  i64 newest_uploaded_step() const;
  UploaderStats stats() const;

 private:
  void run();
  void upload_once(i64 step);  // one attempt; throws on failure
  void copy_file(const std::string& from, const std::string& to,
                 bool allow_torn);
  void check_deadline(double started, i64 step) const;
  /// Sleeps (interruptibly) until `bytes` copied since `started` fit
  /// under max_bytes_per_second. No-op when unthrottled or stopping.
  void throttle(double started, i64 bytes);

  const UploaderOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<i64> queue_;
  i64 current_ = -1;  // step mid-upload, -1 if idle
  i64 newest_uploaded_ = -1;
  UploaderStats stats_;
  bool stop_ = false;
  std::thread worker_;
};

/// Publication hook: called by the checkpoint publish path after
/// `step_N/` lands under `root`. Enqueues on the uploader registered for
/// `root`, if any; otherwise a no-op. Never blocks on IO.
void notify_checkpoint_published(const std::string& root, i64 step);

/// True if an uploader registered for `root` currently protects `step`
/// (see Uploader::protects). Retention GC skips protected steps.
bool uploader_protects(const std::string& root, i64 step);

}  // namespace geofm::ckpt
