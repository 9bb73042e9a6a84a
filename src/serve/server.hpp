// Frozen-encoder embedding service: checkpoint hot-reload, dynamic
// batching, embedding cache, per-tenant heads — and the overload /
// failure discipline that keeps all of it answering when the world
// around it degrades.
//
// A ModelServer turns an *ordered list* of checkpoint sources — the
// directory the training Checkpointer publishes into, then the
// uploader's mirror of it — into a model distribution tier: a poller
// thread watches the sources (ckpt::published_sources) and, when a
// newer step publishes under any of them, restores a fresh encoder
// off-thread through the elastic reshard-to-world-1 path and swaps it
// in atomically. A mirror candidate is checksum-verified in full
// before its manifest is trusted (ckpt::verify_checkpoint_dir): the
// primary's publication protocol guarantees completeness, a mirror may
// hold an interrupted copy.
//
// Swap protocol (epoch/refcount): the live model is a
// shared_ptr<LoadedModel> guarded by a mutex. The batch worker pins one
// reference per batch, so a swap never frees weights under an in-flight
// forward — old weights die when the last pinned batch completes. Each
// swap bumps a monotonically increasing *epoch*; embeddings are tagged
// with it, and the cache only serves entries whose epoch matches the
// pinned model's, so one request can never observe mixed weights and a
// pre-swap embedding is never served as post-swap.
//
// Request path: submit() queues into the dynamic batcher (futures) with
// bounded admission, per-request deadlines, and priority lanes (see
// batcher.hpp — shed requests resolve immediately with typed
// Overloaded/DeadlineExceeded errors, they never block or hang); the
// single batch worker forms a batch, serves cache hits without touching
// the encoder, runs ONE batched encoder forward for the misses
// (`serve.encode`), applies the requested per-tenant heads, and
// fulfills every promise.
//
// Failure model — detect, degrade, recover:
//   * A reload that fails for any reason — unreadable shard, torn
//     mirror copy, injected IO fault — is counted
//     (`serve.reload_failures`), logged, and dropped: the server keeps
//     serving the current weights. After `breaker_threshold` consecutive
//     failing reload ticks a *circuit breaker* trips: the poller stops
//     hammering the torn publication and backs off exponentially with
//     seeded jitter (util/backoff — the uploader's retry shape), the
//     `serve.degraded` gauge reports breaker-open, and a half-open
//     probe retries when the backoff expires (successive trips escalate
//     the backoff; a success closes the breaker). reload_now() is the
//     operator override: it ignores an open breaker.
//   * When the primary root is missing or its newest step is corrupt,
//     the next reload *fails over*: the freshest verifiable candidate
//     across the remaining sources is restored instead
//     (`serve.failovers`, degraded mode kMirror while the served step
//     came from a non-primary source).
//   * When NO source holds a complete checkpoint and
//     `unload_on_sourceless` is set (operator opt-in: treat a wiped
//     publication as a recall), the server drops its weights and enters
//     *cache-only* mode: epoch-pinned cache hits are still answered
//     (flagged `degraded`), everything else is shed with a typed
//     `Degraded` error, and the first re-published checkpoint restores
//     full service. `allow_degraded_start` starts a server in this mode
//     when nothing is loadable at construction instead of throwing.
//
// Instrumentation: `serve.request` (blocking API, caller thread),
// `serve.batch` / `serve.encode` (worker), `serve.reload` (poller)
// trace spans; `serve.*` counters/histograms including the shed/breaker
// family (shed_overload, shed_deadline, shed_degraded, breaker_trips,
// failovers) and the `serve.degraded` mode gauge; `serve.breaker_open`
// and `serve.failover` instants land in the run-health report's
// recovery timeline and the shed counts in its serving SLO section.
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "models/mae.hpp"
#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/heads.hpp"
#include "util/backoff.hpp"
#include "util/common.hpp"

namespace geofm::serve {

/// What the server is degraded to, if anything. Reported by stats() and
/// the `serve.degraded` gauge (as the numeric value).
enum class DegradedMode : int {
  kHealthy = 0,     // serving the primary source, breaker closed
  kBreakerOpen = 1, // reloads suspended behind the circuit breaker
  kMirror = 2,      // served weights came from a non-primary source
  kCacheOnly = 3,   // no weights loadable: hits answered, misses shed
};

struct ServerConfig {
  std::string checkpoint_root;  // primary manifest directory
  // Ordered failover list scanned by every (re)load: entry 0 is the
  // most trusted. Empty = {checkpoint_root}. Typical: {publish dir,
  // uploader mirror}. Non-primary candidates are checksum-verified in
  // full before their manifest is trusted.
  std::vector<std::string> checkpoint_sources;
  models::MaeConfig model;      // architecture the checkpoints hold
  i64 max_batch = 8;
  i64 max_delay_us = 1000;
  i64 max_queue = 1024;       // bounded admission; 0 = unbounded (no shed)
  i64 default_deadline_us = 0;  // applied when a request carries none
  i64 cache_capacity = 1024;  // embedding-cache entries; 0 disables
  double poll_interval_seconds = 0.05;  // <= 0 disables the poller thread
  // ----- resilience knobs ------------------------------------------------
  int breaker_threshold = 3;  // consecutive failing reload ticks to trip
  BackoffPolicy breaker_backoff{/*initial_seconds=*/0.5,
                                /*max_seconds=*/30.0,
                                /*jitter=*/0.5,
                                /*seed=*/0xb1eaULL};
  bool allow_degraded_start = false;    // cache-only instead of ctor throw
  bool unload_on_sourceless = false;    // drop weights when all sources die
  /// Per-tenant admission weights, passed through to the batcher's
  /// fair-share shedding (see BatcherOptions::tenant_weights). Empty =
  /// lanes only, no tenant arbitration.
  std::map<std::string, double> tenant_weights;
};

struct ServerStats {
  i64 requests = 0;   // fulfilled requests
  i64 batches = 0;    // batches formed
  i64 encodes = 0;    // batched encoder forwards (cache hits skip these)
  i64 encoded_images = 0;
  i64 cache_hits = 0;
  i64 cache_misses = 0;
  i64 reloads = 0;          // successful swaps, including the initial load
  i64 reload_failures = 0;  // failed attempts (server kept old weights)
  i64 shed_overload = 0;    // typed sheds: queue full / displaced
  i64 shed_deadline = 0;    // typed sheds: deadline missed or hopeless
  i64 shed_shutdown = 0;    // typed sheds: completed at shutdown
  i64 shed_degraded = 0;    // typed sheds: cache-only misses
  i64 breaker_trips = 0;    // circuit-breaker opens
  i64 shed_fair_share = 0;  // of shed_overload: tenant fair-share bumps
  i64 failovers = 0;        // swaps restored from a non-primary source
  bool breaker_open = false;  // reload circuit breaker currently open
  DegradedMode degraded = DegradedMode::kHealthy;
  i64 model_step = -1;      // checkpoint step currently served
  i64 model_epoch = 0;      // swap generation (1 = initial load)
  std::size_t model_source = 0;  // index into the source list
};

class ModelServer {
 public:
  /// Loads the newest verifiable checkpoint across the configured
  /// sources synchronously and starts the batch worker plus, if
  /// poll_interval_seconds > 0, the reload poller. Throws geofm::Error
  /// if nothing is loadable — unless allow_degraded_start, which starts
  /// in cache-only mode instead.
  explicit ModelServer(ServerConfig cfg);
  /// stop(): drains accepted requests, then joins both threads.
  ~ModelServer();

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Queues a request; the future resolves when its batch completes —
  /// or immediately with a typed Overloaded / DeadlineExceeded /
  /// ShutdownError / Degraded error when the request is shed. Throws
  /// geofm::Error only on a shape mismatch (a caller bug, not load).
  std::future<EmbedResult> submit(EmbedRequest req);

  /// Blocking convenience: submit + wait, wrapped in a `serve.request`
  /// span on the calling thread. Shed errors surface as the typed
  /// exceptions above.
  EmbedResult embed(EmbedRequest req);

  /// One synchronous reload check across the sources (what the poller
  /// does each tick) — but ignoring an open circuit breaker: this is
  /// the operator's manual override. Returns true iff a checkpoint was
  /// loaded and swapped in.
  bool reload_now();

  i64 model_step() const;
  i64 model_epoch() const;
  DegradedMode degraded_mode() const;
  ServerStats stats() const;

  HeadRegistry& heads() { return heads_; }
  const ServerConfig& config() const { return cfg_; }

  /// Stops admission, drains the queue, joins worker + poller. Idempotent;
  /// called by the destructor.
  void stop();

 private:
  struct LoadedModel {
    std::unique_ptr<models::MAE> model;  // nullptr = cache-only sentinel
    i64 step = -1;
    i64 epoch = 0;
    std::string source;  // step directory restored from
    std::size_t source_index = 0;  // which configured source it came from
  };

  std::shared_ptr<LoadedModel> current() const;
  /// Builds a fresh model from `dir` (throws on any load failure).
  std::shared_ptr<LoadedModel> load_model(i64 step, const std::string& dir,
                                          i64 epoch, std::size_t source);
  const std::vector<std::string>& sources() const;
  /// One reload pass over the sources. `force` = ignore an open breaker.
  bool try_reload(bool force);
  void install(std::shared_ptr<LoadedModel> fresh);
  void set_degraded(DegradedMode mode);
  void worker_loop();
  void poller_loop();
  void process_batch(std::vector<PendingRequest>& batch);

  const ServerConfig cfg_;
  const std::vector<std::string> sources_;
  RequestBatcher batcher_;
  EmbeddingCache cache_;
  HeadRegistry heads_;

  mutable std::mutex model_mu_;
  std::shared_ptr<LoadedModel> current_;

  std::mutex reload_mu_;  // serializes poller ticks and reload_now(),
                          // and guards the breaker state below
  int consecutive_failed_ticks_ = 0;
  int breaker_attempt_ = 0;          // escalation count while failing
  double breaker_open_until_ = 0;    // monotonic_seconds; 0 = closed

  std::mutex poll_mu_;
  std::condition_variable poll_cv_;
  bool stop_poller_ = false;

  std::thread worker_;
  std::thread poller_;
  std::atomic<bool> stopped_{false};
  std::atomic<int> degraded_{0};  // DegradedMode, readable without locks
  // Breaker state mirrored out of reload_mu_ for stats() and the
  // `serve.breaker` gauge (prometheus_text renders every gauge).
  std::atomic<bool> breaker_open_{false};

  std::atomic<i64> requests_{0};
  std::atomic<i64> batches_{0};
  std::atomic<i64> encodes_{0};
  std::atomic<i64> encoded_images_{0};
  std::atomic<i64> reloads_{0};
  std::atomic<i64> reload_failures_{0};
  std::atomic<i64> shed_degraded_{0};
  std::atomic<i64> breaker_trips_{0};
  std::atomic<i64> failovers_{0};
};

}  // namespace geofm::serve
