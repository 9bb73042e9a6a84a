#include "train/elastic.hpp"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io_fault.hpp"
#include "comm/watchdog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_context.hpp"
#include "util/thread_pool.hpp"

namespace geofm::train {
namespace {

struct Outcome {
  enum class Kind { kCompleted, kKilled, kAborted, kFailed };
  Kind kind = Kind::kFailed;
  std::exception_ptr error;
  std::string what;
  DistributedPretrainResult result;
};

struct Assignment {
  comm::Communicator comm;
  DistributedPretrainConfig train;
  // Probationary rendezvous instead of a training attempt: run the
  // health-check hook, then barrier + all-reduce with the supervisor.
  bool probe = false;
};

// Supervisor <-> worker handoff: one slot per identity. Workers block
// until their slot holds an assignment (or they are retired), run the
// attempt (or probe), and report an outcome. Identities with neither an
// assignment nor retirement are *parked*: they sit in the wait, belong
// to no communicator group, and are invisible to every watchdog.
struct Shared {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::optional<Assignment>> work;
  std::vector<std::optional<Outcome>> outcome;
  std::vector<char> retired;
  double first_failure_ts = 0;  // monotonic_seconds of the first report
};

/// Watchdog deadline for the probationary rendezvous; a candidate whose
/// rendezvous skew exceeds it is rejected, not admitted.
constexpr double kProbationDeadlineSeconds = 0.75;
/// Give up on growing after this many probation rounds.
constexpr int kMaxReadmissions = 4;

/// Largest k in [1, avail] such that world+k stays within max_world and
/// divides the global batch; 0 when no growth is possible.
int admissible_growth(int world, int avail, int max_world, i64 global_batch) {
  for (int k = avail; k >= 1; --k) {
    const int grown = world + k;
    if (grown <= max_world && global_batch % grown == 0) return k;
  }
  return 0;
}

/// Scoped arming of the flight recorder (and the tracing it feeds) for
/// one elastic run, so every detect -> quarantine -> reform cycle leaves
/// a postmortem bundle. If tracing was off, it is enabled with a reduced
/// per-thread buffer — the persistent worker threads would otherwise
/// allocate the default 64k-event track each — and both the enablement
/// and the capacity are restored on exit. Recorders already armed by the
/// caller (GEOFM_TRACE / GEOFM_POSTMORTEM / tests) are left untouched.
class FlightScope {
 public:
  explicit FlightScope(bool arm) : arm_(arm) {
    if (!arm_) return;
    auto& flight = obs::FlightRecorder::instance();
    flight_was_enabled_ = flight.enabled();
    if (!flight_was_enabled_) flight.enable();
    trace_was_enabled_ = obs::trace_enabled();
    if (!trace_was_enabled_) {
      auto& rec = obs::TraceRecorder::instance();
      old_capacity_ = rec.buffer_capacity();
      rec.set_buffer_capacity(16384);
      rec.enable();
    }
  }
  ~FlightScope() {
    if (!arm_) return;
    if (!trace_was_enabled_) {
      auto& rec = obs::TraceRecorder::instance();
      rec.disable();
      rec.set_buffer_capacity(old_capacity_);
    }
    if (!flight_was_enabled_) obs::FlightRecorder::instance().disable();
  }
  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;

 private:
  bool arm_ = false;
  bool flight_was_enabled_ = false;
  bool trace_was_enabled_ = false;
  u64 old_capacity_ = 0;
};

}  // namespace

ElasticResult run_elastic(const ElasticConfig& cfg,
                          const data::SceneDataset& corpus) {
  const int spares = cfg.readmission.spare_identities;
  const int total_ids = cfg.world + spares;
  GEOFM_CHECK(cfg.world >= 1, "elastic world must be positive");
  GEOFM_CHECK(spares >= 0, "spare_identities must be >= 0");
  GEOFM_CHECK(cfg.min_world >= 1 && cfg.min_world <= cfg.world,
              "elastic min_world out of range");
  GEOFM_CHECK(cfg.train.global_batch % cfg.world == 0,
              "global batch " << cfg.train.global_batch
                              << " not divisible by the initial world "
                              << cfg.world);
  GEOFM_CHECK(cfg.train.fault_injector == nullptr &&
                  cfg.train.resume_from.empty() && !cfg.train.recovery_resume,
              "run_elastic owns the train config's fault/resume fields; "
              "use ElasticConfig.faults / checkpoint_dir");
  for (const auto& e : cfg.faults.events) {
    GEOFM_CHECK(e.rank < total_ids,
                "fault plan targets rank " << e.rank
                                           << " beyond the identity space");
  }

  obs::set_thread_label("elastic.supervisor");

  // Postmortem bundles land next to the checkpoints; no checkpoint dir
  // means nowhere durable to archive, so the recorder stays as-is (env
  // GEOFM_POSTMORTEM still works independently).
  const std::string pm_dir = cfg.train.checkpoint_dir.empty()
                                 ? std::string()
                                 : cfg.train.checkpoint_dir + "/postmortem";
  FlightScope flight_scope(!pm_dir.empty());

  Shared sh;
  sh.work.resize(static_cast<size_t>(total_ids));
  sh.outcome.resize(static_cast<size_t>(total_ids));
  sh.retired.assign(static_cast<size_t>(total_ids), 0);

  auto worker = [&](int identity) {
    for (;;) {
      std::optional<Assignment> a;
      {
        std::unique_lock<std::mutex> lk(sh.mu);
        sh.cv.wait(lk, [&] {
          return sh.retired[static_cast<size_t>(identity)] ||
                 sh.work[static_cast<size_t>(identity)].has_value();
        });
        if (sh.retired[static_cast<size_t>(identity)]) return;
        a = std::move(sh.work[static_cast<size_t>(identity)]);
        sh.work[static_cast<size_t>(identity)].reset();
      }
      // The thread re-labels per attempt: its rank changes as the world
      // shrinks or grows, while its identity (and fault targeting) stays
      // fixed.
      set_thread_rank(a->comm.rank());
      obs::set_thread_label(a->probe ? "rank.probe" : "rank");
      Outcome out;
      if (a->probe) {
        try {
          if (cfg.readmission.probation_hook) {
            cfg.readmission.probation_hook(identity);
          }
          a->comm.barrier();
          Tensor token = Tensor::full({1}, 1.0f);
          a->comm.all_reduce(token);
          out.kind = Outcome::Kind::kCompleted;
        } catch (const comm::Aborted& e) {
          out.kind = Outcome::Kind::kAborted;
          out.what = e.what();
        } catch (const std::exception& e) {
          out.kind = Outcome::Kind::kFailed;
          out.what = e.what();
          // Unblock the supervisor and fellow candidates immediately
          // rather than waiting for the probation watchdog.
          a->comm.abort(std::string("probation failure on identity ") +
                        std::to_string(identity) + ": " + e.what());
        }
      } else {
        try {
          // The world shrinks and grows between attempts, so the kernel
          // share is set per attempt.
          const ComputeShare share(a->comm.size());
          obs::TraceScope span("rank.attempt", "runtime", "world",
                               a->comm.size(), "threads", share.threads());
          Rng rng(cfg.model_seed);
          models::MAE mae(cfg.model, rng);
          parallel::Fsdp fsdp(mae, a->comm, cfg.fsdp);
          out.result =
              pretrain_mae_distributed(mae, fsdp, a->comm, corpus, a->train);
          out.kind = Outcome::Kind::kCompleted;
        } catch (const comm::RankKilled& e) {
          out.kind = Outcome::Kind::kKilled;
          out.error = std::current_exception();
          out.what = e.what();
        } catch (const comm::Aborted& e) {
          out.kind = Outcome::Kind::kAborted;
          out.error = std::current_exception();
          out.what = e.what();
        } catch (const std::exception& e) {
          out.kind = Outcome::Kind::kFailed;
          out.error = std::current_exception();
          out.what = e.what();
        } catch (...) {
          out.kind = Outcome::Kind::kFailed;
          out.error = std::current_exception();
        }
      }
      a.reset();  // drop the attempt's communicator before reporting
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        if (out.kind != Outcome::Kind::kCompleted &&
            sh.first_failure_ts == 0) {
          sh.first_failure_ts = monotonic_seconds();
        }
        sh.outcome[static_cast<size_t>(identity)] = std::move(out);
      }
      sh.cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(total_ids));
  for (int id = 0; id < total_ids; ++id) threads.emplace_back(worker, id);
  auto join_all = [&] {
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      std::fill(sh.retired.begin(), sh.retired.end(), 1);
    }
    sh.cv.notify_all();
    for (auto& t : threads) t.join();
  };

  auto& registry = obs::MetricsRegistry::instance();
  auto& rec_count = registry.counter("recovery.count");
  auto& rec_seconds = registry.counter("recovery.seconds");
  auto& rec_world = registry.gauge("recovery.world");
  auto& readmit_count = registry.counter("readmit.count");
  auto& readmit_seconds = registry.counter("readmit.seconds");
  auto& readmit_rejected = registry.counter("readmit.probation_failures");

  ElasticResult res;
  res.fired_plan.seed = cfg.faults.seed;
  std::vector<int> live(static_cast<size_t>(cfg.world));
  for (int id = 0; id < cfg.world; ++id) live[static_cast<size_t>(id)] = id;
  // Identities awaiting (re-)admission: spare identities from the start,
  // plus quarantined ones when the policy re-admits them.
  std::vector<int> parked;
  for (int id = cfg.world; id < total_ids; ++id) parked.push_back(id);
  std::vector<int> pending_readmitted;  // admitted, next attempt not yet run
  int readmit_rounds = 0;
  std::vector<comm::FaultEvent> remaining = cfg.faults.events;
  double pending_failure_ts = 0;  // consumed when the next attempt starts

  // Rejects `failed` candidates permanently: retired, counted, recorded.
  auto reject_candidates = [&](const std::vector<int>& failed) {
    if (failed.empty()) return;
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      for (int id : failed) sh.retired[static_cast<size_t>(id)] = 1;
    }
    sh.cv.notify_all();
    for (int id : failed) {
      parked.erase(std::remove(parked.begin(), parked.end(), id),
                   parked.end());
      res.probation_rejected.push_back(id);
    }
    readmit_rejected.add(static_cast<double>(failed.size()));
  };

  // Probationary rendezvous: candidates + supervisor form a probe group,
  // run the health hook, and complete barrier + all-reduce under the
  // probation watchdog. Flaky candidates are rejected and the healthy
  // remainder retried, so one bad returner cannot block the others.
  auto run_probation = [&](std::vector<int> cand) -> std::vector<int> {
    while (!cand.empty()) {
      const int n = static_cast<int>(cand.size());
      auto pgroup = comm::make_group(n + 1);
      comm::Communicator pad(pgroup, n);  // the supervisor's probe rank
      comm::WatchdogOptions wopts;
      wopts.deadline_seconds = kProbationDeadlineSeconds;
      pad.start_watchdog(wopts);
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        for (int i = 0; i < n; ++i) {
          const auto id = static_cast<size_t>(cand[static_cast<size_t>(i)]);
          sh.outcome[id].reset();
          sh.work[id] = Assignment{comm::Communicator(pgroup, i), cfg.train,
                                   /*probe=*/true};
        }
      }
      sh.cv.notify_all();
      bool supervisor_ok = true;
      try {
        pad.barrier();
        Tensor token = Tensor::full({1}, 1.0f);
        pad.all_reduce(token);
      } catch (const comm::Aborted&) {
        supervisor_ok = false;
      }
      {
        std::unique_lock<std::mutex> lk(sh.mu);
        sh.cv.wait(lk, [&] {
          return std::all_of(cand.begin(), cand.end(), [&](int id) {
            return sh.outcome[static_cast<size_t>(id)].has_value();
          });
        });
      }
      std::vector<int> failed;
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        for (int id : cand) {
          const Outcome& o = *sh.outcome[static_cast<size_t>(id)];
          if (o.kind == Outcome::Kind::kFailed ||
              o.kind == Outcome::Kind::kKilled) {
            failed.push_back(id);
          }
        }
      }
      for (int r : pad.abort_suspects()) {
        if (r >= 0 && r < n) failed.push_back(cand[static_cast<size_t>(r)]);
      }
      std::sort(failed.begin(), failed.end());
      failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
      if (supervisor_ok && failed.empty()) return cand;  // all admitted
      if (failed.empty()) failed = cand;  // undiagnosable: reject the round
      if (cfg.train.verbose) {
        std::string f;
        for (int id : failed) f += (f.empty() ? "" : ",") + std::to_string(id);
        GEOFM_WARN("elastic: probation rejected identity(s) " << f);
      }
      reject_candidates(failed);
      std::vector<int> rest;
      for (int id : cand) {
        if (!std::binary_search(failed.begin(), failed.end(), id)) {
          rest.push_back(id);
        }
      }
      cand = std::move(rest);
    }
    return {};
  };

  try {
    for (;;) {
      const int w = static_cast<int>(live.size());
      ElasticAttempt att;
      att.world = w;
      att.readmitted = pending_readmitted;
      pending_readmitted.clear();

      // ----- re-form: fresh group over survivors, watchdog re-armed ------
      std::shared_ptr<geofm::comm::detail::CommGroup> group;
      comm::FaultPlan attempt_plan;
      attempt_plan.seed = cfg.faults.seed;
      std::vector<comm::FaultEvent> attempt_events_by_identity;
      // Pending events whose identity is not in this attempt are held
      // back, NOT dropped: a re-admitted identity's events must fire
      // when it returns.
      std::vector<comm::FaultEvent> held_events;
      {
        std::optional<obs::TraceScope> reform;
        if (!res.attempts.empty()) {
          reform.emplace("recover.reform", "recover", "world", w);
        }
        group = comm::make_group(w);
        // Events still pending whose identity is in this attempt,
        // remapped to attempt ranks (identity live[r] is rank r).
        for (const comm::FaultEvent& e : remaining) {
          const auto it = std::find(live.begin(), live.end(), e.rank);
          if (it == live.end() && e.rank != -1) {
            held_events.push_back(e);
            continue;
          }
          comm::FaultEvent mapped = e;
          if (e.rank != -1) {
            mapped.rank = static_cast<int>(it - live.begin());
          }
          attempt_plan.events.push_back(std::move(mapped));
          attempt_events_by_identity.push_back(e);
        }
      }
      comm::Communicator probe(group, 0);  // supervisor handle: watchdog,
                                           // abort diagnosis (never posts)
      if (cfg.watchdog_deadline_seconds > 0) {
        comm::WatchdogOptions wopts;
        wopts.deadline_seconds = cfg.watchdog_deadline_seconds;
        probe.start_watchdog(wopts);
      }
      std::shared_ptr<comm::FaultInjector> injector;
      if (!attempt_plan.events.empty()) {
        injector = std::make_shared<comm::FaultInjector>(attempt_plan);
      }
      // The same injector serves the storage path: checkpoint writes,
      // restore reads, and uploader copies consult it via the io-fault
      // seam. Re-installed (or cleared) per attempt so IO op counters
      // reset with the post counters.
      ckpt::install_io_fault_injector(injector);

      DistributedPretrainConfig tc = cfg.train;
      tc.fault_injector = injector;
      tc.watchdog_deadline_seconds = cfg.watchdog_deadline_seconds;
      tc.recovery_resume = !res.attempts.empty();
      i64 resume_step = 0;
      if (!cfg.train.checkpoint_dir.empty()) {
        // Resume scans the primary root and, when configured, the upload
        // mirror: a wiped or torn primary no longer costs the whole
        // campaign when the uploader drained the step off-node. Mirror
        // candidates are checksum-verified before being trusted — an
        // interrupted mirror copy must not become the resume source.
        std::vector<std::string> roots{cfg.train.checkpoint_dir};
        if (cfg.train.upload.enabled()) {
          roots.push_back(cfg.train.upload.destination);
        }
        for (const ckpt::PublishedSource& cand :
             ckpt::published_sources(roots)) {
          if (cand.source > 0) {
            try {
              ckpt::verify_checkpoint_dir(cand.dir);
            } catch (const std::exception& e) {
              GEOFM_WARN("elastic: mirror resume candidate " << cand.dir
                         << " failed verification: " << e.what());
              continue;
            }
          }
          // Pin the resume source now: later saves may add newer steps
          // (or retention may GC this one), and the attempt record must
          // name what was actually restored.
          att.resumed_from = cand.dir;
          tc.resume_from = att.resumed_from;
          resume_step = cand.step + 1;
          break;
        }
      }

      // ----- grow-back window: stop at the next checkpoint boundary ------
      // When parked identities could re-join, cut this attempt at the
      // next step the driver checkpoints; its completion is then a
      // boundary stop where probation + admission run.
      if (cfg.readmission.enabled() && !parked.empty() &&
          cfg.train.checkpoint_every_n_steps > 0 &&
          !cfg.train.checkpoint_dir.empty() &&
          readmit_rounds < kMaxReadmissions &&
          admissible_growth(w, static_cast<int>(parked.size()), cfg.world,
                            cfg.train.global_batch) > 0) {
        const i64 n = cfg.train.checkpoint_every_n_steps;
        const i64 boundary = (resume_step / n + 1) * n;
        if (boundary < cfg.train.steps) {
          tc.steps = boundary;
          att.truncated_for_growth = true;
        }
      }

      // ----- launch the attempt ------------------------------------------
      if (!pm_dir.empty()) {
        // A stale capture (probation abort, an earlier run in-process)
        // must not shadow this attempt's failure: first capture wins.
        obs::FlightRecorder::instance().discard();
      }
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.first_failure_ts = 0;
        for (int r = 0; r < w; ++r) {
          sh.outcome[static_cast<size_t>(live[static_cast<size_t>(r)])]
              .reset();
          sh.work[static_cast<size_t>(live[static_cast<size_t>(r)])] =
              Assignment{comm::Communicator(group, r), tc, /*probe=*/false};
        }
      }
      sh.cv.notify_all();
      if (pending_failure_ts > 0) {
        const double s = monotonic_seconds() - pending_failure_ts;
        res.recovery_seconds += s;
        rec_seconds.add(s);
        pending_failure_ts = 0;
      }

      // ----- wait for every rank's outcome; time failure detection -------
      {
        std::unique_lock<std::mutex> lk(sh.mu);
        std::optional<obs::TraceScope> detect;
        auto all_reported = [&] {
          return std::all_of(live.begin(), live.end(), [&](int id) {
            return sh.outcome[static_cast<size_t>(id)].has_value();
          });
        };
        while (!all_reported()) {
          sh.cv.wait(lk);
          if (!detect && sh.first_failure_ts > 0) {
            detect.emplace("recover.detect", "recover", "world", w);
          }
        }
        pending_failure_ts = sh.first_failure_ts;
      }

      if (injector) {
        const std::vector<bool> fired = injector->fired();
        std::vector<comm::FaultEvent> next;
        for (size_t i = 0; i < attempt_events_by_identity.size(); ++i) {
          if (i < fired.size() && fired[i]) {
            ++att.faults_fired;
            res.fired_plan.events.push_back(attempt_events_by_identity[i]);
          } else {
            next.push_back(attempt_events_by_identity[i]);
          }
        }
        remaining = std::move(next);
        remaining.insert(remaining.end(), held_events.begin(),
                         held_events.end());
      }

      // ----- collect ------------------------------------------------------
      std::vector<int> dead;
      std::exception_ptr hard_failure;
      std::exception_ptr any_error;
      bool all_completed = true;
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        for (int id : live) {
          const Outcome& o = *sh.outcome[static_cast<size_t>(id)];
          if (o.kind != Outcome::Kind::kCompleted) {
            all_completed = false;
            if (att.failure.empty()) att.failure = o.what;
            if (!any_error) any_error = o.error;
          }
          if (o.kind == Outcome::Kind::kKilled) dead.push_back(id);
          if (o.kind == Outcome::Kind::kFailed && !hard_failure) {
            hard_failure = o.error;
          }
        }
        if (all_completed) {
          const Outcome& o0 = *sh.outcome[static_cast<size_t>(live[0])];
          att.completed = true;
          att.start_step = o0.result.start_step;
          att.losses = o0.result.step_losses;
          if (!att.truncated_for_growth) res.final_result = o0.result;
        }
      }
      // ----- postmortem: archive the failure's flight capture -------------
      // One bundle per recovery attempt: whatever the abort path froze
      // (watchdog diagnosis, in-flight rendezvous state, last-N spans,
      // metrics) — or a synthesized capture when the failure never went
      // through the comm abort hook (e.g. a checkpoint error). Archiving
      // failures are warned, never fatal: evidence must not kill recovery.
      if (!all_completed && !pm_dir.empty()) {
        auto& flight = obs::FlightRecorder::instance();
        if (!flight.has_capture()) flight.capture_now(att.failure);
        // The realized fault schedule rides along in the bundle (minus
        // unserializable kCallback events), identity-keyed — which is
        // exactly the replayable form: chaos::plan_from_postmortem turns
        // the bundle back into a campaign that reproduces this failure.
        std::string fired_json;
        {
          comm::FaultPlan realized;
          realized.seed = res.fired_plan.seed;
          for (const auto& e : res.fired_plan.events) {
            if (e.kind != comm::FaultEvent::Kind::kCallback) {
              realized.events.push_back(e);
            }
          }
          fired_json = comm::plan_to_json(realized);
        }
        try {
          att.postmortem = flight.archive(
              pm_dir, {{"attempt", std::to_string(res.attempts.size())},
                       {"world", std::to_string(w)},
                       {"resumed_from", att.resumed_from},
                       {"failure", att.failure},
                       {"fired_plan", fired_json}});
          if (cfg.train.verbose) {
            GEOFM_INFO("elastic: postmortem bundle at " << att.postmortem);
          }
        } catch (const std::exception& e) {
          GEOFM_WARN("elastic: postmortem archive failed: " << e.what());
        }
      }

      if (all_completed && att.truncated_for_growth) {
        // ----- boundary stop: probation + admission ----------------------
        pending_failure_ts = 0;
        const bool was_verbose = cfg.train.verbose;
        const double t0 = monotonic_seconds();
        std::vector<int> joining;
        {
          obs::TraceScope readmit(
              "recover.readmit", "recover", "world", w, "candidates",
              static_cast<i64>(parked.size()));
          ++readmit_rounds;
          std::vector<int> cand = parked;
          std::sort(cand.begin(), cand.end());
          const std::vector<int> admitted = run_probation(cand);
          const int k =
              admissible_growth(w, static_cast<int>(admitted.size()),
                                cfg.world, cfg.train.global_batch);
          joining.assign(admitted.begin(), admitted.begin() + k);
          // Admitted-but-unjoinable candidates (divisibility, world cap)
          // stay parked for a later boundary.
          for (int id : joining) {
            parked.erase(std::remove(parked.begin(), parked.end(), id),
                         parked.end());
          }
        }
        readmit_seconds.add(monotonic_seconds() - t0);
        res.attempts.push_back(std::move(att));
        if (!joining.empty()) {
          live.insert(live.end(), joining.begin(), joining.end());
          std::sort(live.begin(), live.end());
          pending_readmitted = joining;
          ++res.readmissions;
          readmit_count.add(1);
          rec_world.set(static_cast<double>(live.size()));
          if (was_verbose) {
            std::string j;
            for (int id : joining) {
              j += (j.empty() ? "" : ",") + std::to_string(id);
            }
            GEOFM_INFO("elastic: re-admitted identity(s) "
                       << j << " at step boundary; growing to world "
                       << live.size());
          }
        }
        continue;
      }
      if (all_completed) {
        res.final_identities = live;
        res.attempts.push_back(std::move(att));
        if (!pm_dir.empty()) {
          // End-of-run health report next to the bundles: cross-rank step
          // time percentiles, phase breakdown, straggler detection, and
          // the recovery timeline reconstructed from recover.* spans.
          try {
            std::filesystem::create_directories(pm_dir);
            write_file(pm_dir + "/run_health.json",
                       obs::report_to_json(obs::build_run_health_report()));
          } catch (const std::exception& e) {
            GEOFM_WARN("elastic: run-health report failed: " << e.what());
          }
        }
        break;
      }
      if (hard_failure) {
        res.attempts.push_back(std::move(att));
        std::rethrow_exception(hard_failure);  // not a comm fault: fatal
      }
      for (int r : probe.abort_suspects()) {
        // Watchdog suspects are attempt ranks mapped to global identities
        // already (subgroup diagnoses map through global_ranks), and the
        // attempt group's global ranks are its own 0..w-1 — translate
        // through live[].
        if (r >= 0 && r < w) dead.push_back(live[static_cast<size_t>(r)]);
      }
      std::sort(dead.begin(), dead.end());
      dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
      if (dead.empty()) {
        // Aborted survivors but nobody diagnosably dead: nothing to
        // quarantine, so retrying would fail identically. Propagate.
        res.attempts.push_back(std::move(att));
        if (any_error) std::rethrow_exception(any_error);
        throw Error("elastic: attempt failed with no diagnosable fault");
      }

      // ----- quarantine + shrink -----------------------------------------
      att.quarantined = dead;
      std::vector<int> survivors;
      for (int id : live) {
        if (!std::binary_search(dead.begin(), dead.end(), id)) {
          survivors.push_back(id);
        }
      }
      while (!survivors.empty() &&
             cfg.train.global_batch %
                     static_cast<i64>(survivors.size()) != 0) {
        att.quarantined.push_back(survivors.back());
        survivors.pop_back();
      }
      if (cfg.train.verbose) {
        std::string q;
        for (int id : att.quarantined) {
          q += (q.empty() ? "" : ",") + std::to_string(id);
        }
        GEOFM_INFO("elastic: quarantining rank(s) "
                   << q << " after '" << att.failure << "'; re-forming at "
                   << "world " << survivors.size());
      }
      if (cfg.readmission.readmit_quarantined) {
        // Quarantined identities stay parked (threads alive, in no comm
        // group) so a later checkpoint boundary can re-admit them.
        for (int id : att.quarantined) parked.push_back(id);
      } else {
        std::lock_guard<std::mutex> lk(sh.mu);
        for (int id : att.quarantined) {
          sh.retired[static_cast<size_t>(id)] = 1;
        }
      }
      sh.cv.notify_all();
      res.attempts.push_back(std::move(att));
      live = std::move(survivors);
      if (static_cast<int>(live.size()) < cfg.min_world) {
        throw Error("elastic: world shrank below min_world (" +
                    std::to_string(live.size()) + " < " +
                    std::to_string(cfg.min_world) + ")");
      }
      if (res.recoveries >= kMaxRecoveries) {
        throw Error("elastic: exceeded max_recoveries (" +
                    std::to_string(kMaxRecoveries) + ")");
      }
      ++res.recoveries;
      rec_count.add(1);
      rec_world.set(static_cast<double>(live.size()));
    }
  } catch (...) {
    ckpt::install_io_fault_injector(nullptr);
    join_all();
    throw;
  }
  ckpt::install_io_fault_injector(nullptr);
  join_all();
  return res;
}

}  // namespace geofm::train
