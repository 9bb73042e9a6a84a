// The two pretraining workloads.
//
// pretrain_1rank: mae_for(proxy_3b()), world 1 NO_SHARD, global batch 64,
//   one loader worker, no checkpoints in the throughput phase.
// pretrain_fsdp4: the same model, corpus and batch on 4 thread-ranks,
//   FULL_SHARD + BACKWARD_PRE + limit_all_gathers, 0 loader workers, an
//   async checkpoint every 4 steps; then elastic runs with one rank
//   killed after a checkpoint.
//
// Timed run: one untimed warm-up run, then repeated fixed-length runs of
// `train::pretrain_mae_distributed` for a share of --seconds, with restore
// probes spread between them (pretrain_1rank: a one-step resume from a
// checkpoint; pretrain_fsdp4: `train::run_elastic` with a kill, each in a
// child process of its own, as a training job runs it once per process:
// the trace recorder keeps the track of every thread that ever ran and a
// recovery's flight capture copies them all, so in one process the
// recovery grew from probe to probe). Rank 0 timestamps every step from a
// kCallback event of a comm::FaultPlan; in an A/B of 12 run pairs on
// pretrain_fsdp4 it added no measurable time (0.538 vs 0.537 s per 24-step
// run).
//
// Traced run: pretrain_mae_distributed and a benchmark-owned replica of its
// step loop, built from the same public calls with a span around each, run
// in alternation. The replica's losses must equal the real loop's bitwise.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "ckpt/state.hpp"
#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "data/dataloader.hpp"
#include "models/config.hpp"
#include "models/mae.hpp"
#include "optim/optimizer.hpp"
#include "parallel/fsdp.hpp"
#include "train/distributed.hpp"
#include "train/elastic.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace geofm;

constexpr i64 kGlobalBatch = 64;
constexpr i64 kCorpusImages = 1024;

struct TrainSpec {
  const char* name;
  int world;
  parallel::ShardingStrategy strategy;
  int loader_workers;
  i64 steps;             // per training run
  i64 checkpoint_every;  // 0 = no checkpoints
  double train_share;    // share of --seconds spent in training runs
};

const TrainSpec kOneRank{"pretrain_1rank", 1,
                         parallel::ShardingStrategy::kNoShard, 1, 24, 0,
                         0.9};
const TrainSpec kFsdp4{"pretrain_fsdp4", 4,
                       parallel::ShardingStrategy::kFullShard, 0, 24, 4,
                       0.85};

// Elastic phase: rank 1 dies at the step point of kKillStep, after the
// step-7 checkpoint; survivors shrink to world 2 and resume at step 8.
constexpr i64 kElasticSteps = 12;
constexpr i64 kKillStep = 9;
constexpr int kElasticRuns = 25;
// pretrain_1rank resume probe: restart from the checkpoint taken after
// step kResumeAt - 1.
constexpr i64 kResumeAt = 8;
constexpr int kResumeRuns = 9;

// Step-time tail: p90 of the step times of each training run, median over
// runs. Every run has the same mix of steps (checkpoint steps included),
// and a stall of the host moves only the runs it hits.
constexpr double kTailQ = 0.90;
constexpr int kMinRuns = 5;

u64 model_seed(u64 seed) { return mix64(seed ^ 0x3b3b3bULL); }

models::MaeConfig model_config() {
  return models::mae_for(models::proxy_3b());
}

parallel::FsdpOptions fsdp_options(const TrainSpec& spec) {
  parallel::FsdpOptions o;
  o.strategy = spec.strategy;
  o.prefetch = parallel::BackwardPrefetch::kBackwardPre;
  o.limit_all_gathers = true;
  return o;
}

train::DistributedPretrainConfig train_config(const TrainSpec& spec,
                                              u64 seed,
                                              const std::string& dir) {
  train::DistributedPretrainConfig cfg;
  cfg.steps = spec.steps;
  cfg.global_batch = kGlobalBatch;
  cfg.seed = seed;
  cfg.loader_workers = spec.loader_workers;
  cfg.checkpoint_every_n_steps = spec.checkpoint_every;
  cfg.checkpoint_dir = spec.checkpoint_every > 0 ? dir : "";
  cfg.async_checkpoint = true;
  return cfg;
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

struct PretrainRun {
  std::vector<float> losses;
  std::vector<double> step_points;  // rank 0, one per step (mid-step)
  double start = 0;                 // before any set-up
  double wall = 0;                  // pretrain_mae_distributed's wall, rank 0
};

// One pretrain_mae_distributed run from a fresh model. `probe` arms a
// step-point callback that timestamps each step on rank 0.
PretrainRun run_pretrain(const TrainSpec& spec, u64 seed, const std::string& dir,
                     bool probe, i64 steps, const std::string& resume = "") {
  PretrainRun run;
  auto points = std::make_shared<std::vector<double>>();
  points->reserve(static_cast<size_t>(steps) + 1);
  train::DistributedPretrainConfig cfg = train_config(spec, seed, dir);
  cfg.steps = steps;
  cfg.resume_from = resume;
  if (probe) {
    comm::FaultPlan plan;
    plan.events.push_back(comm::FaultEvent::callback_every_step(
        [points](comm::Communicator& c, i64) {
          if (c.rank() == 0) points->push_back(now_s());
        }));
    cfg.fault_injector = std::make_shared<comm::FaultInjector>(plan);
  }
  run.start = now_s();
  const data::SceneDataset corpus = make_corpus(seed, kCorpusImages);
  comm::run_ranks(spec.world, [&](comm::Communicator& c) {
    Rng rng(model_seed(seed));
    models::MAE mae(model_config(), rng);
    parallel::Fsdp fsdp(mae, c, fsdp_options(spec));
    const auto result =
        train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
    if (c.rank() == 0) {
      run.losses = result.step_losses;
      run.wall = result.wall_seconds;
    }
  });
  run.step_points = *points;
  return run;
}

// The benchmark-owned replica of pretrain_mae_distributed's step loop (no
// resume, no faults, no uploads), one span per public call with the step as
// its id.
struct ReplicaRun {
  std::vector<float> losses;
  double wall = 0;  // rank 0, loader construction to final drain
  int peak_inflight_gathers = 0;
  double collectives = 0, bytes = 0;  // summed over ranks and steps
  double waits = 0, completed_before_wait = 0;
  double busy_s = 0, exposed_s = 0;   // summed over ranks and steps
};

ReplicaRun run_replica(const TrainSpec& spec, u64 seed,
                       const std::string& dir, SpanLog& log) {
  ReplicaRun run;
  std::mutex mu;
  const train::DistributedPretrainConfig cfg = train_config(spec, seed, dir);
  const data::SceneDataset corpus = make_corpus(seed, kCorpusImages);
  comm::run_ranks(spec.world, [&](comm::Communicator& c) {
    const int rank = c.rank();
    Rng rng(model_seed(seed));
    models::MAE mae(model_config(), rng);
    parallel::Fsdp fsdp(mae, c, fsdp_options(spec));
    const double t0 = now_s();
    const i64 local_batch = cfg.global_batch / c.size();
    data::DataLoader::Options lopts;
    lopts.batch_size = cfg.global_batch;
    lopts.n_workers = cfg.loader_workers;
    lopts.shuffle = true;
    lopts.seed = cfg.seed;
    lopts.slice_offset = rank * local_batch;
    lopts.slice_count = local_batch;
    data::DataLoader loader(corpus, data::Split::kTrain, lopts);
    const i64 per_epoch = loader.batches_per_epoch();
    optim::AdamW opt(fsdp.optimizer_parameters(), cfg.lr, 0.9, 0.95, 1e-8,
                     cfg.weight_decay);
    Rng mask_stream = Rng(cfg.seed).split(hash_name("mask_stream"));
    std::optional<ckpt::Checkpointer> checkpointer;
    if (cfg.checkpoint_every_n_steps > 0) {
      checkpointer.emplace(cfg.async_checkpoint);
      ckpt::reset_save_state(cfg.checkpoint_dir);
    }
    ReplicaRun mine;
    i64 step = 0;
    for (i64 epoch = 0; step < cfg.steps; ++epoch) {
      loader.start_epoch(epoch, step - epoch * per_epoch);
      for (;;) {
        const double step_t0 = now_s();
        std::optional<data::Batch> batch;
        {
          Scope s(&log, "data.next", rank, step);
          batch = loader.next();
        }
        if (!batch || step >= cfg.steps) break;
        {
          Scope s(&log, "parallel.begin_step", rank, step);
          fsdp.begin_step();
        }
        Rng mask_rng(mask_stream.next_u64());
        float local_loss = 0;
        {
          Scope s(&log, "models.forward", rank, step);
          local_loss = mae.forward(batch->images, mask_rng, rank * local_batch);
        }
        {
          Scope s(&log, "models.backward", rank, step);
          mae.backward();
        }
        {
          Scope s(&log, "parallel.end_backward", rank, step);
          fsdp.end_backward();
        }
        {
          Scope s(&log, "optim.step", rank, step);
          opt.step();
        }
        if (checkpointer && (step + 1) % cfg.checkpoint_every_n_steps == 0) {
          ckpt::SaveRequest req;
          req.dir = cfg.checkpoint_dir;
          req.step = step;
          req.rank = rank;
          req.world = c.size();
          req.state = ckpt::fsdp_state(fsdp, &opt);
          req.counters = {{"step", step},
                          {"epoch", epoch},
                          {"seed", static_cast<i64>(cfg.seed)}};
          for (const auto& [name, value] : ckpt::optimizer_scalars(opt)) {
            req.counters[name] = value;
          }
          req.rng_streams = {{"mask_stream", mask_stream.state()}};
          Scope s(&log, "ckpt.save", rank, step);
          checkpointer->save(req);
        }
        const comm::CommStats& stats = fsdp.last_step_stats();
        mine.waits += stats.waits;
        mine.completed_before_wait += stats.completed_before_wait;
        mine.busy_s += stats.busy_seconds;
        mine.exposed_s += stats.exposed_wait_seconds;
        for (const parallel::FsdpEvent& e : fsdp.last_schedule()) {
          if (e.type == parallel::FsdpEvent::Type::kReshard) continue;
          mine.collectives += 1;
          mine.bytes += 4.0 * static_cast<double>(e.elements);  // fp32
        }
        mine.peak_inflight_gathers = std::max(mine.peak_inflight_gathers,
                                              fsdp.peak_inflight_gathers());
        Tensor loss_t = Tensor::from({local_loss});
        {
          Scope s(&log, "comm.loss_allreduce", rank, step);
          c.all_reduce(loss_t, comm::ReduceOp::kAvg);
        }
        mine.losses.push_back(loss_t[0]);
        log.record("step", rank, step, step_t0, now_s());
        ++step;
      }
    }
    if (checkpointer) {
      Scope s(&log, "ckpt.drain", rank, step);
      checkpointer->wait_idle();
    }
    const double wall = now_s() - t0;
    std::lock_guard<std::mutex> lk(mu);
    if (rank == 0) {
      run.losses = mine.losses;
      run.wall = wall;
    }
    run.peak_inflight_gathers =
        std::max(run.peak_inflight_gathers, mine.peak_inflight_gathers);
    run.collectives += mine.collectives;
    run.bytes += mine.bytes;
    run.waits += mine.waits;
    run.completed_before_wait += mine.completed_before_wait;
    run.busy_s += mine.busy_s;
    run.exposed_s += mine.exposed_s;
  });
  return run;
}

// Restores the newest checkpoint under `dir` into a fresh model, optimizer
// and FSDP wrapper on every rank; returns the slowest rank's seconds.
double time_restore(const TrainSpec& spec, u64 seed, const std::string& dir,
                    SpanLog* log) {
  std::mutex mu;
  double slowest = 0;
  comm::run_ranks(spec.world, [&](comm::Communicator& c) {
    Rng rng(model_seed(seed));
    models::MAE mae(model_config(), rng);
    parallel::Fsdp fsdp(mae, c, fsdp_options(spec));
    optim::AdamW opt(fsdp.optimizer_parameters(), 3e-3);
    c.barrier();
    const double t0 = now_s();
    {
      Scope s(log, "ckpt.restore", c.rank(), 0);
      ckpt::CheckpointReader reader(dir);
      fsdp.drop_full_parameters();
      reader.restore(ckpt::fsdp_state(fsdp, &opt));
      ckpt::restore_optimizer_scalars(reader, opt);
    }
    const double dt = now_s() - t0;
    std::lock_guard<std::mutex> lk(mu);
    slowest = std::max(slowest, dt);
  });
  return slowest;
}

train::ElasticResult run_elastic_once(const TrainSpec& spec, u64 seed,
                                      const std::string& dir) {
  fresh_dir(dir);
  train::ElasticConfig ecfg;
  ecfg.train = train_config(spec, seed, dir);
  ecfg.train.steps = kElasticSteps;
  ecfg.model = model_config();
  ecfg.model_seed = model_seed(seed);
  ecfg.fsdp = fsdp_options(spec);
  ecfg.world = spec.world;
  ecfg.watchdog_deadline_seconds = 5.0;
  ecfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, kKillStep));
  const data::SceneDataset corpus = make_corpus(seed, kCorpusImages);
  return train::run_elastic(ecfg, corpus);
}

// Steps redone after recovery: executed by a failed attempt and again by
// the attempt that resumed from the checkpoint.
i64 replayed_steps(const train::ElasticResult& r) {
  i64 replayed = 0;
  for (size_t i = 0; i + 1 < r.attempts.size(); ++i) {
    const auto& a = r.attempts[i];
    if (a.completed) continue;
    const i64 reached = std::max<i64>(a.start_step + static_cast<i64>(a.losses.size()),
                                      kKillStep);
    replayed += std::max<i64>(0, reached - r.attempts[i + 1].start_step);
  }
  return replayed;
}

// The elastic probe's one result line: "elastic <recoveries> <completed>
// <steps> <recovery seconds> <bits of each final-attempt loss, hex>".
std::string elastic_line(const train::ElasticResult& r) {
  const auto& f = r.final_result.step_losses;
  std::string line =
      "elastic " + std::to_string(r.recoveries) + " " +
      std::to_string(r.attempts.back().completed ? 1 : 0) + " " +
      std::to_string(r.attempts.back().start_step + static_cast<i64>(f.size())) +
      " " + fmt(r.recovery_seconds, 9);
  for (const float x : f) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    char hex[16];
    std::snprintf(hex, sizeof hex, " %08x", bits);
    line += hex;
  }
  return line;
}

struct ElasticProbe {
  i64 recoveries = 0, completed = 0, steps = 0;
  double recovery_seconds = 0;
  std::vector<float> losses;
};

// Runs one elastic probe in a child process and parses its result line.
ElasticProbe elastic_probe_child(const Args& args, const std::string& dir) {
  const std::string output = run_self(
      {"--workload", "pretrain_fsdp4", "--seed", std::to_string(args.seed),
       "--seconds", "1", "--trace", "0", "--workdir", dir, "--elastic-probe",
       "1"});
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string tag;
    ElasticProbe p;
    if (!(fields >> tag) || tag != "elastic" ||
        !(fields >> p.recoveries >> p.completed >> p.steps >>
          p.recovery_seconds)) {
      continue;
    }
    std::string hex;
    while (fields >> hex) {
      const auto bits = static_cast<std::uint32_t>(std::stoul(hex, nullptr, 16));
      float x = 0;
      std::memcpy(&x, &bits, sizeof x);
      p.losses.push_back(x);
    }
    return p;
  }
  throw std::runtime_error("elastic probe printed no result line");
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](float x, float y) {
           return std::memcmp(&x, &y, sizeof x) == 0;
         });
}

// Checks a run's losses: all finite, and the final one against the
// recorded reference for this seed when there is one. Without a reference
// there is no band to check: some seeds diverge at this learning rate in
// a correct program (seed 76: 1.009 -> 1.509 over 24 steps).
void check_final_loss(Outcome& out, const TrainSpec& spec, const Args& args,
                      const std::vector<float>& losses) {
  if (losses.empty()) {
    out.check(false, std::string(spec.name) + ": no losses");
    return;
  }
  const double last = losses.back();
  out.check(std::all_of(losses.begin(), losses.end(),
                        [](float x) { return std::isfinite(x); }),
            std::string(spec.name) + ": a loss is not finite");
  const auto it = args.reference_losses.find({spec.name, args.seed});
  const std::optional<double> ref =
      it == args.reference_losses.end() ? std::nullopt
                                        : std::optional<double>(it->second);
  if (ref) {
    out.check(std::fabs(last - *ref) <= kLossRelTolerance * std::fabs(*ref),
              std::string(spec.name) + ": final loss " + fmt(last, 7) +
                  " differs from the recorded reference " + fmt(*ref, 7));
  }
  std::printf("  %s seed %llu: final loss %.9g (reference %s)\n", spec.name,
              static_cast<unsigned long long>(args.seed), last,
              ref ? fmt(*ref, 7).c_str() : "none; finiteness check only");
}

Outcome timed(const TrainSpec& spec, const Args& args) {
  Outcome out;
  const std::string dir = args.workdir + "/ckpt";
  const std::string restore_dir = args.workdir + "/restore";

  // Restore probes, run between training runs so that they are spread
  // over the whole run. pretrain_1rank: a run restarted from the
  // step kResumeAt - 1 checkpoint runs one step, which must reproduce the
  // uninterrupted run's step bitwise. pretrain_fsdp4: an elastic run with
  // a kill, which must recover once to the same trajectory every time.
  std::vector<double> restore_ms, restore_steal;
  std::vector<float> want;
  int probes = kElasticRuns;
  if (spec.world == 1) {
    probes = kResumeRuns;
    fresh_dir(restore_dir);
    TrainSpec saving = spec;
    saving.checkpoint_every = kResumeAt;
    run_pretrain(saving, args.seed, restore_dir, false, kResumeAt);
    want = {run_pretrain(spec, args.seed, dir, false, kResumeAt + 1)
                .losses.back()};
  }
  auto restore_probe = [&](int i) {
    const StealMeter steal;
    if (spec.world == 1) {
      const PretrainRun resumed = run_pretrain(spec, args.seed, dir, false,
                                           kResumeAt + 1, restore_dir);
      out.attempted += 1;
      restore_ms.push_back(1e3 * resumed.wall);
      restore_steal.push_back(steal.share());
      const bool ok = same_bits(resumed.losses, want);
      if (!ok) out.failed += 1;
      out.check(ok, "resumed step differs from the uninterrupted run");
      return;
    }
    const ElasticProbe r = elastic_probe_child(args, restore_dir);
    out.attempted += kElasticSteps;
    const bool ok = r.recoveries == 1 && r.completed == 1 &&
                    r.steps == kElasticSteps &&
                    (i == 0 || same_bits(r.losses, want));
    if (i == 0) want = r.losses;
    if (!ok) out.failed += 1;
    out.check(ok, "elastic run " + std::to_string(i) +
                      " did not recover once to the same trajectory");
    restore_ms.push_back(1e3 * r.recovery_seconds);
    restore_steal.push_back(steal.share());
  };

  // Per training run with a complete step probe.
  std::vector<double> setups, rates, run_p50s, run_tails, run_steal;
  std::vector<std::vector<double>> run_steps_ms;
  std::vector<double> run_peaks;
  std::vector<float> first_losses;
  // One untimed run first: page faults, allocator growth, thread start-up.
  fresh_dir(dir);
  run_pretrain(spec, args.seed, dir, /*probe=*/false, spec.steps);
  const double start = now_s();
  const double budget = args.seconds * spec.train_share;
  int probed = 0;
  for (int rep = 0; rep < kMinRuns || now_s() < start + budget; ++rep) {
    while (probed < probes &&
           now_s() - start >= budget * (probed + 0.5) / probes) {
      restore_probe(probed++);
    }
    fresh_dir(dir);
    reset_peak_rss();
    const StealMeter steal;
    PretrainRun run = run_pretrain(spec, args.seed, dir, /*probe=*/true,
                               spec.steps);
    const double stolen = steal.share();
    run_peaks.push_back(peak_rss_mb());
    out.attempted += spec.steps;
    if (args.plant == Plant::kLossMismatch && rep == 1) {
      run.losses.back() = std::nextafter(run.losses.back(), 1.0f);
    }
    if (rep == 0) {
      first_losses = run.losses;
    } else if (!same_bits(run.losses, first_losses)) {
      out.failed += spec.steps;
      out.check(false, std::string(spec.name) + ": loss trajectory of run " +
                           std::to_string(rep) + " differs from run 0");
    }
    const auto& p = run.step_points;
    if (static_cast<i64>(p.size()) != spec.steps) {
      out.check(false, "step probe saw " + std::to_string(p.size()) +
                           " steps, expected " + std::to_string(spec.steps));
      continue;
    }
    setups.push_back(p.front() - run.start);
    rates.push_back(static_cast<double>(kGlobalBatch * (spec.steps - 1)) /
                    (p.back() - p.front()));
    std::vector<double> run_ms;
    for (size_t i = 1; i < p.size(); ++i) {
      run_ms.push_back(1e3 * (p[i] - p[i - 1]));
    }
    run_tails.push_back(quantile(run_ms, kTailQ));
    run_steps_ms.push_back(std::move(run_ms));
    run_steal.push_back(stolen);
  }
  while (probed < probes) restore_probe(probed++);
  check_final_loss(out, spec, args, first_losses);

  out.check(static_cast<int>(run_tails.size()) >= kMinRuns,
            "fewer than " + std::to_string(kMinRuns) + " training runs");
  const std::vector<std::size_t> keep = clean_samples(run_steal);
  std::vector<double> steps_ms;
  for (const std::size_t i : keep) {
    steps_ms.insert(steps_ms.end(), run_steps_ms[i].begin(),
                    run_steps_ms[i].end());
  }
  const double rate = median(pick(rates, keep));
  const double tail = median(pick(run_tails, keep));
  const std::vector<std::size_t> keep_restore = clean_samples(restore_steal);
  const double restore = quantile(pick(restore_ms, keep_restore), kTimeQ);
  out.add("setup_s", median(pick(setups, keep)), "s");
  out.add("images_per_s", rate, "1/s");
  out.add("p50_ms", median(steps_ms), "ms");
  out.add("tail_ms", tail, "ms");
  out.add("restore_ms", restore, "ms");
  out.add("peak_rss_mb", median(run_peaks), "MB");
  std::printf("  %s: %zu runs of %lld steps; %zu of them and %zu of %zu "
              "restore probes with at most %.0f%% steal\n",
              spec.name, rates.size(), static_cast<long long>(spec.steps),
              keep.size(), keep_restore.size(), restore_ms.size(),
              100 * kCleanSteal);
  std::printf("  train_images_per_s %.1f 1/s (all runs %.1f), step p50 %.3f "
              "ms, step tail (p90 per run, median) %.3f ms, peak RSS per run "
              "%.1f MB\n",
              rate, median(rates), median(steps_ms), tail, median(run_peaks));
  std::printf("  %s, lower quartile %.3f ms:",
              spec.world == 1 ? "resume (1-step restart)" : "resume_s (elastic)",
              restore);
  for (const double ms : restore_ms) std::printf(" %.2f", ms);
  std::printf("\n  steal share of each training run:");
  for (const double st : run_steal) std::printf(" %.3f", st);
  std::printf("\n");
  return out;
}

Outcome traced(const TrainSpec& spec, const Args& args) {
  Outcome out;
  const std::string dir = args.workdir + "/ckpt";
  SpanLog log;
  std::vector<double> ratios;
  ReplicaRun totals;
  i64 replica_steps = 0;
  KernelCounters kernels;
  const double end = now_s() + args.seconds * 0.8;
  for (int pair = 0; pair < 2 || now_s() < end; ++pair) {
    fresh_dir(dir);
    const PretrainRun real = run_pretrain(spec, args.seed, dir, false, spec.steps);
    fresh_dir(dir);
    const KernelCounters before = KernelCounters::read();
    ReplicaRun replica = run_replica(spec, args.seed, dir, log);
    const KernelCounters delta = KernelCounters::read().minus(before);
    for (const auto& [name, value] : delta.values) kernels.values[name] += value;
    out.attempted += 2 * spec.steps;
    if (args.plant == Plant::kLossMismatch) {
      replica.losses.back() = std::nextafter(replica.losses.back(), 1.0f);
    }
    if (!same_bits(replica.losses, real.losses)) {
      out.failed += spec.steps;
      out.check(false, std::string(spec.name) +
                           ": traced replica's losses differ from "
                           "pretrain_mae_distributed's (pair " + std::to_string(pair) + ")");
    }
    if (pair == 0) check_final_loss(out, spec, args, real.losses);
    ratios.push_back(replica.wall / real.wall);
    replica_steps += spec.steps;
    totals.peak_inflight_gathers =
        std::max(totals.peak_inflight_gathers, replica.peak_inflight_gathers);
    totals.collectives += replica.collectives;
    totals.bytes += replica.bytes;
    totals.waits += replica.waits;
    totals.completed_before_wait += replica.completed_before_wait;
    totals.busy_s += replica.busy_s;
    totals.exposed_s += replica.exposed_s;
  }
  const double rank_steps = static_cast<double>(replica_steps * spec.world);

  // Checkpoint size and restore, from the last replica's checkpoints.
  double bytes_per_save = 0;
  double restore_ms = 0;
  if (spec.checkpoint_every > 0) {
    const auto latest = ckpt::latest_published_manifest(dir);
    out.check(latest.found(), "replica published no checkpoint");
    if (latest.found()) {
      bytes_per_save = static_cast<double>(dir_bytes(latest.dir));
      std::vector<double> r;
      for (int i = 0; i < 5; ++i) r.push_back(time_restore(spec, args.seed, dir, &log));
      restore_ms = 1e3 * median(r);
    }
  }
  double recoveries = 0, replayed = 0;
  if (spec.world > 1) {
    const train::ElasticResult r = run_elastic_once(spec, args.seed, dir);
    out.attempted += kElasticSteps;
    recoveries = r.recoveries;
    replayed = static_cast<double>(replayed_steps(r));
    out.check(r.recoveries == 1, "elastic run did not recover exactly once");
  }

  auto med_ms = [&](const char* name) { return 1e3 * median(log.durations(name)); };
  auto tail_ms = [&](const char* name) {
    return 1e3 * quantile(log.durations(name), 0.9);
  };
  out.add("data.next_wait_ms", med_ms("data.next"), "ms");
  out.add("models.forward_ms", med_ms("models.forward"), "ms");
  out.add("models.forward_p90_ms", tail_ms("models.forward"), "ms");
  out.add("models.backward_ms", med_ms("models.backward"), "ms");
  out.add("models.backward_p90_ms", tail_ms("models.backward"), "ms");
  add_tensor_metrics(out, kernels, log.total("step"),
                     static_cast<double>(replica_steps), spec.world);
  out.add("optim.step_ms", med_ms("optim.step"), "ms");
  out.add("parallel.begin_step_ms", med_ms("parallel.begin_step"), "ms");
  out.add("parallel.end_backward_ms", med_ms("parallel.end_backward"), "ms");
  out.add("parallel.peak_inflight_gathers", totals.peak_inflight_gathers,
          "count");
  out.add("parallel.collectives_per_step", totals.collectives / rank_steps,
          "count");
  out.add("parallel.bytes_per_step", totals.bytes / rank_steps, "B");
  out.add("comm.exposed_ms", 1e3 * totals.exposed_s / rank_steps, "ms");
  out.add("comm.busy_ms", 1e3 * totals.busy_s / rank_steps, "ms");
  out.add("comm.overlap_ratio",
          totals.waits > 0 ? totals.completed_before_wait / totals.waits : 0.0,
          "ratio");
  out.add("comm.overlap_base", totals.waits / rank_steps, "count");
  out.add("comm.loss_allreduce_ms", med_ms("comm.loss_allreduce"), "ms");
  out.add("ckpt.save_call_ms", spec.checkpoint_every > 0 ? med_ms("ckpt.save") : 0.0,
          "ms");
  out.add("ckpt.drain_ms", spec.checkpoint_every > 0 ? med_ms("ckpt.drain") : 0.0,
          "ms");
  out.add("ckpt.bytes_per_save", bytes_per_save, "B");
  out.add("ckpt.restore_ms", restore_ms, "ms");
  out.add("train.recoveries", recoveries, "count");
  out.add("train.replayed_steps", replayed, "count");
  out.add("obs.trace_overhead_ratio", median(ratios), "ratio");
  add_idle_serve_layer(out);
  log.write_json(args.workdir + "/spans_" + spec.name + ".json");
  std::printf("  %s traced: %lld replica steps in %zu real/replica pairs; "
              "spans in %s/spans_%s.json\n",
              spec.name, static_cast<long long>(replica_steps), ratios.size(),
              args.workdir.c_str(), spec.name);
  return out;
}

}  // namespace

Outcome run_pretrain_1rank(const Args& args) {
  return args.trace ? traced(kOneRank, args) : timed(kOneRank, args);
}

Outcome run_pretrain_fsdp4(const Args& args) {
  return args.trace ? traced(kFsdp4, args) : timed(kFsdp4, args);
}

void run_elastic_probe(const Args& args) {
  const train::ElasticResult r =
      run_elastic_once(kFsdp4, args.seed, args.workdir);
  std::printf("%s\n", elastic_line(r).c_str());
}

}  // namespace perfbench
