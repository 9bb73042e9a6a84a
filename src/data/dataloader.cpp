#include "data/dataloader.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_context.hpp"

namespace geofm::data {
namespace {

constexpr i64 kPrefetchBatches = 4;  // rendered-but-unconsumed batches

}  // namespace

DataLoader::DataLoader(const SceneDataset& dataset, Split split,
                       Options options)
    : dataset_(dataset),
      split_(split),
      options_(options),
      owner_rank_(this_thread_rank()) {
  GEOFM_CHECK(options_.batch_size > 0);
  GEOFM_CHECK(options_.n_workers >= 0);
  GEOFM_CHECK(options_.slice_offset >= 0 &&
                  (options_.slice_count < 0 ||
                   options_.slice_offset + options_.slice_count <=
                       options_.batch_size),
              "batch slice [" << options_.slice_offset << ", +"
                              << options_.slice_count
                              << ") exceeds batch size "
                              << options_.batch_size);
  GEOFM_CHECK(dataset_.size(split_) >= options_.batch_size ||
                  !options_.drop_last,
              "dataset smaller than one batch");
  n_batches_ = batches_per_epoch();
}

DataLoader::~DataLoader() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_produce_.notify_all();
  for (auto& w : workers_) w.join();
}

i64 DataLoader::batches_per_epoch() const {
  const i64 n = dataset_.size(split_);
  return options_.drop_last ? n / options_.batch_size
                            : (n + options_.batch_size - 1) /
                                  options_.batch_size;
}

DataLoader::Permutation DataLoader::make_permutation(i64 epoch) const {
  const i64 n = dataset_.size(split_);
  auto perm = std::make_shared<std::vector<i64>>(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) (*perm)[static_cast<size_t>(i)] = i;
  if (options_.shuffle) {
    // Fisher–Yates keyed by (seed, epoch): every epoch a fresh, fully
    // reproducible order.
    Rng rng = Rng(options_.seed).split(0x10adULL).split(static_cast<u64>(epoch));
    for (i64 i = n - 1; i > 0; --i) {
      const i64 j = rng.uniform_int(i + 1);
      std::swap((*perm)[static_cast<size_t>(i)],
                (*perm)[static_cast<size_t>(j)]);
    }
  }
  return perm;
}

DataLoader::Job DataLoader::job_for(i64 ordinal) const {
  const i64 epoch = ordinal / n_batches_;
  GEOFM_CHECK(epoch == epoch_ || epoch == epoch_ + 1,
              "batch ordinal " << ordinal << " outside epochs " << epoch_
                               << " and " << epoch_ + 1);
  return Job{ordinal, epoch, ordinal - epoch * n_batches_,
             epoch == epoch_ ? perm_ : next_perm_};
}

void DataLoader::start_epoch(i64 epoch, i64 first_batch) {
  GEOFM_CHECK(first_batch >= 0 && first_batch <= n_batches_,
              "first_batch " << first_batch << " out of range");
  // Only this (the consumer) thread writes epoch_ and the permutations,
  // so reading them here needs no lock.
  Permutation perm = epoch == epoch_ + 1 && next_perm_ != nullptr
                         ? next_perm_
                         : make_permutation(epoch);
  Permutation next =
      options_.n_workers > 0 ? make_permutation(epoch + 1) : nullptr;
  const i64 first = epoch * n_batches_ + first_batch;
  i64 discarded = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Renders are keyed by global ordinal and bitwise deterministic, so
    // what was rendered ahead from `first` on (the head of this epoch,
    // rendered while the previous one drained) is adopted as is. When
    // nothing at or past `first` can have been consumed or skipped
    // (first <= next_to_claim_), claiming continues where it stood; any
    // other start — a resume mid-epoch past the claims, a skipped epoch,
    // a restart — claims afresh from `first`. Resume fast-forward:
    // batches before `first` are never claimed, so no render work is
    // wasted on them.
    const bool continues = first >= next_to_consume_ && first <= next_to_claim_;
    if (!continues) {
      next_to_claim_ = first;
      requeued_.clear();
    }
    for (auto it = ready_.begin(); it != ready_.end();) {
      if (continues && it->first >= first) {
        ++it;
      } else {
        it = ready_.erase(it);
        ++discarded;
      }
    }
    epoch_ = epoch;
    perm_ = std::move(perm);
    next_perm_ = std::move(next);
    next_to_consume_ = first;
    respawns_used_ = 0;
    // Workers start on first use and stay up across epochs; this tops up
    // any the fault seam killed past the previous epoch's respawn budget.
    while (alive_workers_ < options_.n_workers) spawn_worker();
  }
  cv_produce_.notify_all();
  if (discarded > 0) {
    static auto& discarded_renders =
        obs::MetricsRegistry::instance().counter("loader.discarded_renders");
    discarded_renders.add(static_cast<double>(discarded));
  }
}

void DataLoader::spawn_worker() {
  // Under mu_: a worker killed by the fault seam appends its replacement
  // to workers_ while the consumer may be topping up the pool.
  ++alive_workers_;
  workers_.emplace_back([this] { worker_loop(); });
}

Batch DataLoader::render_batch(const Job& job) const {
  const i64 begin = job.batch * options_.batch_size;
  const i64 end = std::min<i64>(begin + options_.batch_size,
                                dataset_.size(split_));
  i64 lo = begin;
  i64 hi = end;
  if (options_.slice_count >= 0) {
    lo = std::min<i64>(begin + options_.slice_offset, end);
    hi = std::min<i64>(lo + options_.slice_count, end);
  }
  std::vector<i64> indices(job.perm->begin() + lo, job.perm->begin() + hi);
  auto [images, labels] = dataset_.make_batch(split_, indices);
  if (options_.enable_augment) {
    const i64 per = images.numel() / images.dim(0);
    for (size_t i = 0; i < indices.size(); ++i) {
      Tensor view = images.flat_view(static_cast<i64>(i) * per, per)
                        .view({dataset_.channels(), dataset_.img_size(),
                               dataset_.img_size()});
      Rng rng = Rng(options_.seed)
                    .split(0xa06ULL)
                    .split(static_cast<u64>(job.epoch))
                    .split(static_cast<u64>(indices[i]));
      view.copy_(augment(view, options_.augment, rng));
    }
  }
  Batch batch;
  batch.images = std::move(images);
  batch.labels = std::move(labels);
  batch.index = job.batch;
  batch.sample_indices = std::move(indices);
  return batch;
}

Batch DataLoader::render_batch_traced(const Job& job) const {
  obs::TraceScope span("loader.render", "loader", "batch", job.batch,
                       "samples", options_.batch_size);
  const double t0 = monotonic_seconds();
  Batch batch = render_batch(job);
  static auto& render_hist =
      obs::MetricsRegistry::instance().histogram("loader.render_seconds");
  static auto& rendered =
      obs::MetricsRegistry::instance().counter("loader.batches_rendered");
  static auto& samples =
      obs::MetricsRegistry::instance().counter("loader.samples_rendered");
  render_hist.observe(monotonic_seconds() - t0);
  rendered.add(1);
  samples.add(static_cast<double>(batch.sample_indices.size()));
  return batch;
}

Batch DataLoader::render_faulted(const Job& job, bool apply_poison,
                                 u64 poison_site) {
  Batch batch = render_batch_traced(job);
  const i64 rows = static_cast<i64>(batch.sample_indices.size());
  const i64 per = rows > 0 ? batch.images.numel() / rows : 0;
  if (apply_poison && rows > 0 && per > 0) {
    float* row = batch.images.data() +
                 static_cast<i64>(poison_site % static_cast<u64>(rows)) * per;
    for (i64 k = 0; k < per; ++k) {
      row[k] = std::numeric_limits<float>::quiet_NaN();
    }
  }
  if (options_.quarantine_poisoned && rows > 0 && per > 0) {
    static auto& quarantined =
        obs::MetricsRegistry::instance().counter("loader.quarantined");
    for (i64 r = 0; r < rows; ++r) {
      float* row = batch.images.data() + r * per;
      bool bad = false;
      for (i64 k = 0; k < per; ++k) {
        if (!std::isfinite(row[k])) {
          bad = true;
          break;
        }
      }
      if (!bad) continue;
      // Zero the sample rather than dropping it: batch geometry (and so
      // every downstream shape) is unchanged, and the zeroed row is
      // deterministic, so replay stays bitwise.
      std::fill(row, row + per, 0.f);
      bool newly = false;
      {
        std::lock_guard<std::mutex> lk(quarantine_mu_);
        newly = quarantined_.insert(batch.sample_indices[r]).second;
      }
      if (newly) quarantined.add(1);
      obs::trace_instant("loader.quarantine", "loader");
    }
  }
  return batch;
}

void DataLoader::worker_loop() {
  set_thread_rank(owner_rank_);
  obs::set_thread_label("loader.worker");
  static auto& discarded =
      obs::MetricsRegistry::instance().counter("loader.discarded_renders");
  // The window runs up to kPrefetchBatches past the consumer, into the
  // next epoch's head once this one is fully claimed.
  const auto claimable = [&] {
    return next_to_claim_ < claim_limit() &&
           next_to_claim_ - next_to_consume_ < kPrefetchBatches;
  };
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_produce_.wait(lk, [&] {
        return stopping_ || !requeued_.empty() || claimable();
      });
      if (stopping_) {
        --alive_workers_;
        cv_consume_.notify_all();
        return;
      }
      i64 mine = -1;
      while (!requeued_.empty() && mine < 0) {
        // Orphans of a dead worker come first; entries the consumer
        // already rendered itself are stale — drop them.
        const i64 head = requeued_.front();
        requeued_.pop_front();
        if (head >= next_to_consume_ && ready_.count(head) == 0) mine = head;
      }
      if (mine < 0) {
        if (!claimable()) continue;  // only stale orphans were queued
        mine = next_to_claim_++;
      }
      job = job_for(mine);
    }
    // Fault seam: consult the installed injector on the *global* batch
    // ordinal before rendering. An injected slow-render sleeps inside
    // before_render (that is the hang the consumer watchdog catches).
    bool poison = false;
    u64 poison_site = 0;
    if (options_.fault_injector != nullptr) {
      auto fault = options_.fault_injector->before_render(
          owner_rank_ < 0 ? 0 : owner_rank_, job.ordinal);
      poison = fault.poison;
      poison_site = fault.poison_site;
      if (fault.kill_worker) {
        static auto& deaths =
            obs::MetricsRegistry::instance().counter("loader.worker_deaths");
        static auto& respawns =
            obs::MetricsRegistry::instance().counter("loader.respawns");
        deaths.add(1);
        obs::trace_instant("loader.worker_death", "loader");
        {
          std::lock_guard<std::mutex> lk(mu_);
          requeued_.push_back(job.ordinal);
          --alive_workers_;
          if (!stopping_ && respawns_used_ < kMaxWorkerRespawns) {
            ++respawns_used_;
            spawn_worker();
            respawns.add(1);
          }
        }
        cv_produce_.notify_all();
        cv_consume_.notify_all();
        return;  // this worker thread is dead
      }
    }
    Batch batch = render_faulted(job, poison, poison_site);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (job.ordinal >= next_to_consume_ && job.ordinal < claim_limit() &&
          ready_.count(job.ordinal) == 0) {
        ready_.emplace(job.ordinal, std::move(batch));
      } else {
        // A watchdog takeover beat us to it (renders are deterministic,
        // so the duplicate is bitwise identical and safe to drop), or a
        // start_epoch moved the window past it.
        discarded.add(1);
      }
    }
    cv_consume_.notify_all();
  }
}

std::optional<Batch> DataLoader::next() {
  if (options_.n_workers == 0) {
    GEOFM_CHECK(perm_ != nullptr, "next() before start_epoch()");
    if (next_to_consume_ >= (epoch_ + 1) * n_batches_) return std::nullopt;
    // Synchronous path: the whole render happens on the consumer's
    // critical path, so it is all exposed time. The fault seam still
    // applies (an injected worker kill is meaningless here and ignored).
    const double t0 = monotonic_seconds();
    const Job job = job_for(next_to_consume_++);
    bool poison = false;
    u64 poison_site = 0;
    if (options_.fault_injector != nullptr) {
      auto fault = options_.fault_injector->before_render(
          owner_rank_ < 0 ? 0 : owner_rank_, job.ordinal);
      poison = fault.poison;
      poison_site = fault.poison_site;
    }
    Batch batch = render_faulted(job, poison, poison_site);
    static auto& exposed_sync =
        obs::MetricsRegistry::instance().counter("loader.exposed_wait_seconds");
    exposed_sync.add(monotonic_seconds() - t0);
    return batch;
  }

  std::unique_lock<std::mutex> lk(mu_);
  GEOFM_CHECK(perm_ != nullptr, "next() before start_epoch()");
  if (next_to_consume_ >= (epoch_ + 1) * n_batches_) return std::nullopt;
  const i64 want = next_to_consume_;
  if (ready_.count(want) == 0) {
    // Consumer outran the prefetchers: this wait is loader-exposed time,
    // the analogue of CommStats::exposed_wait_seconds for input.
    obs::TraceScope span("loader.wait", "loader", "batch",
                         want - epoch_ * n_batches_);
    const double t0 = monotonic_seconds();
    static auto& exposed =
        obs::MetricsRegistry::instance().counter("loader.exposed_wait_seconds");
    static auto& stall_requeues =
        obs::MetricsRegistry::instance().counter("loader.stall_requeues");
    const double wd = options_.watchdog_seconds;
    while (ready_.count(want) == 0) {
      const bool workers_gone = alive_workers_ == 0;
      const bool overdue = wd > 0 && monotonic_seconds() - t0 > wd;
      if (workers_gone || overdue) {
        // Nobody is coming (every worker dead, respawn budget spent) or
        // the render is overdue (a hung worker): take the batch over on
        // the consumer. Renders are bitwise deterministic, so a late
        // duplicate from the original worker is discarded harmlessly.
        // The takeover render skips the fault seam — whatever fault
        // delayed or killed the original render already fired.
        if (overdue && !workers_gone) {
          stall_requeues.add(1);
          obs::trace_instant("loader.stall_takeover", "loader");
        }
        for (auto it = requeued_.begin(); it != requeued_.end(); ++it) {
          if (*it == want) {
            requeued_.erase(it);
            break;
          }
        }
        const Job job = job_for(want);
        lk.unlock();
        Batch rescued = render_faulted(job, false, 0);
        lk.lock();
        if (ready_.count(want) == 0) {
          ready_.emplace(want, std::move(rescued));
        } else {
          static auto& discarded =
              obs::MetricsRegistry::instance().counter(
                  "loader.discarded_renders");
          discarded.add(1);
        }
        break;
      }
      if (wd > 0) {
        cv_consume_.wait_for(
            lk, std::chrono::duration<double>(std::max(wd / 4, 1e-3)));
      } else {
        cv_consume_.wait(lk, [&] {
          return ready_.count(want) > 0 || alive_workers_ == 0;
        });
      }
    }
    exposed.add(monotonic_seconds() - t0);
  }
  Batch batch = std::move(ready_.at(want));
  ready_.erase(want);
  ++next_to_consume_;
  lk.unlock();
  cv_produce_.notify_all();  // a prefetch slot opened up
  return batch;
}

std::vector<i64> DataLoader::quarantined_samples() const {
  std::lock_guard<std::mutex> lk(quarantine_mu_);
  return std::vector<i64>(quarantined_.begin(), quarantined_.end());
}

}  // namespace geofm::data
