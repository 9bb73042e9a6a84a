// serve_hotswap: an open loop of Poisson arrivals from one generator
// thread against a ModelServer serving the proxy_3b encoder.
//
// Steady phase: keys Zipf-drawn (s = 1) from a pool four times the
// server's 1024-entry cache, so hits and misses both occur; every
// kSwapPeriod seconds the publisher (the main thread) writes a new
// checkpoint and calls reload_now(), which invalidates the epoch-tagged
// cache. Latency is timed from each request's due time.
// Overload phase: uncacheable requests (empty key) offered at a fixed
// rate well above capacity; typed sheds are refusals by design.
//
// Threads: generator, collector, publisher (main). The server adds its
// batch worker; its poller is off so every swap is a reload_now() call.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "ckpt/state.hpp"
#include "models/config.hpp"
#include "models/mae.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace geofm;
using Clock = std::chrono::steady_clock;

// Fixed traffic. The run is a sequence of cycles, each a steady segment,
// a gap, an overload segment and a gap (traced runs add a traced overload
// segment), so every phase is sampled across the whole run and a stall of
// the host moves at most some of its samples. A steady segment opens with
// kSwapOffset seconds of cache warm-up, then holds kSwapsPerCycle swap
// windows: each starts with a publish + reload_now() and lasts
// kSwapPeriod. Capacity of this server (max_batch 16) measured 3.8-8.3 k
// req/s on a 4-vCPU x86-64 VM, as load from other guests on its host came
// and went: the steady rate sits far below it and the overload rate well
// above it (a run whose overload segments did not saturate the server is
// invalid).
constexpr double kSteadyRps = 1000;
constexpr double kOverloadRps = 16000;
constexpr double kSteadySegment = 4.5;   // s per cycle
constexpr double kOverloadSegment = 2.0; // s per cycle
constexpr double kPhaseGap = 0.5;        // s after each segment (queue drains)
constexpr double kSwapOffset = 0.5;      // s into a steady segment, 1st swap
constexpr double kSwapPeriod = 1.0;      // s between publish + reload_now
constexpr int kSwapsPerCycle = 4;
constexpr double kPostSwapWindow = 0.2;  // s of misses counted per swap
constexpr i64 kCacheEntries = 1024;
constexpr i64 kPoolKeys = 4 * kCacheEntries;
constexpr double kZipfS = 1.0;
constexpr int kSampleEvery = 16;        // results checked against encode()
// serve_p50_ms and serve_tail_ms: the quantile of the latencies in each
// swap window (~1000 requests), lower quartile (kTimeQ) over windows.
// Every window holds one swap and its burst of misses, so the windows are
// alike. The tail is p90 (~100 requests beyond it per window). Across two
// sets of 10 seeds on a 4-vCPU x86-64 VM under hypervisor steal, IQR/median
// was 0.056 and 0.078 for p90, 0.078 and 0.144 for p95, 0.19 and 0.48 for
// p99 (~10 beyond it per window): p95 repeated within the 0.25 bound, but
// only p90 kept to a third of it.
constexpr double kTailQ = 0.90;
constexpr std::size_t kMinWindowSamples = 500;
constexpr double kGenLateBoundMs = 25.0; // p99 generator lateness allowed
constexpr int kSetups = 15;
// Served embedding vs direct MAE::encode of the same weights: the server
// encodes a batch, the check encodes one image, so GEMM blocking may
// differ in the last bits.
constexpr float kEmbedAbsTol = 1e-5f;
constexpr float kEmbedRelTol = 1e-4f;

enum class Phase { kSteady, kOverload, kOverloadTraced };

constexpr double kRampUp = 0.25;  // s into an overload phase before measuring

// Server-side counts over [from, to] of a saturated phase, sampled every
// kSlice seconds; the rate is the upper quartile (kRateQ) over the slices
// with little steal (clean_samples).
constexpr double kSlice = 0.25;

struct Window {
  double seconds = 0, served = 0, encodes = 0, encoded = 0, shed = 0;
  std::vector<double> slice_rates, slice_steal;
  KernelCounters kernels;
  std::size_t clean_slices() const { return clean_samples(slice_steal).size(); }
  double rate() const {
    return quantile(pick(slice_rates, clean_samples(slice_steal)), kRateQ);
  }
  void add(const Window& w) {
    seconds += w.seconds;
    served += w.served;
    encodes += w.encodes;
    encoded += w.encoded;
    shed += w.shed;
    slice_rates.insert(slice_rates.end(), w.slice_rates.begin(),
                       w.slice_rates.end());
    slice_steal.insert(slice_steal.end(), w.slice_steal.begin(),
                       w.slice_steal.end());
    for (const auto& [name, value] : w.kernels.values) {
      kernels.values[name] += value;
    }
  }
};

Window measure(const serve::ModelServer& server, Clock::time_point from,
               Clock::time_point to) {
  std::this_thread::sleep_until(from);
  const KernelCounters k0 = KernelCounters::read();
  const serve::ServerStats s0 = server.stats();
  const double t0 = now_s();
  Window w;
  serve::ServerStats prev = s0;
  double prev_t = t0;
  StealMeter steal;
  for (Clock::time_point next = from + std::chrono::milliseconds(static_cast<int>(1e3 * kSlice));
       next <= to; next += std::chrono::milliseconds(static_cast<int>(1e3 * kSlice))) {
    std::this_thread::sleep_until(next);
    const serve::ServerStats cur = server.stats();
    const double t = now_s();
    w.slice_rates.push_back(static_cast<double>(cur.requests - prev.requests) /
                            (t - prev_t));
    w.slice_steal.push_back(steal.share());
    steal = StealMeter();
    prev = cur;
    prev_t = t;
  }
  w.seconds = prev_t - t0;
  w.kernels = KernelCounters::read().minus(k0);
  w.served = static_cast<double>(prev.requests - s0.requests);
  w.encodes = static_cast<double>(prev.encodes - s0.encodes);
  w.encoded = static_cast<double>(prev.encoded_images - s0.encoded_images);
  w.shed = static_cast<double>(prev.shed_overload + prev.shed_deadline -
                               s0.shed_overload - s0.shed_deadline);
  return w;
}

struct Arrival {
  double due = 0;  // s after the schedule start
  int image = 0;   // pool index
  bool keyed = false;
  Phase phase = Phase::kSteady;
  int window = -1;  // swap window of a steady arrival; -1 = warm-up
};

struct InFlight {
  const Arrival* arrival;
  Clock::time_point due;
  std::future<serve::EmbedResult> future;
};

struct Sample {
  int image;
  i64 step;
  Tensor embedding;
};

// Per-phase tallies, filled by the collector.
struct Tally {
  i64 sent = 0, served = 0, typed_shed = 0;
};

struct Cycle {
  double steady = 0, overload = 0, traced = 0;  // segment starts, s
};

std::vector<Cycle> make_cycles(double seconds, bool traced) {
  const double len = kSteadySegment + kOverloadSegment + 2 * kPhaseGap +
                     (traced ? kOverloadSegment + kPhaseGap : 0.0);
  const int n = std::max(1, static_cast<int>(seconds / len));
  std::vector<Cycle> cycles;
  for (int i = 0; i < n; ++i) {
    Cycle c;
    c.steady = i * len;
    c.overload = c.steady + kSteadySegment + kPhaseGap;
    c.traced = c.overload + kOverloadSegment + kPhaseGap;
    cycles.push_back(c);
  }
  return cycles;
}

std::vector<Arrival> make_schedule(u64 seed, const std::vector<Cycle>& cycles,
                                   bool traced) {
  Rng rng = Rng(seed).split(hash_name("arrivals"));
  // Zipf CDF over the key pool.
  std::vector<double> cdf(kPoolKeys);
  double sum = 0;
  for (i64 i = 0; i < kPoolKeys; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[static_cast<size_t>(i)] = sum;
  }
  // Random rank-to-key mapping so popular keys are spread over the pool.
  std::vector<int> perm(kPoolKeys);
  for (i64 i = 0; i < kPoolKeys; ++i) perm[static_cast<size_t>(i)] = static_cast<int>(i);
  for (i64 i = kPoolKeys - 1; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[static_cast<size_t>(rng.next_u64() % static_cast<u64>(i + 1))]);
  }
  auto uniform = [&] {
    return (static_cast<double>(rng.next_u64() >> 11) + 0.5) * 0x1.0p-53;
  };
  std::vector<Arrival> out;
  int unique = 0;
  int cycle = 0;
  auto segment = [&](Phase ph, double start, double len, double rps) {
    for (double t = start - std::log(uniform()) / rps; t < start + len;
         t -= std::log(uniform()) / rps) {
      Arrival a;
      a.due = t;
      a.phase = ph;
      if (ph == Phase::kSteady) {
        const double into = t - start - kSwapOffset;
        if (into >= 0) {
          a.window = cycle * kSwapsPerCycle +
                     std::min(kSwapsPerCycle - 1,
                              static_cast<int>(into / kSwapPeriod));
        }
        const double u = uniform() * sum;
        const auto rank = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
        a.image = perm[static_cast<size_t>(std::min<i64>(rank, kPoolKeys - 1))];
        a.keyed = true;
      } else {
        a.image = unique++ % static_cast<int>(kPoolKeys);
      }
      out.push_back(a);
    }
  };
  for (const Cycle& c : cycles) {
    segment(Phase::kSteady, c.steady, kSteadySegment, kSteadyRps);
    segment(Phase::kOverload, c.overload, kOverloadSegment, kOverloadRps);
    if (traced) {
      segment(Phase::kOverloadTraced, c.traced, kOverloadSegment, kOverloadRps);
    }
    ++cycle;
  }
  return out;
}

i64 step_for(size_t version) { return 100 * static_cast<i64>(version + 1); }

// Publishes `model` as a complete world-1 checkpoint under `root`.
void publish(const std::string& root, i64 step, models::MAE& model) {
  ckpt::SaveRequest req;
  req.dir = root;
  req.step = step;
  req.state = ckpt::replicated_state(model, nullptr, 0, 1, /*for_save=*/true);
  req.retention.keep_last = 2;
  ckpt::Checkpointer saver(/*async=*/false);
  saver.save(req);
}

serve::ServerConfig server_config(const std::string& root) {
  serve::ServerConfig cfg;
  cfg.checkpoint_root = root;
  cfg.model = models::mae_for(models::proxy_3b());
  cfg.max_batch = 16;
  cfg.max_delay_us = 500;
  cfg.max_queue = 1024;
  cfg.cache_capacity = kCacheEntries;
  cfg.poll_interval_seconds = 0;
  return cfg;
}

// Worst |got - want| as a share of its tolerance; <= 1 passes.
float tolerance_ratio(const Tensor& got, const Tensor& want) {
  if (got.numel() != want.numel()) return INFINITY;
  float worst = 0;
  for (i64 i = 0; i < got.numel(); ++i) {
    const float err = std::fabs(got[i] - want[i]);
    const float allowed = kEmbedAbsTol + kEmbedRelTol * std::fabs(want[i]);
    worst = std::max(worst, err / allowed);
  }
  return worst;
}

}  // namespace

Outcome run_serve_hotswap(const Args& args) {
  Outcome out;
  const std::string root = args.workdir + "/publish";
  const models::MaeConfig mcfg = models::mae_for(models::proxy_3b());
  const auto& enc = mcfg.encoder;
  const std::vector<Cycle> cycles = make_cycles(args.seconds, args.trace);

  // Inputs: the image pool and one weight set per published version.
  const data::SceneDataset corpus = make_corpus(args.seed, kPoolKeys);
  std::vector<Tensor> images;
  images.reserve(kPoolKeys);
  for (i64 i = 0; i < kPoolKeys; ++i) {
    images.push_back(corpus.get(data::Split::kTrain, i).image);
  }
  const size_t versions = cycles.size() * kSwapsPerCycle + 1;
  std::vector<std::unique_ptr<models::MAE>> weights;
  for (size_t v = 0; v < versions; ++v) {
    Rng rng = Rng(args.seed).split(hash_name("weights") + v);
    weights.push_back(std::make_unique<models::MAE>(mcfg, rng));
  }
  const std::vector<Arrival> schedule =
      make_schedule(args.seed, cycles, args.trace);

  // Set-up, several times: publish version 0, start a server on it, serve
  // one request.
  std::vector<double> setups;
  std::unique_ptr<serve::ModelServer> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    fs::remove_all(root);
    const double t0 = now_s();
    ckpt::reset_save_state(root);
    publish(root, step_for(0), *weights[0]);
    server = std::make_unique<serve::ModelServer>(server_config(root));
    serve::EmbedRequest warm;
    warm.image = images[0];
    server->embed(std::move(warm));
    setups.push_back(now_s() - t0);
  }

  SpanLog log;
  SpanLog* const trace = args.trace ? &log : nullptr;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool generator_done = false;
  std::vector<double> late_ms;
  late_ms.reserve(schedule.size());
  std::map<Phase, Tally> tallies;
  // Steady-segment latency from due time, per swap window.
  std::vector<std::vector<double>> window_ms(cycles.size() * kSwapsPerCycle);
  std::vector<Sample> samples;
  i64 dropped = 0, untyped = 0;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };

  std::thread generator([&] {
    i64 id = 0;
    for (const Arrival& a : schedule) {
      const Clock::time_point due = at(a.due);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      if (a.phase == Phase::kSteady) {
        late_ms.push_back(
            std::chrono::duration<double, std::milli>(sent - due).count());
      }
      serve::EmbedRequest req;
      if (a.keyed) req.key = "k" + std::to_string(a.image);
      req.image = images[static_cast<size_t>(a.image)];
      std::future<serve::EmbedResult> fut;
      {
        Scope s(a.phase == Phase::kOverload ? nullptr : trace, "serve.submit",
                0, id++);
        fut = server->submit(std::move(req));
      }
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back({&a, due, std::move(fut)});
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lk(mu);
    generator_done = true;
    cv.notify_one();
  });

  std::thread collector([&] {
    i64 n = 0;
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      Tally& t = tallies[f.arrival->phase];
      ++t.sent;
      if (!f.future.valid()) {
        ++dropped;
        continue;
      }
      try {
        serve::EmbedResult r = f.future.get();
        const Clock::time_point done = Clock::now();
        ++t.served;
        if (f.arrival->window >= 0) {
          window_ms[static_cast<size_t>(f.arrival->window)].push_back(
              std::chrono::duration<double, std::milli>(done - f.due).count());
        }
        if (n++ % kSampleEvery == 0) {
          samples.push_back({f.arrival->image, r.model_step, r.embedding});
        }
      } catch (const serve::Overloaded&) {
        ++t.typed_shed;
      } catch (const serve::DeadlineExceeded&) {
        ++t.typed_shed;
      } catch (const std::future_error&) {
        ++dropped;
      } catch (const std::exception&) {
        ++untyped;
      }
    }
  });

  // Main thread, per cycle: publish + reload_now at the start of each swap
  // window, then measure the overload segment(s) server-side.
  std::vector<double> swap_ms, save_ms, post_swap_misses;
  std::vector<double> window_steal;  // steal share of each swap window
  StealMeter window_meter;
  i64 swaps_failed = 0;
  size_t version = 1;
  serve::ServerStats steady_stats;  // hits, misses, encodes over steady segments
  Window over_w, traced_w;
  for (const Cycle& c : cycles) {
    std::this_thread::sleep_until(at(c.steady));
    const serve::ServerStats s0 = server->stats();
    for (int k = 0; k < kSwapsPerCycle; ++k, ++version) {
      const double when = c.steady + kSwapOffset + k * kSwapPeriod;
      std::this_thread::sleep_until(at(when));
      if (k > 0) window_steal.push_back(window_meter.share());
      window_meter = StealMeter();
      {
        const double t0 = now_s();
        Scope s(trace, "ckpt.save", 0, static_cast<i64>(version));
        publish(root, step_for(version), *weights[version]);
        save_ms.push_back(1e3 * (now_s() - t0));
      }
      const double t0 = now_s();
      bool swapped = false;
      {
        Scope s(trace, "serve.reload_now", 0, static_cast<i64>(version));
        swapped = server->reload_now();
      }
      swap_ms.push_back(1e3 * (now_s() - t0));
      if (!swapped || server->model_step() != step_for(version)) ++swaps_failed;
      const i64 misses0 = server->stats().cache_misses;
      std::this_thread::sleep_until(at(when + kPostSwapWindow));
      post_swap_misses.push_back(
          static_cast<double>(server->stats().cache_misses - misses0));
    }
    std::this_thread::sleep_until(at(c.steady + kSteadySegment));
    window_steal.push_back(window_meter.share());
    const serve::ServerStats s1 = server->stats();
    steady_stats.cache_hits += s1.cache_hits - s0.cache_hits;
    steady_stats.cache_misses += s1.cache_misses - s0.cache_misses;
    steady_stats.encodes += s1.encodes - s0.encodes;
    // Requests fulfilled per second while saturated, once the queue filled.
    over_w.add(measure(*server, at(c.overload + kRampUp),
                       at(c.overload + kOverloadSegment)));
    if (args.trace) {
      traced_w.add(measure(*server, at(c.traced + kRampUp),
                           at(c.traced + kOverloadSegment)));
    }
  }
  generator.join();
  collector.join();
  const serve::ServerStats final_stats = server->stats();

  // ----- correctness ------------------------------------------------------
  if (args.plant == Plant::kWrongEmbedding && !samples.empty()) {
    samples.front().embedding = samples.front().embedding.clone();
    samples.front().embedding[0] += 1e-2f;
  }
  i64 wrong = 0;
  float worst = 0;
  for (const Sample& s : samples) {
    const i64 v = s.step / 100 - 1;
    if (v < 0 || v >= static_cast<i64>(versions) || s.step % 100 != 0) {
      ++wrong;
      continue;
    }
    const Tensor want =
        weights[static_cast<size_t>(v)]->encode(
            images[static_cast<size_t>(s.image)].view(
                {1, enc.in_channels, enc.img_size, enc.img_size}));
    const float err = tolerance_ratio(s.embedding, want);
    worst = std::max(worst, err);
    if (!(err <= 1.0f)) ++wrong;
  }
  const Tally& steady = tallies[Phase::kSteady];
  const Tally& over = tallies[Phase::kOverload];
  i64 sent = 0, served = 0, shed = 0;
  for (const auto& [phase, t] : tallies) {
    sent += t.sent;
    served += t.served;
    shed += t.typed_shed;
  }
  out.attempted = static_cast<i64>(schedule.size());
  out.failed = wrong + dropped + untyped + steady.typed_shed;
  out.check(wrong == 0, std::to_string(wrong) + " of " +
                            std::to_string(samples.size()) +
                            " sampled embeddings differ from MAE::encode");
  out.check(dropped == 0, std::to_string(dropped) + " dropped futures");
  out.check(untyped == 0, std::to_string(untyped) + " untyped errors");
  out.check(steady.typed_shed == 0,
            std::to_string(steady.typed_shed) + " sheds in a steady segment");
  out.check(sent == static_cast<i64>(schedule.size()) &&
                sent == served + shed + untyped,
            "futures not conserved: sent " + std::to_string(sent) +
                " served " + std::to_string(served) + " shed " +
                std::to_string(shed));
  out.check(swaps_failed == 0 && !swap_ms.empty(),
            std::to_string(swaps_failed) + " reloads did not swap in the "
                                           "published step");
  const double late_p99 = quantile(late_ms, 0.99);
  out.check(late_p99 <= kGenLateBoundMs,
            "generator ran late: p99 " + fmt(late_p99, 3) + " ms > " +
                fmt(kGenLateBoundMs, 1) + " ms; run invalid");
  std::vector<double> all_ms;
  for (const std::vector<double>& w : window_ms) {
    out.check(w.size() >= kMinWindowSamples,
              "a swap window served only " + std::to_string(w.size()) +
                  " requests");
    all_ms.insert(all_ms.end(), w.begin(), w.end());
  }
  // The q-quantile in each swap window with little steal, lower quartile
  // over those windows; swap k opens window k.
  const std::vector<std::size_t> keep = clean_samples(window_steal);
  auto over_windows = [&](double q) {
    std::vector<double> v;
    for (const std::size_t i : keep) v.push_back(quantile(window_ms[i], q));
    return quantile(v, kTimeQ);
  };
  const double p50 = over_windows(0.5);
  const double tail = over_windows(kTailQ);
  const double swap = quantile(pick(swap_ms, keep), kTimeQ);

  const double capacity = over_w.rate();
  out.check(capacity < 0.9 * kOverloadRps,
            "overload segments did not saturate the server: " +
                fmt(capacity, 0) + " of " + fmt(kOverloadRps, 0) +
                " req/s served; run invalid");
  std::printf("  overload window %.2f s: %.0f served (slices of %.2f s: "
              "%.0f-%.0f req/s), %.0f shed, mean batch %.2f, kernel seconds "
              "%.2f\n",
              over_w.seconds, over_w.served, kSlice,
              quantile(over_w.slice_rates, 0), quantile(over_w.slice_rates, 1),
              over_w.shed,
              over_w.encodes > 0 ? over_w.encoded / over_w.encodes : 0.0,
              over_w.kernels.total_seconds());
  std::printf("  serve_hotswap: %lld sent (%lld steady at %.0f req/s, %lld "
              "overload at %.0f req/s); %lld served, %lld typed sheds; "
              "%zu embeddings checked (worst error %.3f of tolerance)\n",
              static_cast<long long>(sent),
              static_cast<long long>(steady.sent), kSteadyRps,
              static_cast<long long>(over.sent), kOverloadRps,
              static_cast<long long>(served), static_cast<long long>(shed),
              samples.size(), static_cast<double>(worst));
  std::printf("  %zu of %zu swap windows and %zu of %zu overload slices "
              "with at most %.0f%% steal\n",
              keep.size(), window_ms.size(), over_w.clean_slices(),
              over_w.slice_rates.size(), 100 * kCleanSteal);
  std::printf("  serve_p50_ms (median per swap window, lower quartile over "
              "windows) %.3f ms, serve_tail_ms (p%.0f per swap window, lower "
              "quartile; %zu samples in all windows) %.3f ms, "
              "serve_capacity_rps %.1f 1/s, swap_ms (lower quartile) %.3f ms, "
              "generator p99 late %.3f ms\n",
              p50, 100 * kTailQ, all_ms.size(), tail, capacity, swap,
              late_p99);
  std::printf("  pooled steady latency percentiles: p90 %.3f p95 %.3f p99 "
              "%.3f p99.9 %.3f ms\n",
              quantile(all_ms, 0.90), quantile(all_ms, 0.95),
              quantile(all_ms, 0.99), quantile(all_ms, 0.999));
  // Neighbouring percentiles, for choosing kTailQ.
  std::printf("  per swap window, lower quartile over windows: p75 %.3f "
              "p90 %.3f p95 %.3f p99 %.3f ms\n",
              over_windows(0.75), over_windows(0.90), over_windows(0.95),
              over_windows(0.99));

  if (!args.trace) {
    out.add("setup_s", median(setups), "s");
    out.add("images_per_s", capacity, "1/s");
    out.add("p50_ms", p50, "ms");
    out.add("tail_ms", tail, "ms");
    out.add("restore_ms", swap, "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  const double capacity_traced = traced_w.rate();
  const double lookups = static_cast<double>(steady_stats.cache_hits +
                                             steady_stats.cache_misses);
  add_tensor_metrics(out, traced_w.kernels, traced_w.seconds, traced_w.encodes,
                     1);
  // Checkpoint written by the publisher, then restored as a reload does.
  const auto latest = ckpt::latest_published_manifest(root);
  std::vector<double> restore;
  for (int i = 0; i < 5 && latest.found(); ++i) {
    Rng rng(1);
    models::MAE fresh(mcfg, rng);
    const double t0 = now_s();
    Scope s(trace, "ckpt.restore", 0, i);
    ckpt::CheckpointReader reader(latest.dir);
    reader.restore(ckpt::replicated_state(fresh, nullptr, 0, 1, false));
    restore.push_back(now_s() - t0);
  }
  out.add("ckpt.save_call_ms", median(save_ms), "ms");
  out.add("ckpt.bytes_per_save",
          latest.found() ? static_cast<double>(dir_bytes(latest.dir)) : 0.0,
          "B");
  out.add("ckpt.restore_ms", 1e3 * median(restore), "ms");
  out.add("serve.submit_us", 1e6 * median(log.durations("serve.submit")),
          "us");
  out.add("serve.mean_batch",
          final_stats.encodes > 0
              ? static_cast<double>(final_stats.encoded_images) /
                    static_cast<double>(final_stats.encodes)
              : 0.0,
          "count");
  out.add("serve.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(steady_stats.cache_hits) / lookups
                      : 0.0,
          "ratio");
  out.add("serve.cache_lookups", lookups, "count");
  out.add("serve.post_swap_misses", median(post_swap_misses), "count");
  out.add("serve.encodes_per_s",
          static_cast<double>(steady_stats.encodes) /
              (kSteadySegment * static_cast<double>(cycles.size())),
          "1/s");
  out.add("serve.gen_late_ms", late_p99, "ms");
  out.add("serve.overload_shed_share",
          over.sent > 0 ? static_cast<double>(over.typed_shed) /
                              static_cast<double>(over.sent)
                        : 0.0,
          "ratio");
  out.add("obs.trace_overhead_ratio",
          capacity_traced > 0 ? capacity / capacity_traced : 0.0, "ratio");
  add_idle_training_layers(out);
  log.write_json(args.workdir + "/spans_serve_hotswap.json");
  return out;
}

}  // namespace perfbench
