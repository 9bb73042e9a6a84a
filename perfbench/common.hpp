// Shared pieces of the geofm benchmark: arguments, the result record and
// its JSON line, order statistics, the in-memory span log of traced runs,
// kernel-counter snapshots, and the seeded corpus.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "util/common.hpp"

namespace perfbench {

using geofm::i64;
using geofm::u64;

// Deliberate faults for the self-test: each must make the run fail.
enum class Plant { kNone, kWrongEmbedding, kLossMismatch };

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 10;
  bool trace = false;
  Plant plant = Plant::kNone;
  std::string workdir;  // holds checkpoints and span logs
  // Recorded final training losses by (workload, seed).
  std::map<std::pair<std::string, u64>, double> reference_losses;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// One run's record. `check` turns a failed correctness condition into a
// recorded problem; any problem makes the run incorrect.
struct Outcome {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
  bool correct() const { return problems.empty() && failed == 0; }
  // The last line of standard output: {"correct", "attempted", "failed",
  // "metrics"}.
  std::string json() const;
};

double median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double now_s();

// A pause of the host (a virtual machine's vCPU descheduled) only adds
// time to the samples it hits. Where the samples of a metric are alike
// (swap windows, overload slices, restore probes), a run reports the
// lower quartile of times and the upper quartile of rates: what the
// program gives in the samples the host left alone. A change of the
// program moves every sample, so it still moves these.
inline constexpr double kTimeQ = 0.25;
inline constexpr double kRateQ = 0.75;

// Steal: vCPU time the hypervisor gave to other guests, which slowed
// whole runs of this benchmark by up to 2x on a shared 4-vCPU VM. A sample
// (a training run, a swap window, an overload slice, a restore probe)
// with more than kCleanSteal of its CPU time stolen measures the host,
// not the program, and is left out of the end-to-end metrics.
inline constexpr double kCleanSteal = 0.01;

// Stolen vCPU time so far, summed over CPUs, in seconds ("steal" in
// /proc/stat); 0 where the kernel does not report it.
double steal_seconds();

// The share of CPU time stolen since construction.
class StealMeter {
 public:
  StealMeter() : t0_(now_s()), steal0_(steal_seconds()) {}
  double share() const;

 private:
  double t0_, steal0_;
};

// Indices of the samples to measure the program by: those with a steal
// share of at most kCleanSteal or, when fewer than a quarter of them are
// that clean, the quarter with the least steal (at least one sample).
std::vector<std::size_t> clean_samples(const std::vector<double>& steal);
// The elements of `v` at `keep`.
std::vector<double> pick(const std::vector<double>& v,
                         const std::vector<std::size_t>& keep);

// Keeps every CPU (at most 4) busy for `seconds`: a virtual machine's idle
// vCPUs run slowly for about a second after they wake, which would
// otherwise land in the first measurements of a run.
void warm_cpus(double seconds);
double peak_rss_mb();
// Returns freed heap memory to the system and resets the process's peak
// RSS to its current RSS, so that peak_rss_mb() then reports the peak
// since this call.
void reset_peak_rss();
std::string fmt(double v, int digits = 4);

// Spans recorded by traced runs around calls into the program, kept in
// memory and written out once when the run ends.
class SpanLog {
 public:
  void record(const char* name, int rank, i64 id, double t0, double t1);
  // Durations (seconds) of every span called `name`, any rank.
  std::vector<double> durations(const std::string& name) const;
  // Sum of durations of `name`, any rank.
  double total(const std::string& name) const;
  void write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int rank;
    i64 id;
    double t0, t1;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span around one call into the program; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int rank, i64 id)
      : log_(log), name_(name), rank_(rank), id_(id), t0_(now_s()) {}
  ~Scope() {
    if (log_) log_->record(name_, rank_, id_, t0_, now_s());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  int rank_;
  i64 id_;
  double t0_;
};

// The program's `kernel.<family>.{calls,flops,seconds}` counters.
struct KernelCounters {
  std::map<std::string, double> values;  // full registry name -> value
  static KernelCounters read();
  KernelCounters minus(const KernelCounters& before) const;
  double get(const std::string& family, const std::string& leaf) const;
  double total_seconds() const;  // every family
};

// Adds the `tensor.*` per-layer metrics from kernel-counter deltas over a
// window in which `thread_seconds` of compute-thread time elapsed (summed
// over ranks) across `steps` steps (0 = not a training window).
void add_tensor_metrics(Outcome& out, const KernelCounters& k,
                        double thread_seconds, double steps, int world);

// Per-layer metrics of the layers one kind of workload does not drive,
// reported as explicit zeros so that every traced run reports every
// per-layer metric: the training loop's layers (data, models, optim,
// parallel, comm, train and the training checkpoint drain) on
// serve_hotswap, and the serve layer on the training workloads.
void add_idle_training_layers(Outcome& out);
void add_idle_serve_layer(Outcome& out);

// Procedural corpus drawn from the workload seed: the program sees only
// the rendered scenes.
geofm::data::SceneDataset make_corpus(u64 seed, i64 n_images);

std::size_t dir_bytes(const std::string& path);

// Runs this binary again in a child process with `args`, waits for it to
// end, and returns its standard output (its standard error is inherited).
// Throws when it cannot start or does not exit with 0.
std::string run_self(const std::vector<std::string>& args);

}  // namespace perfbench
