#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_context.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

void Outcome::add(const std::string& name, double value,
                  const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  check(std::none_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; }),
        "metric " + name + " reported twice");
  metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Outcome::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double now_s() { return geofm::monotonic_seconds(); }

double steal_seconds() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  stat >> cpu;
  for (double& f : field) stat >> f;
  if (!stat || cpu != "cpu") return 0;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double StealMeter::share() const {
  const double cpu_seconds =
      (now_s() - t0_) *
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  return cpu_seconds > 0 ? (steal_seconds() - steal0_) / cpu_seconds : 0.0;
}

std::vector<std::size_t> clean_samples(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steal[a] < steal[b];
  });
  std::size_t clean = 0;
  while (clean < order.size() && steal[order[clean]] <= kCleanSteal) ++clean;
  const std::size_t floor = std::max<std::size_t>(1, (steal.size() + 3) / 4);
  order.resize(std::min(order.size(), std::max(clean, floor)));
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> pick(const std::vector<double>& v,
                         const std::vector<std::size_t>& keep) {
  std::vector<double> out;
  for (const std::size_t i : keep) out.push_back(v[i]);
  return out;
}

void warm_cpus(double seconds) {
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const double end = now_s() + seconds;
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([end] {
      volatile double x = 1;
      while (now_s() < end) {
        for (int k = 0; k < 10000; ++k) x = x * 1.0000001 + 1e-9;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

void SpanLog::record(const char* name, int rank, i64 id, double t0,
                     double t1) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, rank, id, t0, t1});
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.t1 - s.t0);
  }
  return out;
}

double SpanLog::total(const std::string& name) const {
  double sum = 0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

void SpanLog::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"name\": \"" << s.name << "\", \"rank\": " << s.rank
       << ", \"id\": " << s.id << ", \"t0\": " << fmt(s.t0, 7)
       << ", \"t1\": " << fmt(s.t1, 7) << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

KernelCounters KernelCounters::read() {
  KernelCounters k;
  for (const auto& s : geofm::obs::MetricsRegistry::instance().snapshot()) {
    if (s.name.rfind("kernel.", 0) == 0) k.values[s.name] = s.value;
  }
  return k;
}

KernelCounters KernelCounters::minus(const KernelCounters& before) const {
  KernelCounters d = *this;
  for (auto& [name, value] : d.values) {
    const auto it = before.values.find(name);
    if (it != before.values.end()) value -= it->second;
  }
  return d;
}

double KernelCounters::get(const std::string& family,
                           const std::string& leaf) const {
  const auto it = values.find("kernel." + family + "." + leaf);
  return it == values.end() ? 0.0 : it->second;
}

double KernelCounters::total_seconds() const {
  double sum = 0;
  for (const auto& [name, value] : values) {
    if (name.size() > 8 && name.compare(name.size() - 8, 8, ".seconds") == 0) {
      sum += value;
    }
  }
  return sum;
}

void add_tensor_metrics(Outcome& out, const KernelCounters& k,
                        double thread_seconds, double steps, int world) {
  const double gemm_s = k.get("gemm", "seconds");
  const double per_step = steps > 0 ? 1e3 / (steps * world) : 0.0;
  const double share_base = thread_seconds > 0 ? thread_seconds : 1.0;
  out.add("tensor.gemm_gflops",
          gemm_s > 0 ? k.get("gemm", "flops") / gemm_s * 1e-9 : 0.0,
          "GFLOP/s");
  out.add("tensor.gemm_share", gemm_s / share_base, "ratio");
  out.add("tensor.gemm_calls_per_step",
          steps > 0 ? k.get("gemm", "calls") / (steps * world) : 0.0,
          "count");
  out.add("tensor.softmax_ms",
          (k.get("softmax", "seconds") + k.get("softmax_bwd", "seconds")) *
              per_step,
          "ms");
  out.add("tensor.layernorm_ms",
          (k.get("layernorm", "seconds") +
           k.get("layernorm_bwd", "seconds")) *
              per_step,
          "ms");
  out.add("tensor.adamw_ms", k.get("adamw", "seconds") * per_step, "ms");
  const double attributed = k.total_seconds() / share_base;
  out.add("tensor.kernel_share", attributed, "ratio");
  out.add("tensor.unattributed_share",
          thread_seconds > 0 ? std::max(0.0, 1.0 - attributed) : 0.0,
          "ratio");
}

void add_idle_training_layers(Outcome& out) {
  for (const char* name :
       {"data.next_wait_ms", "models.forward_ms", "models.forward_p90_ms",
        "models.backward_ms", "models.backward_p90_ms", "optim.step_ms",
        "parallel.begin_step_ms", "parallel.end_backward_ms",
        "comm.exposed_ms", "comm.busy_ms", "comm.loss_allreduce_ms",
        "ckpt.drain_ms"}) {
    out.add(name, 0, "ms");
  }
  for (const char* name :
       {"parallel.peak_inflight_gathers", "parallel.collectives_per_step",
        "comm.overlap_base", "train.recoveries", "train.replayed_steps"}) {
    out.add(name, 0, "count");
  }
  out.add("parallel.bytes_per_step", 0, "B");
  out.add("comm.overlap_ratio", 0, "ratio");
}

void add_idle_serve_layer(Outcome& out) {
  out.add("serve.submit_us", 0, "us");
  out.add("serve.mean_batch", 0, "count");
  out.add("serve.cache_hit_ratio", 0, "ratio");
  out.add("serve.cache_lookups", 0, "count");
  out.add("serve.post_swap_misses", 0, "count");
  out.add("serve.encodes_per_s", 0, "1/s");
  out.add("serve.gen_late_ms", 0, "ms");
  out.add("serve.overload_shed_share", 0, "ratio");
}

geofm::data::SceneDataset make_corpus(u64 seed, i64 n_images) {
  return geofm::data::SceneDataset("perfbench", /*n_classes=*/51, n_images,
                                   /*n_test=*/0, /*img_size=*/32,
                                   geofm::mix64(seed ^ 0x9e0f5eedULL));
}

std::size_t dir_bytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::size_t sum = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(path, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) sum += it->file_size(ec);
  }
  return sum;
}

std::string run_self(const std::vector<std::string>& args) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  std::vector<std::string> storage{exe};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot start " + exe);
  }
  std::string output;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n > 0) output.append(buf, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child run of " + exe + " failed");
  }
  return output;
}

}  // namespace perfbench
