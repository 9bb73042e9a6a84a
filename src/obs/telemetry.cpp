#include "obs/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/thread_context.hpp"

namespace geofm::obs::telemetry {
namespace {

// Span names folded into the per-rank breakdown. Everything else a rank
// emits (comm internals, fsdp/ddp machinery) is visible in the full trace;
// the time series keeps the step-phase skeleton plus exposed comm wait.
constexpr const char* kPhases[] = {
    "step",          "step.fetch",     "step.backward",
    "step.forward",  "step.optimizer", "step.end_backward",
    "step.loss_allreduce"};

i64 rss_bytes() {
#ifdef __linux__
  std::ifstream f("/proc/self/statm");
  long long total = 0, resident = 0;
  if (f >> total >> resident) {
    return static_cast<i64>(resident) * sysconf(_SC_PAGESIZE);
  }
#endif
  return 0;
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void append_key(std::string& out, const std::string& k) {
  out += '"';
  for (const char c : k) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\": ";
}

struct Sampler {
  TelemetryOptions opts;
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop_requested = false;

  std::ofstream out;
  std::vector<MetricSample> prev;
  std::vector<u64> cursor;

  void tick() {
    TraceScope span("telemetry.sample", "obs");

    // Per-rank phase seconds from spans published since the last tick.
    // rank -> phase name -> seconds this interval.
    std::map<int, std::map<std::string, double>> ranks;
    TraceRecorder::instance().drain_new_events(
        cursor, [&ranks](const TraceEvent& e) {
          if (e.phase != TraceEvent::Phase::kComplete || e.rank < 0) return;
          // Cheap prefilter before any strcmp: the drain visits EVERY
          // span the ranks emit (kernel.gemm alone is millions on a real
          // run), but only "st..." names and the "comm.exposed" category
          // ("comm" ends at index 4) can fold into the breakdown. The
          // indexed reads are safe: each is guarded by the previous
          // char matching, so we never read past a literal's NUL.
          const char* c = e.cat;
          if (c != nullptr && c[0] == 'c' && c[1] == 'o' && c[2] == 'm' &&
              c[3] == 'm' && c[4] == '.' &&
              std::strcmp(c, "comm.exposed") == 0) {
            ranks[e.rank]["comm.exposed"] +=
                static_cast<double>(e.dur_ns) * 1e-9;
            return;
          }
          if (e.name == nullptr || e.name[0] != 's' || e.name[1] != 't') {
            return;
          }
          for (const char* phase : kPhases) {
            if (std::strcmp(e.name, phase) == 0) {
              ranks[e.rank][phase] += static_cast<double>(e.dur_ns) * 1e-9;
              break;
            }
          }
        });

    auto cur = MetricsRegistry::instance().snapshot();
    const auto d = MetricsRegistry::delta(prev, cur);
    prev = std::move(cur);

    std::string line;
    line.reserve(512);
    line += "{\"t\": ";
    append_double(line, monotonic_seconds());
    line += ", \"interval\": ";
    append_double(line, opts.interval_seconds);
    line += ", \"rss_bytes\": " + std::to_string(rss_bytes());
    line += ", \"metrics\": {";
    bool first = true;
    for (const MetricSample& m : d) {
      switch (m.kind) {
        case MetricSample::Kind::kCounter:
        case MetricSample::Kind::kGauge:
          if (m.value == 0) continue;
          if (!first) line += ", ";
          append_key(line, m.name);
          append_double(line, m.value);
          break;
        case MetricSample::Kind::kHistogram:
          if (m.count == 0) continue;
          if (!first) line += ", ";
          append_key(line, m.name);
          line += "{\"count\": " + std::to_string(m.count) + ", \"sum\": ";
          append_double(line, m.value);
          line += '}';
          break;
      }
      first = false;
    }
    line += "}, \"ranks\": {";
    first = true;
    for (const auto& [rank, phases] : ranks) {
      if (!first) line += ", ";
      first = false;
      line += '"' + std::to_string(rank) + "\": {";
      bool pfirst = true;
      for (const auto& [phase, sec] : phases) {
        if (!pfirst) line += ", ";
        pfirst = false;
        append_key(line, phase);
        append_double(line, sec);
      }
      line += '}';
    }
    line += "}}\n";
    out << line;
    out.flush();
  }

  void loop() {
    set_thread_rank(-1);
    set_thread_label("telemetry.sampler");
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      if (cv.wait_for(lk, std::chrono::duration<double>(opts.interval_seconds),
                      [this] { return stop_requested; })) {
        return;
      }
      lk.unlock();
      tick();
      lk.lock();
    }
  }
};

std::mutex g_mu;
Sampler* g_sampler = nullptr;  // non-null while running

}  // namespace

bool start(const TelemetryOptions& opts) {
  GEOFM_CHECK(!opts.dir.empty(), "telemetry: output dir required");
  GEOFM_CHECK(opts.interval_seconds > 0);
  std::lock_guard<std::mutex> lk(g_mu);
  if (g_sampler != nullptr) return false;
  std::filesystem::create_directories(opts.dir);
  auto* s = new Sampler;
  s->opts = opts;
  s->out.open(opts.dir + "/telemetry.jsonl", std::ios::trunc);
  if (!s->out.good()) {
    delete s;
    throw Error("telemetry: cannot open " + opts.dir + "/telemetry.jsonl");
  }
  // Baseline snapshot so the first tick reports deltas, not totals.
  s->prev = MetricsRegistry::instance().snapshot();
  s->thread = std::thread([s] { s->loop(); });
  g_sampler = s;
  return true;
}

void stop() {
  Sampler* s = nullptr;
  {
    std::lock_guard<std::mutex> lk(g_mu);
    s = g_sampler;
    g_sampler = nullptr;
  }
  if (s == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    s->stop_requested = true;
  }
  s->cv.notify_all();
  s->thread.join();
  s->tick();  // final partial interval, so short runs still get a sample
  delete s;
}

bool running() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_sampler != nullptr;
}

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* dir = std::getenv("GEOFM_TELEMETRY");
    if (dir == nullptr || dir[0] == '\0') return;
    TelemetryOptions opts;
    opts.dir = dir;
    if (const char* iv = std::getenv("GEOFM_TELEMETRY_INTERVAL")) {
      const double v = std::atof(iv);
      if (v > 0) opts.interval_seconds = v;
    }
    // The per-rank breakdown is derived from spans; turn tracing on if the
    // user only asked for telemetry. Note the trace buffers drop (never
    // wrap) once full, so very long runs want GEOFM_TRACE_BUFFER raised.
    TraceRecorder::instance().enable();
    try {
      start(opts);
      GEOFM_INFO("telemetry sampler writing " << opts.dir
                                              << "/telemetry.jsonl every "
                                              << opts.interval_seconds
                                              << "s");
    } catch (const std::exception& e) {
      GEOFM_WARN("telemetry: failed to start from GEOFM_TELEMETRY: "
                 << e.what());
    }
  });
}

}  // namespace geofm::obs::telemetry
