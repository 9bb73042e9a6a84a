#include "ckpt/uploader.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>

#include "ckpt/format.hpp"
#include "ckpt/io_fault.hpp"
#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/log.hpp"
#include "util/thread_context.hpp"

namespace geofm::ckpt {
namespace {

namespace fs = std::filesystem;

constexpr double kAttemptTimeoutSeconds = 30.0;  // wall clock per attempt
constexpr double kBackoffJitter = 0.5;  // backoff scaled by [1-j, 1+j)
constexpr u64 kBackoffSeed = 0x5eedULL;  // deterministic jitter stream

std::string canonical_or_self(const std::string& path) {
  std::error_code ec;
  fs::path p = fs::weakly_canonical(path, ec);
  return ec ? path : p.string();
}

// ----- per-root registry -----------------------------------------------------
//
// The publish path and retention GC reach the uploader by checkpoint root
// (they only know the root, not who owns the Uploader). Lock order is
// registry mutex -> uploader mutex, everywhere: the registry lock is held
// across enqueue/protects so an Uploader can never be destroyed between
// lookup and call.

std::mutex g_registry_mu;
std::map<std::string, Uploader*>& registry() {
  static auto* m = new std::map<std::string, Uploader*>();
  return *m;
}

}  // namespace

// ----- Uploader --------------------------------------------------------------

Uploader::Uploader(UploaderOptions opts) : opts_(std::move(opts)) {
  GEOFM_CHECK(opts_.enabled(), "Uploader requires a destination");
  GEOFM_CHECK(!opts_.source.empty(), "Uploader requires a source root");
  GEOFM_CHECK(opts_.max_retries >= 1, "Uploader needs at least one attempt");
  {
    std::lock_guard<std::mutex> lk(g_registry_mu);
    auto [it, inserted] =
        registry().emplace(canonical_or_self(opts_.source), this);
    GEOFM_CHECK(inserted, "an Uploader is already registered for " +
                              opts_.source);
  }
  worker_ = std::thread([this] { run(); });
}

Uploader::~Uploader() {
  {
    std::lock_guard<std::mutex> lk(g_registry_mu);
    registry().erase(canonical_or_self(opts_.source));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Uploader::enqueue(i64 step) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return;
    if (step == current_ || step == newest_uploaded_) return;
    if (std::find(queue_.begin(), queue_.end(), step) != queue_.end()) {
      return;
    }
    queue_.push_back(step);
  }
  cv_.notify_all();
}

void Uploader::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return queue_.empty() && current_ == -1; });
}

bool Uploader::protects(i64 step) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (step == current_ || step == newest_uploaded_) return true;
  return std::find(queue_.begin(), queue_.end(), step) != queue_.end();
}

i64 Uploader::newest_uploaded_step() const {
  std::lock_guard<std::mutex> lk(mu_);
  return newest_uploaded_;
}

UploaderStats Uploader::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  UploaderStats out = stats_;
  out.newest_uploaded_step = newest_uploaded_;
  return out;
}

void Uploader::check_deadline(double started, i64 step) const {
  if (monotonic_seconds() - started > kAttemptTimeoutSeconds) {
    throw Error("upload attempt for step " + std::to_string(step) +
                " timed out after " +
                std::to_string(kAttemptTimeoutSeconds) + "s");
  }
}

void Uploader::throttle(double started, i64 bytes) {
  if (opts_.max_bytes_per_second <= 0 || bytes <= 0) return;
  // Pace the whole attempt: cumulative bytes may not outrun the cap.
  const double earliest =
      started + static_cast<double>(bytes) / opts_.max_bytes_per_second;
  const double wait = earliest - monotonic_seconds();
  if (wait <= 0) return;
  static auto& throttled_m =
      obs::MetricsRegistry::instance().counter("upload.throttled_seconds");
  const double t0 = monotonic_seconds();
  {
    // Interruptible by shutdown so the destructor is never held behind a
    // bandwidth-cap sleep.
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::duration<double>(wait),
                 [&] { return stop_; });
    stats_.throttled_seconds += monotonic_seconds() - t0;
  }
  throttled_m.add(monotonic_seconds() - t0);
}

void Uploader::copy_file(const std::string& from, const std::string& to,
                         bool allow_torn) {
  if (auto injector = io_fault_injector()) {
    const auto fault =
        injector->before_io(comm::IoPath::kUpload, opts_.owner_rank);
    if (fault.fail || fault.unreadable) throw Error(fault.reason);
    if (fault.torn) {
      // Land a truncated copy before failing — the realistic shape of an
      // interrupted transfer. Verification must catch it.
      if (allow_torn) {
        std::ifstream in(from, std::ios::binary | std::ios::ate);
        GEOFM_CHECK(in.good(), "cannot open " + from);
        const std::streamsize half = in.tellg() / 2;
        std::vector<char> bytes(static_cast<std::size_t>(half));
        in.seekg(0);
        in.read(bytes.data(), half);
        std::ofstream out(to, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), half);
      }
      throw Error(fault.reason);
    }
  }
  std::error_code ec;
  fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  if (ec) {
    throw Error("cannot copy " + from + " to " + to + ": " + ec.message());
  }
}

void Uploader::upload_once(i64 step) {
  const double started = monotonic_seconds();
  const fs::path src = fs::path(opts_.source) / format::step_dir_name(step);
  const format::Manifest manifest = format::read_manifest(src.string());

  const fs::path dst_tmp =
      fs::path(opts_.destination) /
      ("." + format::step_dir_name(step) + ".tmp");
  const fs::path dst_final =
      fs::path(opts_.destination) / format::step_dir_name(step);
  std::error_code ec;
  fs::remove_all(dst_tmp, ec);
  fs::create_directories(dst_tmp, ec);
  if (ec) {
    throw Error("cannot create " + dst_tmp.string() + ": " + ec.message());
  }

  i64 bytes = 0;
  for (const std::string& shard : manifest.shards) {
    check_deadline(started, step);
    const fs::path from = src / shard;
    copy_file(from.string(), (dst_tmp / shard).string(),
              /*allow_torn=*/true);
    std::error_code sz_ec;
    bytes += static_cast<i64>(fs::file_size(from, sz_ec));
    throttle(started, bytes);
  }
  // The manifest lands last, mirroring the primary write protocol: a temp
  // dir without one is visibly incomplete.
  check_deadline(started, step);
  copy_file((src / "manifest.txt").string(),
            (dst_tmp / "manifest.txt").string(), /*allow_torn=*/false);

  {  // verify every arrived record before the copy is trusted
    obs::TraceScope verify_span("upload.verify", "upload", "step", step);
    const format::Manifest arrived = format::read_manifest(dst_tmp.string());
    GEOFM_CHECK(arrived.step == step && arrived.shards == manifest.shards,
                "uploaded manifest does not match the source for step " +
                    std::to_string(step));
    for (const std::string& shard : arrived.shards) {
      check_deadline(started, step);
      const std::string path = (dst_tmp / shard).string();
      const format::ShardHeader header = format::read_shard_header(path);
      for (const format::ShardIndexEntry& entry : header.records) {
        format::read_shard_record(path, entry);  // throws on bad checksum
      }
    }
  }

  fs::remove_all(dst_final, ec);
  fs::rename(dst_tmp, dst_final, ec);
  if (ec) {
    throw Error("cannot publish upload " + dst_final.string() + ": " +
                ec.message());
  }
  std::ofstream latest(fs::path(opts_.destination) / "LATEST",
                       std::ios::trunc);
  latest << format::step_dir_name(step) << "\n";

  auto& reg = obs::MetricsRegistry::instance();
  static auto& up_bytes = reg.counter("upload.bytes");
  static auto& up_seconds = reg.histogram("upload.seconds");
  up_bytes.add(static_cast<double>(bytes));
  up_seconds.observe(monotonic_seconds() - started);
}

void Uploader::run() {
  set_thread_rank(opts_.owner_rank);
  obs::set_thread_label("ckpt.uploader");
  auto& reg = obs::MetricsRegistry::instance();
  static auto& attempts_m = reg.counter("upload.attempts");
  static auto& retries_m = reg.counter("upload.retries");
  static auto& failures_m = reg.counter("upload.failures");
  static auto& gave_up_m = reg.counter("upload.gave_up");
  static auto& uploaded_m = reg.counter("upload.checkpoints");

  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return !queue_.empty() || stop_; });
    if (stop_) return;
    current_ = queue_.front();
    queue_.pop_front();
    const i64 step = current_;

    bool done = false;
    for (int attempt = 0; attempt < opts_.max_retries && !done; ++attempt) {
      if (attempt > 0) {
        // Exponential backoff with deterministic jitter (util/backoff,
        // shared with the serving tier's reload circuit breaker): the
        // schedule is a pure function of (seed, step, attempt), so
        // fault-injected runs replay bitwise. The wait is interruptible
        // by stop_ so the destructor is never held behind a backoff
        // sleep.
        const double backoff = backoff_seconds(
            {opts_.initial_backoff_seconds, opts_.max_backoff_seconds,
             kBackoffJitter, kBackoffSeed},
            static_cast<u64>(step), attempt);
        stats_.retries += 1;
        retries_m.add(1);
        // Timeline marker (run-health report): mirroring is struggling.
        obs::trace_instant("upload.retry", "upload");
        if (cv_.wait_for(lk, std::chrono::duration<double>(backoff),
                         [&] { return stop_; })) {
          break;
        }
      }
      stats_.attempts += 1;
      attempts_m.add(1);
      lk.unlock();
      std::string failure;
      {
        obs::TraceScope span("upload.checkpoint", "upload", "step", step,
                             "attempt", attempt);
        try {
          upload_once(step);
          done = true;
        } catch (const std::exception& e) {
          failure = e.what();
        }
      }
      lk.lock();
      if (!done) {
        stats_.failures += 1;
        failures_m.add(1);
        GEOFM_WARN("upload of step " << step << " attempt " << attempt + 1
                                     << "/" << opts_.max_retries
                                     << " failed: " << failure);
      }
    }

    if (done) {
      stats_.uploaded += 1;
      uploaded_m.add(1);
      newest_uploaded_ = std::max(newest_uploaded_, step);
    } else if (!stop_) {
      // Graceful degradation: training is never held hostage by the
      // secondary location. The gap is loud (metric + warning) and the
      // next published checkpoint gets a fresh set of attempts.
      stats_.gave_up += 1;
      gave_up_m.add(1);
      obs::trace_instant("upload.gave_up", "upload");
      GEOFM_WARN("giving up on uploading step "
                 << step << " after " << opts_.max_retries << " attempts");
    }
    current_ = -1;
    cv_.notify_all();
    if (stop_) return;
  }
}

// ----- publication hook + GC protection --------------------------------------

void notify_checkpoint_published(const std::string& root, i64 step) {
  obs::TraceScope span("upload.exposed", "upload", "step", step);
  std::lock_guard<std::mutex> lk(g_registry_mu);
  auto it = registry().find(canonical_or_self(root));
  if (it == registry().end()) return;
  it->second->enqueue(step);
}

bool uploader_protects(const std::string& root, i64 step) {
  std::lock_guard<std::mutex> lk(g_registry_mu);
  auto it = registry().find(canonical_or_self(root));
  if (it == registry().end()) return false;
  return it->second->protects(step);
}

}  // namespace geofm::ckpt
