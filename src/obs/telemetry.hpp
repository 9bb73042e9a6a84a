// Background telemetry sampler: per-rank time-series JSONL.
//
// A single process-wide sampler thread wakes at a configurable interval
// and appends one JSON line to `<dir>/telemetry.jsonl` with:
//   * metric deltas since the previous tick (counters / histogram
//     sum+count via `MetricsRegistry::delta`; gauges as-is) — comm waits,
//     loader stalls, uploader retries, checkpoint activity, ...;
//   * a per-rank step-time breakdown derived from the trace spans the
//     ranks already emit (step / step.fetch / step.forward / ... plus
//     exposed comm wait), consumed incrementally via
//     `TraceRecorder::drain_new_events` so each tick costs O(new events);
//   * process RSS (/proc/self), every tick.
//
// Hot-path cost is ~zero by construction: ranks pay nothing beyond the
// tracing they already do — the sampler is a pure consumer on its own
// thread. Each tick runs inside a `telemetry.sample` span, so the span
// budget gate bounds the sampler's own cost as a fraction of step time.
//
// Activation: `telemetry::start({dir})` programmatically, or set
// `GEOFM_TELEMETRY=dir` (+ optional `GEOFM_TELEMETRY_INTERVAL` seconds,
// default 0.1 = 10 Hz) and call `telemetry::init_from_env()` — the
// distributed driver does this on entry, so env-only users get a
// time-series with no code changes.
#pragma once

#include <string>

namespace geofm::obs::telemetry {

struct TelemetryOptions {
  std::string dir;                 // output directory (created if missing)
  double interval_seconds = 0.1;   // 10 Hz default
};

/// Starts the sampler thread. Returns false (and does nothing) if one is
/// already running. The output file is `<dir>/telemetry.jsonl`, truncated
/// at start.
bool start(const TelemetryOptions& opts);

/// Takes a final sample, stops the thread, and closes the file. No-op if
/// not running.
void stop();

bool running();

/// Starts the sampler from GEOFM_TELEMETRY / GEOFM_TELEMETRY_INTERVAL if
/// set (first call wins; later calls are no-ops). Enables tracing if it
/// was off — the per-rank breakdown needs the spans.
void init_from_env();

}  // namespace geofm::obs::telemetry
