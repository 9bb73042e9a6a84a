// Per-rank tracing with Chrome-trace export.
//
// `TraceRecorder` collects timestamped events into per-thread ring buffers
// and exports them as Chrome trace-event JSON (loadable in chrome://tracing
// or https://ui.perfetto.dev), one process track per rank and one thread
// track per OS thread. `TraceScope` is the RAII emitter instrumented code
// uses; `trace_instant` / `trace_counter` cover point events and time
// series.
//
// Design constraints (see DESIGN.md §4c):
//   * ~zero cost when disabled: a scope costs one relaxed atomic load and
//     a branch — no clock read, no allocation, no synchronization.
//   * lock-free when enabled: each thread appends to its own fixed-size
//     buffer; the only synchronization is a release store of the event
//     count, matched by an acquire load at export time (single-producer /
//     single-consumer). When a buffer fills, new events are *dropped* and
//     counted (never overwritten), so export never races a writer.
//   * event names/categories must be string literals (or otherwise outlive
//     the recorder) — nothing is copied on the hot path.
//
// Activation: set `GEOFM_TRACE=out.json` in the environment and the
// recorder enables itself at first use and writes `out.json` at process
// exit. `GEOFM_TRACE_BUFFER` overrides the per-thread event capacity
// (default 65536). Tests and tools can instead call enable()/write_json()
// programmatically.
#pragma once

#include <atomic>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/thread_context.hpp"

namespace geofm::obs {

struct TraceEvent {
  enum class Phase : unsigned char { kComplete, kInstant, kCounter };

  const char* name = nullptr;
  const char* cat = nullptr;
  u64 ts_ns = 0;   // monotonic_ns() at event start
  u64 dur_ns = 0;  // kComplete only
  Phase phase = Phase::kComplete;
  int rank = -1;  // this_thread_rank() at emit time
  // Up to two integer args (bytes, unit index, ...); name == nullptr = unused.
  const char* arg_name = nullptr;
  i64 arg = 0;
  const char* arg2_name = nullptr;
  i64 arg2 = 0;
};

namespace detail {

/// One thread's event buffer. Written only by the owning thread; readers
/// synchronize through the `count` release/acquire pair and only ever read
/// slots below the published count, which are immutable (the buffer drops
/// instead of wrapping).
struct ThreadTrack {
  explicit ThreadTrack(int tid_, u64 capacity);

  const int tid;
  std::vector<TraceEvent> buf;
  std::atomic<u64> count{0};
  std::atomic<u64> dropped{0};
  std::atomic<const char*> label{nullptr};

  void push(const TraceEvent& e) {
    const u64 n = count.load(std::memory_order_relaxed);
    if (n >= buf.size()) {
      note_dropped(*this);
      return;
    }
    buf[static_cast<size_t>(n)] = e;
    count.store(n + 1, std::memory_order_release);
  }

 private:
  // Out of line: bumps this track's drop counter and the process-wide
  // `trace.dropped` metric, and warns once per process on the first drop.
  static void note_dropped(ThreadTrack& t);
};

// 0 = uninitialized (consult GEOFM_TRACE), 1 = disabled, 2 = enabled.
extern std::atomic<int> g_trace_state;
bool trace_init_slow();

}  // namespace detail

/// Fast global enabled check (the disabled-mode hot path).
inline bool trace_enabled() {
  const int s = detail::g_trace_state.load(std::memory_order_relaxed);
  if (s == 0) return detail::trace_init_slow();
  return s == 2;
}

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Programmatic enable (in-memory; nothing is auto-written at exit
  /// unless GEOFM_TRACE also named a file).
  void enable();
  void disable();
  /// Drops every recorded event and drop-counter. Caller must ensure no
  /// thread is concurrently emitting (test/tool support).
  void clear();

  /// Per-thread event capacity for tracks registered *after* this call.
  void set_buffer_capacity(u64 events);
  u64 buffer_capacity() const;

  /// Copies out every published event (stable under concurrent emission;
  /// late events may be missed, torn events never appear).
  std::vector<TraceEvent> snapshot() const;
  /// Events dropped to full buffers, summed over all tracks.
  u64 dropped_events() const;

  /// Incremental consumption (the telemetry sampler's API): visits every
  /// event published since `cursor` last saw each per-thread track —
  /// oldest first within a track — and advances the cursor, so repeated
  /// calls cost O(new events), not O(all events). `cursor` starts empty
  /// and grows as tracks register; one cursor must not be shared between
  /// concurrent callers. Safe against concurrent emitters (acquire on the
  /// published counts); a clear() between calls rewinds the cursor.
  template <typename Fn>
  void drain_new_events(std::vector<u64>& cursor, Fn&& fn) const {
    visit_new_events(cursor, [](void* ctx, const TraceEvent& e) {
      (*static_cast<Fn*>(ctx))(e);
    }, &fn);
  }

  /// Chrome trace-event JSON of everything recorded so far.
  void write_json(std::ostream& os) const;
  void write_json(const std::string& path) const;

  // ----- emitter internals ------------------------------------------------
  /// The calling thread's track, registering it on first use.
  detail::ThreadTrack& track();

 private:
  TraceRecorder() = default;
  void visit_new_events(std::vector<u64>& cursor,
                        void (*fn)(void*, const TraceEvent&),
                        void* ctx) const;
};

/// Labels the calling thread's trace track (e.g. "rank", "loader.worker").
/// Must be a string literal.
void set_thread_label(const char* label);

/// RAII span: records [construction, destruction) as one complete event on
/// the calling thread's track. All name/category/arg-name strings must be
/// literals.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* cat = "app") {
    if (trace_enabled()) begin(name, cat);
  }
  TraceScope(const char* name, const char* cat, const char* arg_name,
             i64 arg) {
    if (trace_enabled()) {
      begin(name, cat);
      arg_name_ = arg_name;
      arg_ = arg;
    }
  }
  TraceScope(const char* name, const char* cat, const char* arg_name, i64 arg,
             const char* arg2_name, i64 arg2) {
    if (trace_enabled()) {
      begin(name, cat);
      arg_name_ = arg_name;
      arg_ = arg;
      arg2_name_ = arg2_name;
      arg2_ = arg2;
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (name_ != nullptr) end();
  }

  /// Replaces the second argument's value, for a value known only when
  /// the span closes.
  void set_arg2(i64 arg2) { arg2_ = arg2; }

 private:
  void begin(const char* name, const char* cat) {
    name_ = name;
    cat_ = cat;
    start_ns_ = monotonic_ns();
  }
  void end();  // out of line: appends the complete event

  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  u64 start_ns_ = 0;
  const char* arg_name_ = nullptr;
  i64 arg_ = 0;
  const char* arg2_name_ = nullptr;
  i64 arg2_ = 0;
};

/// Point event on the calling thread's track.
void trace_instant(const char* name, const char* cat = "app");
/// Time-series sample (rendered as a counter track per rank).
void trace_counter(const char* name, i64 value);

}  // namespace geofm::obs
