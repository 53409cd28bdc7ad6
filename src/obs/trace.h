#ifndef REACH_OBS_TRACE_H_
#define REACH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_probe.h"  // for REACH_METRICS / kMetricsCompiled
#include "obs/thread_cells.h"

namespace reach {

/// What a `TraceEvent` describes.
enum class TraceEventKind : uint8_t {
  kSpan,     // a [start, end) interval on one thread
  kInstant,  // a point-in-time marker (e.g. a snapshot swap)
};

/// One completed event in a thread's trace ring. Times are nanoseconds
/// since the owning recorder's epoch (its construction). `depth` is the
/// span-nesting depth at begin time, so consumers can rebuild the span
/// tree of one thread without re-deriving containment from timestamps.
struct TraceEvent {
  uint32_t name_id = 0;
  uint32_t depth = 0;
  TraceEventKind kind = TraceEventKind::kSpan;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Low-overhead span recorder: every thread that records owns a
/// fixed-capacity ring buffer of completed events (oldest events are
/// overwritten once the ring wraps; the overwrite count is reported at
/// scrape time), and span names are interned once into small integer ids
/// so the hot path never hashes or copies strings. Recording is gated on
/// a runtime flag — disabled (the default), a span costs one relaxed
/// atomic load and no clock reads. Compiled with REACH_METRICS=0, the
/// `REACH_TRACE_*` macros expand to nothing and `TraceSpan` is an empty
/// shell, so the serve/build hot paths carry zero tracing overhead.
///
/// `TraceRecorder::Global()` is the process-wide instance every library
/// span records into; tests may create private recorders and call
/// `Record` directly. See docs/TRACING.md.
///
/// Thread-safety: `Intern`, `Record*`, `Snapshot`, and the flag accessors
/// may race freely. Each ring is written only under its own mutex, taken
/// uncontended on the hot path (one writer — the owning thread — plus the
/// occasional scrape).
class TraceRecorder {
 public:
  /// Events retained per thread before the ring wraps.
  static constexpr size_t kDefaultThreadCapacity = 1 << 15;

  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder used by library instrumentation. Never
  /// destroyed (interned ids are cached in function-local statics).
  static TraceRecorder& Global();

  /// Returns the stable id for `name`, interning it on first use. Cheap
  /// enough for cold paths; hot paths cache the id in a static (what the
  /// `REACH_TRACE_SPAN` macro does).
  uint32_t Intern(const std::string& name);

  /// Runtime switch; disabled recorders drop every Record* call before
  /// touching the clock or the ring. Disabled by default.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Ring capacity (in events) for threads that have not recorded into
  /// this recorder yet; existing rings keep their size. Clamped to >= 8.
  void set_thread_capacity(size_t events);
  size_t thread_capacity() const;

  /// Names the calling thread in this recorder's output ("pool-worker-3");
  /// threads without a name export as "thread-<tid>".
  void SetCurrentThreadName(const std::string& name);

  /// Appends a completed event to the calling thread's ring (creating the
  /// ring on first use). No-op while disabled.
  void Record(uint32_t name_id, uint64_t start_ns, uint64_t end_ns,
              uint32_t depth = 0,
              TraceEventKind kind = TraceEventKind::kSpan);

  /// `Record` for callers holding steady_clock time points (e.g.
  /// `BuildPhaseTimer`), with per-call interning — cold paths only.
  void RecordTimed(const std::string& name,
                   std::chrono::steady_clock::time_point begin,
                   std::chrono::steady_clock::time_point end);

  /// Records an instant marker at the current time. No-op while disabled.
  void RecordInstant(uint32_t name_id);

  /// Nanoseconds since this recorder's epoch.
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// One thread's portion of a trace snapshot, events in chronological
  /// order. `dropped` counts events overwritten by ring wraparound.
  struct ThreadTrace {
    uint64_t tid = 0;
    std::string name;
    uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };

  /// Merged point-in-time view of every thread's ring (threads in
  /// registration order). Safe to call while writers record.
  std::vector<ThreadTrace> Snapshot() const;

  /// The interned-name table; `TraceEvent::name_id` indexes it.
  std::vector<std::string> Names() const;

  /// Clears every ring and drop count. Interned names survive (their ids
  /// are cached in static storage at call sites).
  void Reset();

 private:
  struct ThreadBuffer;

  ThreadBuffer& LocalBuffer();

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards names_ and thread_capacity_
  std::vector<std::string> names_;
  ThreadCells<ThreadBuffer> buffers_;
  size_t thread_capacity_ = kDefaultThreadCapacity;
};

#if REACH_METRICS

/// RAII scope recording one span into a recorder (the global one by
/// default): start time at construction, one ring append at destruction
/// (or an early `End()`). Nesting depth is tracked per thread. When the
/// recorder is disabled at construction time the span is inert.
class TraceSpan {
 public:
  explicit TraceSpan(uint32_t name_id,
                     TraceRecorder& recorder = TraceRecorder::Global());
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span now; the destructor then records nothing.
  void End();

 private:
  TraceRecorder* recorder_;  // null once ended or when inert
  uint32_t name_id_ = 0;
  uint32_t depth_ = 0;
  uint64_t start_ns_ = 0;
};

#else  // !REACH_METRICS

/// REACH_METRICS=0 shell: constructible from the same arguments, does
/// nothing, occupies nothing the optimizer keeps.
class TraceSpan {
 public:
  explicit TraceSpan(uint32_t, TraceRecorder& = TraceRecorder::Global()) {}
  void End() {}
};

#endif  // REACH_METRICS

/// Renders a recorder snapshot as Chrome trace-event JSON (the format
/// chrome://tracing and https://ui.perfetto.dev load directly): one
/// complete ("ph":"X") event per span, instant ("ph":"i") events for
/// markers, plus process/thread-name metadata. Timestamps are
/// microseconds since the recorder epoch. See docs/TRACING.md.
class TraceExporter {
 public:
  explicit TraceExporter(const TraceRecorder& recorder = TraceRecorder::Global())
      : recorder_(recorder) {}

  std::string ToChromeJson() const;

  /// Writes `ToChromeJson()` to `path`; returns false on I/O failure.
  bool WriteChromeJsonFile(const std::string& path) const;

 private:
  const TraceRecorder& recorder_;
};

}  // namespace reach

// Span macros: `REACH_TRACE_SPAN("serve.query");` opens a span covering
// the rest of the enclosing scope, interning the name once per call site.
// With REACH_METRICS=0 both macros expand to a no-op statement.
#if REACH_METRICS
#define REACH_TRACE_CONCAT2_(a, b) a##b
#define REACH_TRACE_CONCAT_(a, b) REACH_TRACE_CONCAT2_(a, b)
#define REACH_TRACE_SPAN(name_literal)                                    \
  static const uint32_t REACH_TRACE_CONCAT_(reach_trace_name_,            \
                                            __LINE__) =                   \
      ::reach::TraceRecorder::Global().Intern(name_literal);              \
  ::reach::TraceSpan REACH_TRACE_CONCAT_(reach_trace_span_, __LINE__)(    \
      REACH_TRACE_CONCAT_(reach_trace_name_, __LINE__))
#define REACH_TRACE_INSTANT(name_literal)                                 \
  do {                                                                    \
    static const uint32_t reach_trace_instant_name_ =                     \
        ::reach::TraceRecorder::Global().Intern(name_literal);            \
    ::reach::TraceRecorder::Global().RecordInstant(                       \
        reach_trace_instant_name_);                                       \
  } while (0)
#else
#define REACH_TRACE_SPAN(name_literal) \
  do {                                 \
  } while (0)
#define REACH_TRACE_INSTANT(name_literal) \
  do {                                    \
  } while (0)
#endif

#endif  // REACH_OBS_TRACE_H_
