#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/metrics_exporter.h"  // JsonEscape

namespace reach {

namespace {

// Span-nesting depth of the current thread (shared across recorders; in
// practice exactly one recorder — the global — is live on hot paths).
thread_local uint32_t tls_span_depth = 0;

}  // namespace

/// One thread's ring. Written only by the owning thread; the mutex makes
/// concurrent scrapes race-free and is uncontended on the record path.
struct TraceRecorder::ThreadBuffer {
  mutable std::mutex mu;
  uint64_t tid = 0;
  std::string name;
  size_t capacity = 0;           // fixed at registration
  std::vector<TraceEvent> ring;  // sized lazily on first record
  size_t head = 0;               // next write position
  uint64_t recorded = 0;         // events ever recorded
};

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}
TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

TraceRecorder::ThreadBuffer& TraceRecorder::LocalBuffer() {
  // The maker runs under the cells' lock and takes mu_ inside it; no
  // path takes the two in the other order.
  return buffers_.Local([this](size_t tid) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = tid;
    buffer->capacity = thread_capacity();
    return buffer;
  });
}

uint32_t TraceRecorder::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

void TraceRecorder::set_thread_capacity(size_t events) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_capacity_ = events < 8 ? 8 : events;
}

size_t TraceRecorder::thread_capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return thread_capacity_;
}

void TraceRecorder::SetCurrentThreadName(const std::string& name) {
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.name = name;
}

void TraceRecorder::Record(uint32_t name_id, uint64_t start_ns,
                           uint64_t end_ns, uint32_t depth,
                           TraceEventKind kind) {
  if (!enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  // Threads register cheaply (pool workers name themselves up front);
  // the ring's memory is only committed once the thread records.
  if (buffer.ring.empty()) buffer.ring.resize(buffer.capacity);
  buffer.ring[buffer.head] = TraceEvent{name_id, depth, kind, start_ns,
                                        end_ns};
  buffer.head = (buffer.head + 1) % buffer.ring.size();
  ++buffer.recorded;
}

void TraceRecorder::RecordTimed(const std::string& name,
                                std::chrono::steady_clock::time_point begin,
                                std::chrono::steady_clock::time_point end) {
  if (!enabled()) return;
  const auto to_ns = [this](std::chrono::steady_clock::time_point t) {
    const auto since = t - epoch_;
    return since.count() < 0
               ? uint64_t{0}
               : static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         since)
                         .count());
  };
  Record(Intern(name), to_ns(begin), to_ns(end), tls_span_depth);
}

void TraceRecorder::RecordInstant(uint32_t name_id) {
  if (!enabled()) return;
  const uint64_t now = NowNs();
  Record(name_id, now, now, tls_span_depth, TraceEventKind::kInstant);
}

std::vector<TraceRecorder::ThreadTrace> TraceRecorder::Snapshot() const {
  std::vector<ThreadTrace> out;
  buffers_.ForEach([&](const ThreadBuffer& buffer) {
    ThreadTrace& trace = out.emplace_back();
    std::lock_guard<std::mutex> lock(buffer.mu);
    trace.tid = buffer.tid;
    trace.name = buffer.name;
    const size_t capacity = buffer.ring.size();
    if (capacity == 0) return;
    const size_t count =
        buffer.recorded < capacity ? static_cast<size_t>(buffer.recorded)
                                   : capacity;
    trace.dropped = buffer.recorded - count;
    trace.events.reserve(count);
    // Chronological: the ring's oldest surviving event sits at `head`
    // once wrapped, at 0 before that.
    const size_t first =
        buffer.recorded < capacity ? 0 : buffer.head % capacity;
    for (size_t i = 0; i < count; ++i) {
      trace.events.push_back(buffer.ring[(first + i) % capacity]);
    }
  });
  return out;
}

std::vector<std::string> TraceRecorder::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

void TraceRecorder::Reset() {
  buffers_.ForEach([](ThreadBuffer& buffer) {
    std::lock_guard<std::mutex> lock(buffer.mu);
    buffer.head = 0;
    buffer.recorded = 0;
  });
}

#if REACH_METRICS

TraceSpan::TraceSpan(uint32_t name_id, TraceRecorder& recorder)
    : recorder_(recorder.enabled() ? &recorder : nullptr),
      name_id_(name_id) {
  if (recorder_ == nullptr) return;
  depth_ = tls_span_depth++;
  start_ns_ = recorder_->NowNs();
}

void TraceSpan::End() {
  if (recorder_ == nullptr) return;
  TraceRecorder* recorder = recorder_;
  recorder_ = nullptr;
  --tls_span_depth;
  recorder->Record(name_id_, start_ns_, recorder->NowNs(), depth_);
}

#endif  // REACH_METRICS

std::string TraceExporter::ToChromeJson() const {
  const std::vector<std::string> names = recorder_.Names();
  const std::vector<TraceRecorder::ThreadTrace> threads =
      recorder_.Snapshot();

  const auto name_of = [&names](uint32_t id) -> std::string {
    return id < names.size() ? names[id] : "name#" + std::to_string(id);
  };
  const auto us = [](uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return std::string(buf);
  };

  std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"traceEvents\": [\n";
  out +=
      "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"reach\"}}";
  for (const TraceRecorder::ThreadTrace& thread : threads) {
    const std::string tname =
        thread.name.empty() ? "thread-" + std::to_string(thread.tid)
                            : thread.name;
    out += ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(thread.tid) + ", \"args\": {\"name\": \"" +
           JsonEscape(tname) + "\"}}";
  }
  for (const TraceRecorder::ThreadTrace& thread : threads) {
    const std::string tid = std::to_string(thread.tid);
    for (const TraceEvent& event : thread.events) {
      out += ",\n    {\"name\": \"" + JsonEscape(name_of(event.name_id)) +
             "\", \"cat\": \"reach\", ";
      if (event.kind == TraceEventKind::kInstant) {
        out += "\"ph\": \"i\", \"s\": \"t\", ";
      } else {
        const uint64_t dur = event.end_ns - event.start_ns;
        out += "\"ph\": \"X\", \"dur\": " + us(dur) + ", ";
      }
      out += "\"pid\": 1, \"tid\": " + tid + ", \"ts\": " +
             us(event.start_ns) + ", \"args\": {\"depth\": " +
             std::to_string(event.depth) + "}}";
    }
  }
  out += "\n  ],\n";
  uint64_t dropped = 0;
  for (const TraceRecorder::ThreadTrace& thread : threads) {
    dropped += thread.dropped;
  }
  out += "  \"otherData\": {\"schema\": \"reach.trace.v1\", ";
  out += "\"metrics_compiled\": ";
  out += kMetricsCompiled ? "true" : "false";
  out += ", \"dropped_events\": " + std::to_string(dropped) + "}\n}\n";
  return out;
}

bool TraceExporter::WriteChromeJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToChromeJson();
  return static_cast<bool>(out);
}

}  // namespace reach
