// Tracing for the per-layer run: spans recorded by the benchmark around its
// own calls into each layer's public functions. Spans stay in per-thread
// buffers in memory and are summarized and written out when the run ends.
//
// A span is either timed (start and end taken around a call) or derived: its
// duration is a counter the program itself reports (ExecStats::prepare_ns,
// LoadStats::parse_ns, ...) and it is placed inside the parent span whose
// call produced the counter, so the parent's self time is what the program
// did not attribute.
//
// Span dump format (spans-<workload>.tsv, version 1), one span per line:
//   rid  id  parent  name  phase  start_ns  end_ns  derived
// rid is the request id shared by every span of one request (0 = set-up
// work outside any request), parent is 0 for a root span, phase is "setup"
// or "timed", derived is 0 or 1. Times are steady-clock nanoseconds.
#ifndef XDB_PERFBENCH_TRACE_H_
#define XDB_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xdb::perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t rid = 0;
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool timed_phase = false;
  bool derived = false;
};

class Tracer;

/// One thread's span buffer; only its owning thread touches it.
class TraceThread {
 public:
  TraceThread(Tracer* tracer, uint64_t index) : tracer_(tracer), index_(index) {}

  /// Spans recorded until EndRequest share one fresh request id.
  void BeginRequest();
  void EndRequest() { rid_ = 0; }
  /// Marks later spans as belonging to the timed phase (vs set-up).
  void set_timed(bool timed) { timed_ = timed; }

  /// Opens a span under the innermost open one; returns its handle.
  size_t Open(const char* name, int64_t start_ns);
  void Close(size_t handle, int64_t end_ns);
  /// Records an already measured span under the innermost open one.
  void Add(const char* name, int64_t start_ns, int64_t end_ns);
  /// Records derived spans laid end to end from `start_ns` inside the
  /// innermost open span, each clamped to end no later than `limit_ns`.
  void AddDerived(const std::vector<std::pair<const char*, int64_t>>& parts,
                  int64_t start_ns, int64_t limit_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t NextId() { return (index_ << 40) | (spans_.size() + 1); }
  uint64_t CurrentParent() const {
    return stack_.empty() ? 0 : spans_[stack_.back()].id;
  }

  Tracer* tracer_;
  uint64_t index_;
  uint64_t rid_ = 0;
  bool timed_ = false;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

/// Times one call when tracing is on; a null thread makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(TraceThread* t, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceThread* t_;
  size_t handle_ = 0;
};

/// Per span name: how many, total duration, and self time (duration minus
/// the part its child spans cover).
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  /// A buffer for the calling thread; owned by the tracer.
  TraceThread* NewThread();
  uint64_t NextRequestId() { return next_rid_.fetch_add(1) + 1; }

  /// Totals per span name over every span, or over timed-phase spans only.
  std::map<std::string, SpanTotals> Summarize(bool timed_only) const;
  /// Writes the span dump; at most `max_spans` lines (the header says how
  /// many were left out). Returns false when the file cannot be written.
  bool WriteSpans(const std::string& path, size_t max_spans) const;
  size_t span_count() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceThread>> threads_;
  std::atomic<uint64_t> next_rid_{0};
};

}  // namespace xdb::perfbench

#endif  // XDB_PERFBENCH_TRACE_H_
