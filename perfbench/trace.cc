#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace xdb::perfbench {

void TraceThread::BeginRequest() { rid_ = tracer_->NextRequestId(); }

size_t TraceThread::Open(const char* name, int64_t start_ns) {
  Span s;
  s.id = NextId();
  s.parent = CurrentParent();
  s.rid = rid_;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = start_ns;
  s.timed_phase = timed_;
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void TraceThread::Close(size_t handle, int64_t end_ns) {
  spans_[handle].end_ns = end_ns;
  if (!stack_.empty() && stack_.back() == handle) stack_.pop_back();
}

void TraceThread::Add(const char* name, int64_t start_ns, int64_t end_ns) {
  Span s;
  s.id = NextId();
  s.parent = CurrentParent();
  s.rid = rid_;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.timed_phase = timed_;
  spans_.push_back(s);
}

void TraceThread::AddDerived(
    const std::vector<std::pair<const char*, int64_t>>& parts, int64_t start_ns,
    int64_t limit_ns) {
  int64_t at = start_ns;
  for (const auto& [name, dur] : parts) {
    int64_t end = std::min(limit_ns, at + std::max<int64_t>(dur, 0));
    Add(name, at, end);
    spans_.back().derived = true;
    at = end;
  }
}

ScopedSpan::ScopedSpan(TraceThread* t, const char* name) : t_(t) {
  if (t_ != nullptr) handle_ = t_->Open(name, NowNs());
}

ScopedSpan::~ScopedSpan() {
  if (t_ != nullptr) t_->Close(handle_, NowNs());
}

TraceThread* Tracer::NewThread() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<TraceThread>(this, threads_.size() + 1));
  return threads_.back().get();
}

std::map<std::string, SpanTotals> Tracer::Summarize(bool timed_only) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanTotals> out;
  for (const auto& t : threads_) {
    const std::vector<Span>& spans = t->spans();
    // Span ids are (thread index << 40) | (position + 1), and a parent is
    // always in the same buffer, so child time is summed by position.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent == 0) continue;
      size_t pos = static_cast<size_t>(s.parent & ((uint64_t{1} << 40) - 1)) - 1;
      child_ns[pos] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (timed_only && !s.timed_phase) continue;
      SpanTotals& tot = out[s.name];
      int64_t dur = s.end_ns - s.start_ns;
      tot.count += 1;
      tot.total_ns += dur;
      tot.self_ns += std::max<int64_t>(0, dur - child_ns[i]);
    }
  }
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& t : threads_) n += t->spans().size();
  return n;
}

bool Tracer::WriteSpans(const std::string& path, size_t max_spans) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t total = 0;
  for (const auto& t : threads_) total += t->spans().size();
  size_t written = std::min(total, max_spans);
  std::fprintf(f,
               "# perfbench spans v1: rid id parent name phase start_ns end_ns "
               "derived (%zu of %zu spans)\n",
               written, total);
  size_t n = 0;
  for (const auto& t : threads_) {
    for (const Span& s : t->spans()) {
      if (n++ >= written) break;
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%s\t%lld\t%lld\t%d\n",
                   static_cast<unsigned long long>(s.rid),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   s.timed_phase ? "timed" : "setup",
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.derived ? 1 : 0);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace xdb::perfbench
