#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "alloc.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

constexpr const char* kNames[kSpanKinds] = {
    "workload.spec",  "workload.install", "workload.panel", "workload.warm",
    "testbed.build",  "scanner.run",      "resolver.handle", "server.handle",
    "net.start",      "net.loop",         "net.dispatch",
};

/// Spans kept for the Chrome trace, per thread and in all; the totals
/// cover every span.
constexpr std::size_t kThreadRecordCap = 50'000;
constexpr std::uint64_t kRecordCap = 200'000;

struct Record {
  SpanKind kind;
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Open {
  SpanKind kind;
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t start_ns;
  std::int64_t child_ns = 0;
  std::uint64_t allocs_start = 0;
};

std::atomic<std::uint64_t> kept_records{0};

struct ThreadSpans {
  std::uint32_t tid = 0;
  std::uint64_t next_local = 1;
  std::vector<Open> stack;
  std::vector<Record> records;
  AllSpanTotals totals{};

  std::uint64_t new_id() { return (std::uint64_t{tid} << 40) | next_local++; }

  void push(SpanKind kind, std::uint64_t allocs_start) {
    const std::uint64_t parent = stack.empty() ? 0 : stack.back().id;
    stack.push_back(Open{kind, new_id(), parent, now_ns(), 0, allocs_start});
  }

  void pop(std::int64_t end_ns, std::uint64_t allocs) {
    const Open open = stack.back();
    stack.pop_back();
    const std::int64_t duration = end_ns - open.start_ns;
    SpanTotals& total = totals[static_cast<std::size_t>(open.kind)];
    ++total.count;
    total.self_ns += duration - open.child_ns;
    total.allocs += allocs;
    bool nested_in_same_kind = false;
    for (const Open& outer : stack)
      nested_in_same_kind |= outer.kind == open.kind;
    if (!nested_in_same_kind) total.inclusive_ns += duration;
    if (!stack.empty()) stack.back().child_ns += duration;
    if (records.size() < kThreadRecordCap &&
        kept_records.load(std::memory_order_relaxed) < kRecordCap) {
      kept_records.fetch_add(1, std::memory_order_relaxed);
      records.push_back(
          Record{open.kind, open.id, open.parent, open.start_ns, end_ns});
    }
  }
};

std::atomic<bool> enabled{false};
std::mutex registry_mutex;
std::vector<std::unique_ptr<ThreadSpans>> registry;  // guarded by the mutex

ThreadSpans& this_thread_spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    auto spans = std::make_unique<ThreadSpans>();
    spans->records.reserve(kThreadRecordCap);
    std::lock_guard<std::mutex> lock(registry_mutex);
    spans->tid = static_cast<std::uint32_t>(registry.size() + 1);
    mine = spans.get();
    registry.push_back(std::move(spans));
  }
  return *mine;
}

}  // namespace

const char* span_name(SpanKind kind) noexcept {
  return kNames[static_cast<std::size_t>(kind)];
}

void set_spans_enabled(bool on) noexcept {
  enabled.store(on, std::memory_order_relaxed);
}

bool spans_enabled() noexcept {
  return enabled.load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(SpanKind kind) noexcept : active_(spans_enabled()) {
  if (active_) this_thread_spans().push(kind, alloc::thread_count());
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  ThreadSpans& spans = this_thread_spans();
  const std::uint64_t allocs =
      alloc::thread_count() - spans.stack.back().allocs_start;
  spans.pop(now_ns(), allocs);
}

WindowSpan WindowSpan::open(SpanKind kind) noexcept {
  WindowSpan window;
  if (!spans_enabled()) return window;
  ThreadSpans& spans = this_thread_spans();
  spans.push(kind, 0);
  window.thread_ = &spans;
  return window;
}

void WindowSpan::close(std::int64_t end_ns) noexcept {
  if (thread_ == nullptr) return;
  // Allocation deltas are per thread and the closer may be another thread:
  // windows report none.
  static_cast<ThreadSpans*>(thread_)->pop(end_ns, 0);
  thread_ = nullptr;
}

AllSpanTotals span_totals() {
  AllSpanTotals merged{};
  std::lock_guard<std::mutex> lock(registry_mutex);
  for (const auto& spans : registry) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      merged[k].count += spans->totals[k].count;
      merged[k].inclusive_ns += spans->totals[k].inclusive_ns;
      merged[k].self_ns += spans->totals[k].self_ns;
      merged[k].allocs += spans->totals[k].allocs;
    }
  }
  return merged;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(registry_mutex);
  std::int64_t epoch = 0;
  bool have_epoch = false;
  for (const auto& spans : registry) {
    for (const Record& record : spans->records) {
      if (!have_epoch || record.start_ns < epoch) epoch = record.start_ns;
      have_epoch = true;
    }
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const auto& spans : registry) {
    std::fprintf(out,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"thread %u\"}}",
                 first ? "" : ",", spans->tid, spans->tid);
    first = false;
    for (const Record& record : spans->records) {
      const char* name = span_name(record.kind);
      const std::string layer(name, std::string(name).find('.'));
      std::fprintf(out,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                   name, layer.c_str(), spans->tid,
                   static_cast<double>(record.start_ns - epoch) / 1e3,
                   static_cast<double>(record.end_ns - record.start_ns) / 1e3,
                   static_cast<unsigned long long>(record.id),
                   static_cast<unsigned long long>(record.parent));
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
