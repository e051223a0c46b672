// Wall-clock spans recorded by the benchmark around its calls into each
// layer's public functions (the traced run only).
//
// A span has a kind (its name and layer), a start, an end and a parent: the
// innermost span open on the same thread (0 for a thread's outermost
// spans). Finished spans are folded into per-kind totals as they
// close: count, inclusive time (spans not nested in a span of the same kind
// on their thread), self time (duration minus the time of the same-thread
// children) and the `operator new` calls made inside them. The first spans
// (50 000 per thread, 200 000 in all) are also kept in memory and written at
// exit as Chrome trace_event JSON, which Perfetto and chrome://tracing open.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kSpec,         // workload: EcosystemSpec construction
  kInstall,      // workload: probe infrastructure + ecosystem declaration
  kPanel,        // workload: instantiate_panel
  kWarm,         // workload: warming the serve resolver in-sim
  kBuild,        // testbed: Internet::build
  kScannerRun,   // scanner: one worker's measured scan or sweep
  kResolver,     // resolver: RecursiveResolver::handle_or_drop
  kServer,       // server: operator AuthoritativeServer::handle
  kNetStart,     // net: Frontend::start (bind)
  kNetLoop,      // net: the EventLoop in a serve repetition's measured phase
  kNetDispatch,  // net: one Frontend dispatch callback
};
inline constexpr std::size_t kSpanKinds = 11;

const char* span_name(SpanKind kind) noexcept;

/// Folded statistics of one span kind over all threads.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t inclusive_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t allocs = 0;  // operator new calls inside (inclusive)
};
using AllSpanTotals = std::array<SpanTotals, kSpanKinds>;

/// Turns span recording on or off (off: every span is one branch).
void set_spans_enabled(bool on) noexcept;
bool spans_enabled() noexcept;

/// Per-kind totals merged over every thread. Call once the threads that
/// recorded spans have been joined.
AllSpanTotals span_totals();

/// Writes every kept span as Chrome trace_event JSON; false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// RAII span on the calling thread; inert while recording is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

/// A span opened on one thread and closed later, possibly from another
/// thread once the opener has been joined: a worker's measured window, whose
/// end is known only after the parallel driver returns.
class WindowSpan {
 public:
  WindowSpan() = default;
  /// Opens the window on the calling thread (inert while recording is off).
  static WindowSpan open(SpanKind kind) noexcept;
  /// Closes it at `end_ns`. The opening thread must have no span opened
  /// after this one still open, and must have finished or be the caller.
  void close(std::int64_t end_ns) noexcept;

 private:
  void* thread_ = nullptr;
};

}  // namespace perfbench
