#include "trace/trace.hpp"

#include <algorithm>

#include "crypto/cost_meter.hpp"

namespace zh::trace {

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kResolve:
      return "resolve";
    case Stage::kRecurse:
      return "recurse";
    case Stage::kValidate:
      return "validate";
    case Stage::kQueueWait:
      return "queue_wait";
  }
  return "?";
}

std::uint64_t Metrics::value(std::string_view name) const {
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> Metrics::snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, value] : counters_) out.emplace_back(name, value);
  return out;  // std::map iteration order — already sorted by name
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    close();
    tracer_ = other.tracer_;
    category_ = other.category_;
    name_ = other.name_;
    detail_ = std::move(other.detail_);
    start_ns_ = other.start_ns_;
    sha1_start_ = other.sha1_start_;
    depth_ = other.depth_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::close() noexcept {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->close_span(*this);
}

StageTimer::StageTimer(Tracer& tracer, Stage stage)
    : tracer_(&tracer), stage_(stage), start_ns_(tracer.now_ns()) {}

StageTimer::~StageTimer() {
  tracer_->add_stage(stage_, tracer_->now_ns() - start_ns_);
}

void Tracer::configure(const Config& config) {
  enabled_ = config.enabled;
  capacity_ = std::max<std::size_t>(1, config.buffer_capacity);
  ring_.clear();
  ring_.shrink_to_fit();
  if (enabled_) ring_.reserve(std::min<std::size_t>(capacity_, 4096));
  next_ = 0;
  emitted_ = 0;
}

Span Tracer::span(const char* category, const char* name, std::string detail) {
  Span span;
  if (!enabled_) return span;
  span.tracer_ = this;
  span.category_ = category;
  span.name_ = name;
  span.detail_ = std::move(detail);
  span.start_ns_ = now_ns();
  span.sha1_start_ = crypto::CostMeter::sha1_blocks();
  span.depth_ = open_depth_++;
  return span;
}

void Tracer::instant(const char* category, const char* name,
                     std::string detail) {
  if (!enabled_) return;
  Event event;
  event.phase = Event::Phase::kInstant;
  event.category = category;
  event.name = name;
  event.detail = std::move(detail);
  event.ts_ns = now_ns();
  event.depth = open_depth_;
  push(std::move(event));
}

void Tracer::emit(Event event) {
  if (!enabled_) return;
  push(std::move(event));
}

void Tracer::close_span(Span& span) {
  if (open_depth_ > 0) --open_depth_;
  Event event;
  event.phase = Event::Phase::kSpan;
  event.category = span.category_;
  event.name = span.name_;
  event.detail = std::move(span.detail_);
  event.ts_ns = span.start_ns_;
  event.dur_ns = now_ns() - span.start_ns_;
  event.sha1_blocks = crypto::CostMeter::sha1_blocks() - span.sha1_start_;
  event.depth = span.depth_;
  push(std::move(event));
}

void Tracer::push(Event&& event) {
  event.flow = flow_;
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
}

ShardTrace Tracer::take() const {
  ShardTrace out;
  out.emitted = emitted_;
  out.lost = events_lost();
  out.counters = metrics_.snapshot();
  out.stage_ns = stage_ns_;
  out.events.reserve(ring_.size());
  // Unroll the ring oldest → newest: once it has wrapped, `next_` is the
  // oldest slot.
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.events.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

}  // namespace zh::trace
