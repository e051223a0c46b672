#include "trace/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace zh::trace {
namespace {

// Minimal JSON string escaping (quotes, backslash, control bytes). Trace
// details are DNS names and addresses, so the fast path copies verbatim.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

// Nanoseconds → microseconds with three decimals, integer math only (no
// floating point in the byte-identity path).
void append_us(std::string& out, std::int64_t ns) {
  const std::int64_t sign = ns < 0 ? -1 : 1;
  const std::int64_t abs_ns = ns * sign;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s%" PRId64 ".%03" PRId64,
                sign < 0 ? "-" : "", abs_ns / 1000, abs_ns % 1000);
  out += buf;
}

}  // namespace

std::optional<Format> parse_format(std::string_view text) noexcept {
  if (text == "jsonl") return Format::kJsonl;
  if (text == "chrome") return Format::kChrome;
  return std::nullopt;
}

const char* format_name(Format format) noexcept {
  return format == Format::kJsonl ? "jsonl" : "chrome";
}

void Collector::add_shard(unsigned shard, ShardTrace trace) {
  shards_[shard] = std::move(trace);
}

std::uint64_t Collector::event_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [shard, trace] : shards_) n += trace.events.size();
  return n;
}

std::uint64_t Collector::events_emitted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [shard, trace] : shards_) n += trace.emitted;
  return n;
}

std::uint64_t Collector::events_lost() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [shard, trace] : shards_) n += trace.lost;
  return n;
}

std::uint64_t Collector::metric(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& [shard, trace] : shards_)
    for (const auto& [counter, value] : trace.counters)
      if (counter == name) total += value;
  return total;
}

std::vector<std::pair<std::string, std::uint64_t>> Collector::metrics() const {
  std::map<std::string, std::uint64_t> merged;
  for (const auto& [shard, trace] : shards_)
    for (const auto& [counter, value] : trace.counters)
      merged[counter] += value;
  return {merged.begin(), merged.end()};
}

std::string Collector::to_jsonl() const {
  std::string out;
  for (const auto& [shard, trace] : shards_) {
    for (const Event& e : trace.events) {
      out += "{\"shard\":";
      append_u64(out, shard);
      out += ",\"ph\":\"";
      out += e.phase == Event::Phase::kSpan ? 'X' : 'i';
      out += "\",\"cat\":\"";
      out += e.category;
      out += "\",\"name\":\"";
      out += e.name;
      out += "\",\"ts\":";
      append_i64(out, e.ts_ns);
      if (e.phase == Event::Phase::kSpan) {
        out += ",\"dur\":";
        append_i64(out, e.dur_ns);
      }
      if (e.flow != 0) {
        out += ",\"flow\":";
        append_u64(out, e.flow);
      }
      if (e.sha1_blocks != 0) {
        out += ",\"sha1\":";
        append_u64(out, e.sha1_blocks);
      }
      if (e.depth != 0) {
        out += ",\"depth\":";
        append_u64(out, e.depth);
      }
      if (!e.detail.empty()) {
        out += ",\"detail\":\"";
        append_escaped(out, e.detail);
        out += '"';
      }
      out += "}\n";
    }
    // One metadata line per shard so the stream is self-describing.
    out += "{\"shard\":";
    append_u64(out, shard);
    out += ",\"ph\":\"M\",\"name\":\"shard_summary\",\"emitted\":";
    append_u64(out, trace.emitted);
    out += ",\"lost\":";
    append_u64(out, trace.lost);
    for (std::size_t i = 0; i < kStageCount; ++i) {
      out += ",\"stage_";
      out += stage_name(static_cast<Stage>(i));
      out += "_ns\":";
      append_i64(out, trace.stage_ns[i]);
    }
    for (const auto& [counter, value] : trace.counters) {
      out += ",\"";
      append_escaped(out, counter);
      out += "\":";
      append_u64(out, value);
    }
    out += "}\n";
  }
  return out;
}

std::string Collector::to_chrome() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [shard, trace] : shards_) {
    for (const Event& e : trace.events) {
      if (!first) out += ',';
      first = false;
      out += "\n{\"pid\":1,\"tid\":";
      append_u64(out, shard + 1);
      out += ",\"ph\":\"";
      out += e.phase == Event::Phase::kSpan ? 'X' : 'i';
      out += "\",\"cat\":\"";
      out += e.category;
      out += "\",\"name\":\"";
      out += e.name;
      out += "\",\"ts\":";
      append_us(out, e.ts_ns);
      if (e.phase == Event::Phase::kSpan) {
        out += ",\"dur\":";
        append_us(out, e.dur_ns);
      } else {
        out += ",\"s\":\"t\"";  // instant scope: thread
      }
      out += ",\"args\":{\"flow\":";
      append_u64(out, e.flow);
      out += ",\"sha1_blocks\":";
      append_u64(out, e.sha1_blocks);
      out += ",\"depth\":";
      append_u64(out, e.depth);
      if (!e.detail.empty()) {
        out += ",\"detail\":\"";
        append_escaped(out, e.detail);
        out += '"';
      }
      out += "}}";
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Collector::write_file(const std::string& path, Format format) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string body = serialise(format);
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = written == body.size() && std::fclose(f) == 0;
  if (!ok && written != body.size()) std::fclose(f);
  return ok;
}

}  // namespace zh::trace
