// Shared setup for the reproduction benches: builds the simulated Internet
// + synthetic population at a configurable scale.
//
// Environment knobs:
//   ZH_SCALE           population scale (default 0.001 = 1:1000 of 302 M)
//   ZH_RESOLVER_SCALE  resolver-population scale (default 0.01 = 1:100)
//   ZH_SEED            generator seed (default 42)
//   ZH_JOBS            worker threads (default 1; also --jobs N / --jobs=N)
//   ZH_LOSS            query loss probability (also --loss P)
//   ZH_RETRIES         client wire attempts (also --retries N)
//   ZH_TIMEOUT_MS      first attempt timeout in ms (also --timeout MS)
//   ZH_LATENCY_MS      base link RTT in ms (also --latency MS)
//   ZH_JITTER_MS       uniform RTT jitter in ms (also --jitter MS)
//   ZH_TRACE           trace output file (also --trace FILE; enables tracing)
//   ZH_TRACE_FORMAT    jsonl | chrome (also --trace-format F; default jsonl)
//   ZH_MAX_INFLIGHT    concurrent resolutions per worker in the scan engine
//                      (also --max-inflight N; default 1024)
//   ZH_LISTEN          frontend listen address (also --listen A; zh_serve
//                      and bench_frontend — see src/net/frontend.hpp)
//   ZH_PORT            frontend UDP+TCP port (also --port N; 0 = ephemeral)
//   ZH_TCP_IDLE_MS     frontend TCP idle-reap timeout (also --tcp-idle-ms)
//   ZH_PENDING_BUDGET  frontend pending-response budget before shedding
//                      (also --pending-budget N)
//   ZH_SHA1_IMPL       scalar forces the portable SHA-1 and SHA-256
//                      kernels (also --sha1-impl scalar; default: SHA-NI
//                      where the host has it — see src/crypto/sha1.hpp,
//                      src/crypto/sha2.hpp and docs/PERFORMANCE.md)
//   ZH_CHAIN_MEMO      0 switches the per-thread NSEC3 digest memo off,
//                      any other integer leaves it on (also --chain-memo
//                      N; default on — see src/crypto/nsec3_memo.hpp)
//   ZH_AGGRESSIVE_NSEC on | off RFC 8198 aggressive NSEC3 caching + RFC
//                      9520 failure caching in the scan resolver (also
//                      --aggressive-nsec E; default off — off is
//                      byte-identical to the goldens)
//   ZH_NEG_CACHE_CAP   aggressive-cache interval capacity (also
//                      --neg-cache-cap N; default 4096)
//   ZH_FAILURE_CACHE_TTL  first-failure cache TTL in ms (also
//                      --failure-cache-ttl MS; default 5000, clamped into
//                      RFC 9520's [1 s, 5 min])
#pragma once

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/nsec3_memo.hpp"
#include "crypto/sha1.hpp"
#include "scanner/campaign.hpp"
#include "scanner/parallel.hpp"
#include "simtime/latency.hpp"
#include "simtime/simtime.hpp"
#include "testbed/internet.hpp"
#include "trace/export.hpp"
#include "workload/install.hpp"
#include "workload/resolver_population.hpp"

namespace zh::bench {

/// The one strict integer parser behind every integer env knob and flag:
/// base-10 digits only, in [min, max]. atol turns "banana" into 0 and
/// "12abc" into 12, and "-3" cast to an unsigned count becomes billions of
/// retries, all silently; here each of them is nullopt.
inline std::optional<std::uint64_t> parse_u64(
    const char* text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (!text || !std::isdigit(static_cast<unsigned char>(*text)))
    return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < min || value > max)
    return std::nullopt;
  return value;
}

/// The one strict floating-point parser behind every real-valued env knob
/// and flag: the whole string is one finite decimal number in [min, max].
/// atof turns "banana" into 0 and "0.1x" into 0.1, silently; here each of
/// them, and nan, inf and out-of-range values, is nullopt.
inline std::optional<double> parse_double(
    const char* text, double min = 0.0,
    double max = std::numeric_limits<double>::infinity()) {
  if (!text || !*text || std::isspace(static_cast<unsigned char>(*text)))
    return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value) || value < min ||
      value > max)
    return std::nullopt;
  return value;
}

/// Strict real number from the environment, in [min, max]: anything
/// parse_double rejects is reported on stderr and the fallback is used.
inline double env_double(const char* name, double fallback, double min = 0.0,
                         double max = std::numeric_limits<double>::infinity()) {
  const char* value = std::getenv(name);
  if (!value || !*value) return fallback;
  if (const auto parsed = parse_double(value, min, max)) return *parsed;
  std::fprintf(stderr, "# %s='%s' is not a number in [%g, %g]; using %g\n",
               name, value, min, max, fallback);
  return fallback;
}

/// Strict non-negative integer from the environment: anything parse_u64
/// rejects is reported on stderr and the fallback is used.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (!value || !*value) return fallback;
  if (const auto parsed = parse_u64(value)) return *parsed;
  std::fprintf(stderr,
               "# %s='%s' is not a non-negative integer; using %llu\n", name,
               value, static_cast<unsigned long long>(fallback));
  return fallback;
}

/// An integer flag value through parse_u64, into [min, max] ∩ T. A bad
/// value is reported on stderr and `out` keeps its previous value; returns
/// whether `out` was set.
template <typename T>
bool parse_int_flag(const char* flag, const char* text, T& out,
                    std::uint64_t min = 0,
                    std::uint64_t max = std::numeric_limits<T>::max()) {
  if (const auto parsed = parse_u64(text, min, max)) {
    out = static_cast<T>(*parsed);
    return true;
  }
  std::fprintf(stderr,
               "# %s '%s' is not an integer in [%llu, %llu]; keeping %llu\n",
               flag, text, static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max),
               static_cast<unsigned long long>(out));
  return false;
}

/// A real-valued flag through parse_double, into [min, max]. A bad value is
/// reported on stderr and `out` keeps its previous value; returns whether
/// `out` was set.
inline bool parse_double_flag(
    const char* flag, const char* text, double& out, double min = 0.0,
    double max = std::numeric_limits<double>::infinity()) {
  if (const auto parsed = parse_double(text, min, max)) {
    out = *parsed;
    return true;
  }
  std::fprintf(stderr, "# %s '%s' is not a number in [%g, %g]; keeping %g\n",
               flag, text, min, max, out);
  return false;
}

/// Every bench shares one flag vocabulary (parsed by parse_flags below):
///   --jobs N / --jobs=N / -jN   worker threads (0 = all hardware threads)
///   --loss P                    per-query drop probability in [0, 1]
///   --retries N                 client wire attempts (zdns default 3)
///   --timeout MS                first attempt timeout in milliseconds
///   --latency MS                base link RTT in milliseconds
///   --jitter MS                 uniform RTT jitter in milliseconds
///   --trace FILE                write the merged event trace to FILE
///   --trace-format F            jsonl (default) or chrome
///   --max-inflight N            concurrent resolutions per worker — campaign
///                               outputs are window-invariant
///   --listen A                  frontend listen address (default 127.0.0.1)
///   --port N                    frontend UDP+TCP port (0 = ephemeral)
///   --tcp-idle-ms MS            frontend TCP idle-reap timeout
///   --pending-budget N          frontend shed threshold (buffered responses)
///   --shard S --of K            run only sub-shard S of K
///   --emit-shard BASE           write shard artefacts under BASE (worker
///                               mode — requires --shard/--of)
///   --merge-shards FILE...      merge existing artefacts instead of
///                               scanning (consumes all remaining args);
///                               see bench_shards.hpp for the recipe
///   --sha1-impl scalar          force the portable SHA-1 and SHA-256
///                               kernels instead of SHA-NI — outputs are
///                               kernel-invariant
///   --chain-memo N              0 switches the NSEC3 digest memo off, any
///                               other integer on — outputs are
///                               memo-invariant
///   --aggressive-nsec E         on or off (default): RFC 8198 synthesis +
///                               RFC 9520 failure caching in the scan
///                               resolver — off is byte-identical to goldens
///   --neg-cache-cap N           aggressive-cache interval capacity
///   --failure-cache-ttl MS      first-failure cache TTL in milliseconds
/// Integer values must be whole non-negative numbers in the flag's range;
/// a bad value is reported on stderr and the previous value is kept.
/// Unknown flags are ignored, so benches can add their own on top.
struct BenchFlags {
  unsigned jobs = 1;
  double loss = 0.0;
  simtime::RetryPolicy retry{};
  double latency_ms = 0.0;
  double jitter_ms = 0.0;
  /// Scan-engine window per worker thread; outputs are window-invariant, so
  /// this is purely a throughput knob (see scanner/async_engine.hpp).
  std::size_t max_inflight = 1024;
  /// Real-socket frontend knobs (zh_serve / bench_frontend; mirror
  /// net::FrontendConfig — see src/net/frontend.hpp).
  std::string listen = "127.0.0.1";
  unsigned port = 0;  // 0 = ephemeral, read back from Frontend::port()
  std::int64_t tcp_idle_ms = 10000;
  std::size_t pending_budget = 512;
  std::string trace_path;
  trace::Format trace_format = trace::Format::kJsonl;
  /// Worker-mode sub-shard (bench_shards.hpp): this run covers positions
  /// ≡ shard (mod of) and writes artefacts under `emit_shard` instead of
  /// printing results.
  unsigned shard = 0;
  unsigned of = 0;
  std::string emit_shard;
  /// Merge-mode inputs: decode + merge these artefacts, run nothing.
  std::vector<std::string> merge_shards;
  /// RFC 8198 aggressive NSEC3 caching (+ RFC 9520 failure caching) in the
  /// scan resolver / synth-capable panels. nullopt = off, the golden-stable
  /// default; set via --aggressive-nsec / ZH_AGGRESSIVE_NSEC.
  std::optional<bool> aggressive_nsec;
  std::size_t neg_cache_cap = 4096;
  std::int64_t failure_cache_ttl_ms = 5000;

  bool worker_mode() const noexcept { return !emit_shard.empty(); }

  /// Every setting that changes a campaign's non-`#` output, as one string
  /// that travels in each shard artefact, so a merge refuses shards
  /// emitted under another configuration than its own. The scales are
  /// read as the benches read them ("default" when unset or not a number);
  /// settings pinned as unobservable (--jobs, --max-inflight, the digest
  /// memo, the SHA kernel, tracing) stay out.
  std::string identity() const {
    const auto scale = [](const char* name) -> std::string {
      const char* text = std::getenv(name);
      const auto value = text ? parse_double(text, 0.0) : std::nullopt;
      if (!value) return "default";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", *value);
      return buf;
    };
    char knobs[256];
    std::snprintf(
        knobs, sizeof knobs,
        " loss=%.17g latency_ms=%.17g jitter_ms=%.17g retries=%u "
        "timeout_ms=%lld aggressive_nsec=%s neg_cache_cap=%zu "
        "failure_cache_ttl_ms=%lld",
        loss, latency_ms, jitter_ms, retry.attempts,
        static_cast<long long>(retry.timeout.millis()),
        aggressive() ? "on" : "off", neg_cache_cap,
        static_cast<long long>(failure_cache_ttl_ms));
    return "seed=" + std::to_string(env_u64("ZH_SEED", 42)) +
           " scale=" + scale("ZH_SCALE") +
           " resolver_scale=" + scale("ZH_RESOLVER_SCALE") + knobs;
  }
  bool merge_mode() const noexcept { return !merge_shards.empty(); }

  /// True when any flag moves virtual time (loss forces timeout waits).
  bool time_shaped() const noexcept {
    return loss > 0.0 || latency_ms > 0.0 || jitter_ms > 0.0;
  }

  bool trace_enabled() const noexcept { return !trace_path.empty(); }

  bool aggressive() const noexcept { return aggressive_nsec.value_or(false); }

  /// Turns the aggressive-cache flags on in `profile` — a no-op while the
  /// capability is off, which keeps synth-off runs byte-identical to the
  /// goldens (the profile, metrics and caches are all untouched).
  void apply_aggressive(resolver::ResolverProfile& profile) const {
    if (!aggressive()) return;
    profile.enable_aggressive(
        neg_cache_cap, simtime::Duration::from_ms(failure_cache_ttl_ms));
  }

  /// The scan-resolver profile campaign benches hand to
  /// scanner::default_world_factory: the historical Cloudflare profile,
  /// with the aggressive caches switched on when the flags ask for them.
  resolver::ResolverProfile scan_profile() const {
    resolver::ResolverProfile profile =
        resolver::ResolverProfile::cloudflare();
    apply_aggressive(profile);
    return profile;
  }

  simtime::LatencyModel latency_model(std::uint64_t seed) const {
    if (latency_ms <= 0.0 && jitter_ms <= 0.0) return {};
    return simtime::LatencyModel(
        simtime::Duration::from_us(
            static_cast<std::int64_t>(latency_ms * 1000.0)),
        simtime::Duration::from_us(
            static_cast<std::int64_t>(jitter_ms * 1000.0)),
        seed);
  }

  /// Installs every parsed flag into the parallel-engine options struct —
  /// the whole hand-off lives here so a flag can't silently stop short of
  /// the engine (--trace-format used to).
  void apply(scanner::ParallelOptions& options) const {
    options.jobs = jobs;
    options.max_inflight = max_inflight;
    options.loss_probability = loss;
    options.retry = retry;
    options.latency = latency_model(options.base_seed);
    options.trace.enabled = trace_enabled();
    options.trace.format = trace_format;
    if (worker_mode()) {
      options.shard_index = shard;
      options.shard_count = of;
    }
  }
};

/// "on"/"1" → true, "off"/"0" → false; nullopt for anything else.
inline std::optional<bool> parse_on_off(const char* value) {
  if (std::strcmp(value, "on") == 0 || std::strcmp(value, "1") == 0)
    return true;
  if (std::strcmp(value, "off") == 0 || std::strcmp(value, "0") == 0)
    return false;
  return std::nullopt;
}

/// Parses the shared flag vocabulary; environment variables (ZH_JOBS,
/// ZH_LOSS, ZH_RETRIES, ZH_TIMEOUT_MS, ZH_LATENCY_MS, ZH_JITTER_MS) give
/// the defaults, command-line flags override. `--flag V` and `--flag=V`
/// both work.
inline BenchFlags parse_flags(int argc, char** argv) {
  BenchFlags flags;
  unsigned jobs = static_cast<unsigned>(env_u64("ZH_JOBS", 1));
  flags.loss = env_double("ZH_LOSS", 0.0, 0.0, 1.0);
  flags.retry.attempts =
      static_cast<unsigned>(env_u64("ZH_RETRIES", flags.retry.attempts));
  flags.retry.timeout = simtime::Duration::from_ms(static_cast<std::int64_t>(
      env_u64("ZH_TIMEOUT_MS",
              static_cast<std::uint64_t>(flags.retry.timeout.millis()))));
  flags.latency_ms = env_double("ZH_LATENCY_MS", 0.0);
  flags.jitter_ms = env_double("ZH_JITTER_MS", 0.0);
  flags.max_inflight = static_cast<std::size_t>(
      env_u64("ZH_MAX_INFLIGHT", flags.max_inflight));
  if (const char* listen = std::getenv("ZH_LISTEN")) flags.listen = listen;
  flags.port = static_cast<unsigned>(env_u64("ZH_PORT", flags.port) & 0xffff);
  flags.tcp_idle_ms = static_cast<std::int64_t>(
      env_u64("ZH_TCP_IDLE_MS", static_cast<std::uint64_t>(flags.tcp_idle_ms)));
  flags.pending_budget = static_cast<std::size_t>(
      env_u64("ZH_PENDING_BUDGET", flags.pending_budget));
  if (const char* path = std::getenv("ZH_TRACE")) flags.trace_path = path;
  if (const char* format = std::getenv("ZH_TRACE_FORMAT")) {
    if (const auto parsed = trace::parse_format(format))
      flags.trace_format = *parsed;
  }
  if (const char* aggressive = std::getenv("ZH_AGGRESSIVE_NSEC")) {
    if (const auto parsed = parse_on_off(aggressive)) {
      flags.aggressive_nsec = *parsed;
    } else {
      std::fprintf(stderr, "# unknown ZH_AGGRESSIVE_NSEC '%s' (on|off)\n",
                   aggressive);
    }
  }
  flags.neg_cache_cap = static_cast<std::size_t>(
      env_u64("ZH_NEG_CACHE_CAP", flags.neg_cache_cap));
  flags.failure_cache_ttl_ms = static_cast<std::int64_t>(env_u64(
      "ZH_FAILURE_CACHE_TTL",
      static_cast<std::uint64_t>(flags.failure_cache_ttl_ms)));

  // `--flag V` / `--flag=V`: returns the value string, or nullptr.
  const auto value_of = [&](int& i, const char* name) -> const char* {
    const char* arg = argv[i];
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0) return nullptr;
    if (arg[len] == '=') return arg + len + 1;
    if (arg[len] == '\0' && i + 1 < argc) return argv[++i];
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = value_of(i, "--jobs")) {
      parse_int_flag("--jobs", v, jobs);
    } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      parse_int_flag("-j", arg + 2, jobs);
    } else if (const char* v = value_of(i, "--loss")) {
      parse_double_flag("--loss", v, flags.loss, 0.0, 1.0);
    } else if (const char* v = value_of(i, "--retries")) {
      parse_int_flag("--retries", v, flags.retry.attempts);
    } else if (const char* v = value_of(i, "--timeout")) {
      std::int64_t ms = flags.retry.timeout.millis();
      if (parse_int_flag("--timeout", v, ms))
        flags.retry.timeout = simtime::Duration::from_ms(ms);
    } else if (const char* v = value_of(i, "--latency")) {
      parse_double_flag("--latency", v, flags.latency_ms);
    } else if (const char* v = value_of(i, "--jitter")) {
      parse_double_flag("--jitter", v, flags.jitter_ms);
    } else if (const char* v = value_of(i, "--max-inflight")) {
      parse_int_flag("--max-inflight", v, flags.max_inflight, 1);
    } else if (const char* v = value_of(i, "--listen")) {
      flags.listen = v;
    } else if (const char* v = value_of(i, "--port")) {
      parse_int_flag("--port", v, flags.port, 0, 65535);
    } else if (const char* v = value_of(i, "--tcp-idle-ms")) {
      parse_int_flag("--tcp-idle-ms", v, flags.tcp_idle_ms);
    } else if (const char* v = value_of(i, "--pending-budget")) {
      parse_int_flag("--pending-budget", v, flags.pending_budget, 1);
    } else if (const char* v = value_of(i, "--trace-format")) {
      if (const auto parsed = trace::parse_format(v)) {
        flags.trace_format = *parsed;
      } else {
        std::fprintf(stderr, "# unknown --trace-format '%s' (jsonl|chrome)\n",
                     v);
      }
    } else if (const char* v = value_of(i, "--trace")) {
      flags.trace_path = v;
    } else if (const char* v = value_of(i, "--shard")) {
      parse_int_flag("--shard", v, flags.shard);
    } else if (const char* v = value_of(i, "--of")) {
      parse_int_flag("--of", v, flags.of);
    } else if (const char* v = value_of(i, "--emit-shard")) {
      flags.emit_shard = v;
    } else if (const char* v = value_of(i, "--sha1-impl")) {
      if (std::strcmp(v, "scalar") == 0) {
        crypto::force_sha1_scalar(true);
      } else {
        std::fprintf(stderr,
                     "# --sha1-impl '%s' is not 'scalar'; keeping the %s "
                     "kernel\n",
                     v, crypto::sha1_scalar_forced() ? "scalar" : "default");
      }
    } else if (const char* v = value_of(i, "--chain-memo")) {
      std::size_t memo = crypto::Nsec3DigestMemo::enabled() ? 1 : 0;
      if (parse_int_flag("--chain-memo", v, memo))
        crypto::Nsec3DigestMemo::set_enabled(memo != 0);
    } else if (const char* v = value_of(i, "--aggressive-nsec")) {
      if (const auto parsed = parse_on_off(v)) {
        flags.aggressive_nsec = *parsed;
      } else {
        std::fprintf(stderr, "# unknown --aggressive-nsec '%s' (on|off)\n", v);
      }
    } else if (const char* v = value_of(i, "--neg-cache-cap")) {
      parse_int_flag("--neg-cache-cap", v, flags.neg_cache_cap, 1);
    } else if (const char* v = value_of(i, "--failure-cache-ttl")) {
      parse_int_flag("--failure-cache-ttl", v, flags.failure_cache_ttl_ms, 1);
    } else if (std::strcmp(arg, "--merge-shards") == 0) {
      for (++i; i < argc; ++i) flags.merge_shards.push_back(argv[i]);
    }
  }
  flags.jobs = jobs == 0 ? scanner::default_jobs() : jobs;
  if (flags.worker_mode() && (flags.of == 0 || flags.shard >= flags.of)) {
    std::fprintf(stderr, "--emit-shard requires --shard S --of K with S < K "
                         "(got S=%u, K=%u)\n",
                 flags.shard, flags.of);
    std::exit(2);
  }
  return flags;
}

/// Writes the merged trace when --trace/ZH_TRACE asked for one, and prints
/// a `#` summary comment. A no-op (no output at all) otherwise, so
/// zero-config bench output stays byte-identical.
inline void write_trace(const BenchFlags& flags,
                        const trace::Collector& collector) {
  if (!flags.trace_enabled()) return;
  const bool ok = collector.write_file(flags.trace_path, flags.trace_format);
  std::printf("# trace: %llu events (%llu emitted, %llu ring-dropped) from "
              "%zu shard(s) %s %s (%s)\n",
              static_cast<unsigned long long>(collector.event_count()),
              static_cast<unsigned long long>(collector.events_emitted()),
              static_cast<unsigned long long>(collector.events_lost()),
              collector.shard_count(),
              ok ? "written to" : "FAILED writing",
              flags.trace_path.c_str(), trace::format_name(flags.trace_format));
  for (const auto& [name, value] : collector.metrics())
    std::printf("# trace metric %s = %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
}

/// Prints the per-stage latency breakdown (p50/p99 µs per stage) when
/// tracing was requested. Gated on the trace flag so zero-config output is
/// untouched; stage Ecdfs are jobs-invariant (per-item deltas).
inline void print_stage_breakdown(const BenchFlags& flags,
                                  const analysis::Ecdf& resolve,
                                  const analysis::Ecdf& recurse,
                                  const analysis::Ecdf& validate,
                                  const analysis::Ecdf& queue_wait) {
  if (!flags.trace_enabled()) return;
  const auto row = [](const char* stage, const analysis::Ecdf& ecdf) {
    std::printf("# stage %-10s p50=%8lldus  p99=%8lldus  max=%8lldus\n", stage,
                static_cast<long long>(ecdf.percentile(0.5)),
                static_cast<long long>(ecdf.percentile(0.99)),
                static_cast<long long>(ecdf.max()));
  };
  row("resolve", resolve);
  row("recurse", recurse);
  row("validate", validate);
  row("queue-wait", queue_wait);
}

/// Prints the RFC 8198/9520 campaign counters. Gated on --aggressive-nsec
/// so synth-off output stays byte-identical to the goldens; the counters
/// themselves are jobs/shard/window-invariant (per-shard metric deltas).
inline void print_aggressive_counters(const BenchFlags& flags,
                                      std::uint64_t neg_synth_hits,
                                      std::uint64_t failure_cache_hits) {
  if (!flags.aggressive()) return;
  std::printf("# aggressive-nsec: %llu answers synthesized, %llu "
              "failure-cache hits (cap %llu, failure TTL %lldms)\n",
              static_cast<unsigned long long>(neg_synth_hits),
              static_cast<unsigned long long>(failure_cache_hits),
              static_cast<unsigned long long>(flags.neg_cache_cap),
              static_cast<long long>(flags.failure_cache_ttl_ms));
}

/// A fully built world: internet + population spec + probe zones + the
/// measurement resolver (Cloudflare profile, as the paper used 1.1.1.1).
struct World {
  std::unique_ptr<workload::EcosystemSpec> spec;
  std::unique_ptr<testbed::Internet> internet;
  std::vector<testbed::ProbeZone> probe_zones;
  std::unique_ptr<resolver::RecursiveResolver> scan_resolver;
  double scale = 0.001;
};

inline World build_world(bool with_domains = true) {
  World world;
  world.scale = env_double("ZH_SCALE", 0.001);
  const std::uint64_t seed = env_u64("ZH_SEED", 42);

  const auto start = std::chrono::steady_clock::now();
  world.spec = std::make_unique<workload::EcosystemSpec>(
      workload::EcosystemSpec::Options{.scale = world.scale, .seed = seed});
  world.internet = std::make_unique<testbed::Internet>();
  world.probe_zones = testbed::add_probe_infrastructure(*world.internet);
  if (with_domains) {
    workload::install_ecosystem(*world.internet, *world.spec);
  }
  world.internet->build();
  world.scan_resolver = world.internet->make_resolver(
      resolver::ResolverProfile::cloudflare(),
      simnet::IpAddress::v4(1, 1, 1, 1));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf(
      "# world: scale=%g (%zu domains, %zu TLDs, %zu operators) built in "
      "%.1fs\n",
      world.scale, with_domains ? world.spec->domain_count() : 0,
      world.spec->tlds().size(), world.spec->operators().size(), secs);
  return world;
}

}  // namespace zh::bench
