// Tests for the shared bench flag vocabulary (bench/bench_common.hpp):
// every parsed flag must land in BenchFlags AND survive the apply()
// hand-off into scanner::ParallelOptions (--trace-format once fell
// through that gap), and environment and flag parsing must reject garbage
// instead of atoll-ing or atof-ing it into surprising numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "crypto/nsec3_memo.hpp"

namespace zh::bench {
namespace {

/// Builds a mutable argv (parse_flags takes char**, as main does).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& arg : storage_) pointers_.push_back(arg.data());
    pointers_.push_back(nullptr);
  }
  int argc() const { return static_cast<int>(storage_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

/// Scoped environment override (unset on destruction).
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~EnvVar() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(BenchFlags, EveryFlagLandsInFlagsAndOptions) {
  Argv argv({"bench", "--jobs", "3", "--loss", "0.25", "--retries", "5",
             "--timeout", "1500", "--latency", "20", "--jitter", "4",
             "--trace", "/tmp/t.jsonl", "--trace-format", "chrome"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.jobs, 3u);
  EXPECT_DOUBLE_EQ(flags.loss, 0.25);
  EXPECT_EQ(flags.retry.attempts, 5u);
  EXPECT_EQ(flags.retry.timeout.millis(), 1500);
  EXPECT_DOUBLE_EQ(flags.latency_ms, 20.0);
  EXPECT_DOUBLE_EQ(flags.jitter_ms, 4.0);
  EXPECT_EQ(flags.trace_path, "/tmp/t.jsonl");
  EXPECT_EQ(flags.trace_format, trace::Format::kChrome);

  // The apply() hand-off: nothing parsed may stop short of the engine.
  scanner::ParallelOptions options{.base_seed = 7};
  flags.apply(options);
  EXPECT_EQ(options.jobs, 3u);
  EXPECT_DOUBLE_EQ(options.loss_probability, 0.25);
  EXPECT_EQ(options.retry.attempts, 5u);
  EXPECT_EQ(options.retry.timeout.millis(), 1500);
  EXPECT_TRUE(options.trace.enabled);
  EXPECT_EQ(options.trace.format, trace::Format::kChrome);  // the regression
  EXPECT_EQ(options.shard_index, 0u);
  EXPECT_EQ(options.shard_count, 1u);
}

TEST(BenchFlags, MaxInflightLandsInFlagsAndOptions) {
  Argv argv({"bench", "--max-inflight", "256"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.max_inflight, 256u);

  scanner::ParallelOptions options;
  flags.apply(options);
  EXPECT_EQ(options.max_inflight, 256u);

  Argv argv2({"bench"});
  EXPECT_EQ(parse_flags(argv2.argc(), argv2.argv()).max_inflight, 1024u);
}

// The shard identity names the scales and the seed as the benches read
// them, and leaves out the knobs pinned as unobservable.
TEST(BenchEnv, ShardIdentityCoversOutputSettingsOnly) {
  char prog[] = "bench";
  char jobs[] = "--jobs";
  char four[] = "4";
  char window[] = "--max-inflight";
  char one[] = "1";
  char* argv_plain[] = {prog};
  char* argv_knobs[] = {prog, jobs, four, window, one};
  std::string small, other;
  {
    const EnvVar scale("ZH_SCALE", "0.0001");
    small = parse_flags(1, argv_plain).identity();
    EXPECT_EQ(parse_flags(5, argv_knobs).identity(), small);
    EXPECT_NE(small.find("scale=0.0001"), std::string::npos) << small;
    EXPECT_NE(small.find("seed=42"), std::string::npos) << small;
  }
  {
    const EnvVar scale("ZH_SCALE", "0.0002");
    const EnvVar seed("ZH_SEED", "7");
    other = parse_flags(1, argv_plain).identity();
    EXPECT_NE(other.find("seed=7"), std::string::npos) << other;
  }
  EXPECT_NE(small, other);
  {
    const EnvVar scale("ZH_SCALE", "0.0001");
    char loss[] = "--loss";
    char tenth[] = "0.1";
    char* argv_loss[] = {prog, loss, tenth};
    EXPECT_NE(parse_flags(3, argv_loss).identity(), small);
  }
}

TEST(BenchEnv, MaxInflightComesFromEnvironment) {
  EnvVar inflight("ZH_MAX_INFLIGHT", "64");
  Argv argv({"bench"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.max_inflight, 64u);

  // The command line overrides the environment.
  Argv argv2({"bench", "--max-inflight=8"});
  const BenchFlags overridden = parse_flags(argv2.argc(), argv2.argv());
  EXPECT_EQ(overridden.max_inflight, 8u);
}

TEST(BenchFlags, EqualsFormAndShortJobsWork) {
  Argv argv({"bench", "--jobs=4", "--loss=0.5", "--trace-format=chrome"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.jobs, 4u);
  EXPECT_DOUBLE_EQ(flags.loss, 0.5);
  EXPECT_EQ(flags.trace_format, trace::Format::kChrome);

  Argv argv2({"bench", "-j6"});
  EXPECT_EQ(parse_flags(argv2.argc(), argv2.argv()).jobs, 6u);

  // 0 means one worker per hardware thread.
  Argv argv3({"bench", "--jobs=0"});
  EXPECT_EQ(parse_flags(argv3.argc(), argv3.argv()).jobs,
            scanner::default_jobs());
}

TEST(BenchFlags, WorkerModeFlagsApplyAsSubShard) {
  Argv argv({"bench", "--jobs", "2", "--shard", "1", "--of", "3",
             "--emit-shard", "/tmp/base"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_TRUE(flags.worker_mode());
  EXPECT_EQ(flags.shard, 1u);
  EXPECT_EQ(flags.of, 3u);
  EXPECT_EQ(flags.emit_shard, "/tmp/base");

  scanner::ParallelOptions options;
  flags.apply(options);
  EXPECT_EQ(options.jobs, 2u);
  EXPECT_EQ(options.shard_index, 1u);
  EXPECT_EQ(options.shard_count, 3u);
}

TEST(BenchFlags, MergeShardsConsumesRemainingArguments) {
  Argv argv({"bench", "--jobs", "2", "--merge-shards", "a.bin", "b.bin",
             "c.bin"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_TRUE(flags.merge_mode());
  EXPECT_EQ(flags.merge_shards,
            (std::vector<std::string>{"a.bin", "b.bin", "c.bin"}));
}

TEST(BenchFlags, IntegerFlagsRejectGarbageAndKeepThePreviousValue) {
  // Every integer flag goes through the one strict parser: garbage, a
  // negative number or trailing junk is reported on stderr and leaves the
  // previous value, in both the `--flag V` and the `--flag=V` form.
  struct IntegerFlag {
    std::string name;
    std::string valid;
    std::uint64_t (*read)(const BenchFlags&);
  };
  const std::vector<IntegerFlag> table = {
      {"--jobs", "3", [](const BenchFlags& f) -> std::uint64_t { return f.jobs; }},
      {"-j", "5", [](const BenchFlags& f) -> std::uint64_t { return f.jobs; }},
      {"--retries", "5",
       [](const BenchFlags& f) -> std::uint64_t { return f.retry.attempts; }},
      {"--timeout", "1500",
       [](const BenchFlags& f) -> std::uint64_t {
         return static_cast<std::uint64_t>(f.retry.timeout.millis());
       }},
      {"--max-inflight", "256",
       [](const BenchFlags& f) -> std::uint64_t { return f.max_inflight; }},
      {"--port", "5353",
       [](const BenchFlags& f) -> std::uint64_t { return f.port; }},
      {"--tcp-idle-ms", "2500",
       [](const BenchFlags& f) -> std::uint64_t {
         return static_cast<std::uint64_t>(f.tcp_idle_ms);
       }},
      {"--pending-budget", "64",
       [](const BenchFlags& f) -> std::uint64_t { return f.pending_budget; }},
      {"--shard", "1", [](const BenchFlags& f) -> std::uint64_t { return f.shard; }},
      {"--of", "3", [](const BenchFlags& f) -> std::uint64_t { return f.of; }},
      {"--neg-cache-cap", "512",
       [](const BenchFlags& f) -> std::uint64_t { return f.neg_cache_cap; }},
      {"--failure-cache-ttl", "2000",
       [](const BenchFlags& f) -> std::uint64_t {
         return static_cast<std::uint64_t>(f.failure_cache_ttl_ms);
       }},
  };
  const auto parse = [](const std::string& flag, const std::string& value,
                        bool equals) {
    std::vector<std::string> args{"bench"};
    if (flag == "-j") {
      args.push_back(flag + value);
    } else if (equals) {
      args.push_back(flag + "=" + value);
    } else {
      args.push_back(flag);
      args.push_back(value);
    }
    Argv argv(args);
    return parse_flags(argv.argc(), argv.argv());
  };

  Argv none({"bench"});
  const BenchFlags defaults = parse_flags(none.argc(), none.argv());
  for (const IntegerFlag& flag : table) {
    SCOPED_TRACE(flag.name);
    const std::uint64_t previous = flag.read(defaults);
    for (const bool equals : {false, true}) {
      SCOPED_TRACE(equals ? "--flag=V" : "--flag V");
      for (const char* bad : {"banana", "-3", "12abc"}) {
        ::testing::internal::CaptureStderr();
        const BenchFlags flags = parse(flag.name, bad, equals);
        const std::string diagnostic =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(flag.read(flags), previous) << bad;
        EXPECT_NE(diagnostic.find(flag.name), std::string::npos) << bad;
      }
      const std::uint64_t valid = std::stoull(flag.valid);
      ASSERT_NE(valid, previous);
      EXPECT_EQ(flag.read(parse(flag.name, flag.valid, equals)), valid);
    }
  }
}

TEST(BenchFlags, RealFlagsRejectGarbageAndKeepThePreviousValue) {
  // --loss, --latency and --jitter go through the one strict real parser:
  // garbage, trailing junk, nan, inf, a negative number and (for the loss
  // probability) a value over 1 are reported on stderr and leave the value
  // an earlier occurrence of the flag set, in both forms.
  struct RealFlag {
    std::string name;
    std::string valid;
    std::vector<std::string> bad;
    double (*read)(const BenchFlags&);
  };
  const std::vector<std::string> garbage = {"banana", "0.1x", "nan", "inf",
                                            "-1"};
  std::vector<std::string> loss_garbage = garbage;
  loss_garbage.push_back("1.5");
  const std::vector<RealFlag> table = {
      {"--loss", "0.25", loss_garbage,
       [](const BenchFlags& f) { return f.loss; }},
      {"--latency", "20.5", garbage,
       [](const BenchFlags& f) { return f.latency_ms; }},
      {"--jitter", "5", garbage,
       [](const BenchFlags& f) { return f.jitter_ms; }},
  };
  for (const RealFlag& flag : table) {
    SCOPED_TRACE(flag.name);
    for (const bool equals : {false, true}) {
      SCOPED_TRACE(equals ? "--flag=V" : "--flag V");
      const auto args = [&](const std::string& value) {
        return equals ? std::vector<std::string>{flag.name + "=" + value}
                      : std::vector<std::string>{flag.name, value};
      };
      std::vector<std::string> valid_only{"bench"};
      for (const auto& arg : args(flag.valid)) valid_only.push_back(arg);
      Argv valid_argv(valid_only);
      const double valid =
          flag.read(parse_flags(valid_argv.argc(), valid_argv.argv()));
      ASSERT_EQ(valid, std::stod(flag.valid));
      for (const std::string& bad : flag.bad) {
        std::vector<std::string> both = valid_only;
        for (const auto& arg : args(bad)) both.push_back(arg);
        Argv argv(both);
        ::testing::internal::CaptureStderr();
        const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
        const std::string diagnostic =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(flag.read(flags), valid) << bad;
        EXPECT_NE(diagnostic.find(flag.name), std::string::npos) << bad;
      }
    }
  }
}

TEST(BenchEnv, RealKnobsRejectGarbageAndKeepTheDefault) {
  for (const char* bad : {"banana", "0.1x", "nan", "inf", "-1", "1.5"}) {
    SCOPED_TRACE(bad);
    EnvVar loss("ZH_LOSS", bad);
    Argv argv({"bench"});
    ::testing::internal::CaptureStderr();
    const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
    const std::string diagnostic = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(flags.loss, 0.0);
    EXPECT_NE(diagnostic.find("ZH_LOSS"), std::string::npos);
  }
  {
    EnvVar loss("ZH_LOSS", "0.2");
    Argv argv({"bench"});
    EXPECT_EQ(parse_flags(argv.argc(), argv.argv()).loss, 0.2);
  }
  for (const char* bad : {"banana", "0.1x", "nan", "inf", "-1"}) {
    SCOPED_TRACE(bad);
    EnvVar scale("ZH_SCALE", bad);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(env_double("ZH_SCALE", 0.001), 0.001);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find("ZH_SCALE"),
              std::string::npos);
  }
  {
    EnvVar scale("ZH_SCALE", "0.0005");
    EXPECT_EQ(env_double("ZH_SCALE", 0.001), 0.0005);
  }
}

TEST(BenchEnv, RejectsNegativeAndGarbageIntegers) {
  {
    EnvVar env("ZH_TEST_U64", "-3");
    EXPECT_EQ(env_u64("ZH_TEST_U64", 42), 42u);
  }
  {
    EnvVar env("ZH_TEST_U64", "banana");
    EXPECT_EQ(env_u64("ZH_TEST_U64", 7), 7u);
  }
  {
    EnvVar env("ZH_TEST_U64", "12abc");
    EXPECT_EQ(env_u64("ZH_TEST_U64", 7), 7u);
  }
  {
    EnvVar env("ZH_TEST_U64", "99");
    EXPECT_EQ(env_u64("ZH_TEST_U64", 7), 99u);
  }
  EXPECT_EQ(env_u64("ZH_TEST_U64_UNSET", 5), 5u);
}

TEST(BenchEnv, BadRetriesFallBackToDefault) {
  EnvVar retries("ZH_RETRIES", "-2");
  Argv argv({"bench"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.retry.attempts, simtime::RetryPolicy{}.attempts);
}

TEST(BenchFlags, FrontendFlagsParseBothForms) {
  Argv argv({"bench", "--listen", "0.0.0.0", "--port=5353",
             "--tcp-idle-ms", "2500", "--pending-budget=64"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.listen, "0.0.0.0");
  EXPECT_EQ(flags.port, 5353u);
  EXPECT_EQ(flags.tcp_idle_ms, 2500);
  EXPECT_EQ(flags.pending_budget, 64u);
}

TEST(BenchFlags, FrontendFlagsDefaultToLoopbackEphemeral) {
  Argv argv({"bench"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.listen, "127.0.0.1");
  EXPECT_EQ(flags.port, 0u);
  EXPECT_EQ(flags.tcp_idle_ms, 10000);
  EXPECT_EQ(flags.pending_budget, 512u);
}

TEST(BenchEnv, FrontendKnobsComeFromEnvironmentAndFlagsWin) {
  EnvVar listen("ZH_LISTEN", "10.0.0.1");
  EnvVar port("ZH_PORT", "8053");
  EnvVar idle("ZH_TCP_IDLE_MS", "1234");
  EnvVar budget("ZH_PENDING_BUDGET", "32");
  {
    Argv argv({"bench"});
    const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
    EXPECT_EQ(flags.listen, "10.0.0.1");
    EXPECT_EQ(flags.port, 8053u);
    EXPECT_EQ(flags.tcp_idle_ms, 1234);
    EXPECT_EQ(flags.pending_budget, 32u);
  }
  {
    // Command-line overrides the environment, as for every other knob.
    Argv argv({"bench", "--listen", "127.0.0.1", "--port", "0"});
    const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
    EXPECT_EQ(flags.listen, "127.0.0.1");
    EXPECT_EQ(flags.port, 0u);
    EXPECT_EQ(flags.tcp_idle_ms, 1234);  // env still supplies the rest
  }
}

TEST(BenchFlags, FrontendPortRejectsOutOfRange) {
  Argv argv({"bench", "--port", "70000", "--pending-budget", "0"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_EQ(flags.port, 0u);             // out-of-range port ignored
  EXPECT_EQ(flags.pending_budget, 512u);  // zero budget would shed everything
}

TEST(BenchFlags, Sha1ImplParsesAndForwardsToWorkers) {
  const bool previous = crypto::sha1_scalar_forced();
  crypto::force_sha1_scalar(false);

  Argv argv({"bench", "--sha1-impl", "scalar"});
  (void)parse_flags(argv.argc(), argv.argv());
  EXPECT_TRUE(crypto::sha1_scalar_forced());

  // Garbage, the retired batch kernel names included, is diagnosed and
  // ignored: the active kernel stays put.
  for (const char* garbage : {"turbo", "ssse3", "avx2"}) {
    for (const bool scalar : {true, false}) {
      crypto::force_sha1_scalar(scalar);
      Argv argv2({"bench", "--sha1-impl", garbage});
      (void)parse_flags(argv2.argc(), argv2.argv());
      EXPECT_EQ(crypto::sha1_scalar_forced(), scalar) << garbage;
    }
  }

  crypto::force_sha1_scalar(previous);
}

TEST(BenchFlags, ChainMemoParsesAndForwardsToWorkers) {
  // --chain-memo sets the process-wide NSEC3 digest memo switch that every
  // campaign worker thread reads: 0 switches the memo off and any other
  // integer on. Garbage is reported on stderr and leaves the switch as it
  // was, in both the `--flag V` and the `--flag=V` form.
  const bool previous = crypto::Nsec3DigestMemo::enabled();
  const auto enabled_on_a_worker = [] {
    bool on = false;
    std::thread([&on] { on = crypto::Nsec3DigestMemo::enabled(); }).join();
    return on;
  };
  for (const bool equals : {false, true}) {
    SCOPED_TRACE(equals ? "--flag=V" : "--flag V");
    const auto parse = [equals](const std::string& value) {
      Argv argv(equals ? std::vector<std::string>{"bench",
                                                  "--chain-memo=" + value}
                       : std::vector<std::string>{"bench", "--chain-memo",
                                                  value});
      (void)parse_flags(argv.argc(), argv.argv());
    };
    for (const bool on : {false, true}) {
      parse(on ? "128" : "0");
      EXPECT_EQ(crypto::Nsec3DigestMemo::enabled(), on);
      EXPECT_EQ(enabled_on_a_worker(), on);
      for (const char* bad : {"banana", "-3", "-4", "12abc", "many"}) {
        ::testing::internal::CaptureStderr();
        parse(bad);
        const std::string diagnostic =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(crypto::Nsec3DigestMemo::enabled(), on) << bad;
        EXPECT_NE(diagnostic.find("--chain-memo"), std::string::npos) << bad;
      }
    }
  }
  crypto::Nsec3DigestMemo::set_enabled(previous);
}

TEST(BenchFlags, AggressiveNsecParsesAndForwardsToWorkers) {
  Argv argv({"bench", "--aggressive-nsec", "on", "--neg-cache-cap", "512",
             "--failure-cache-ttl", "2000"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  ASSERT_TRUE(flags.aggressive_nsec.has_value());
  EXPECT_TRUE(flags.aggressive());
  EXPECT_EQ(flags.neg_cache_cap, 512u);
  EXPECT_EQ(flags.failure_cache_ttl_ms, 2000);

  // The profile hook installs the capability only when the flag is on.
  resolver::ResolverProfile on = resolver::ResolverProfile::cloudflare();
  flags.apply_aggressive(on);
  EXPECT_TRUE(on.aggressive_nsec);
  EXPECT_TRUE(on.failure_caching);
  EXPECT_EQ(on.neg_cache_capacity, 512u);
  EXPECT_EQ(on.failure_cache_ttl.millis(), 2000);

  // "off" (and the default) leave the profile byte-identical — the
  // synth-off golden contract.
  Argv argv2({"bench", "--aggressive-nsec=off"});
  const BenchFlags off = parse_flags(argv2.argc(), argv2.argv());
  ASSERT_TRUE(off.aggressive_nsec.has_value());
  EXPECT_FALSE(off.aggressive());
  resolver::ResolverProfile untouched =
      resolver::ResolverProfile::cloudflare();
  off.apply_aggressive(untouched);
  EXPECT_FALSE(untouched.aggressive_nsec);
  EXPECT_FALSE(untouched.failure_caching);

  Argv argv3({"bench"});
  EXPECT_FALSE(parse_flags(argv3.argc(), argv3.argv()).aggressive());
}

TEST(BenchFlags, AggressiveNsecRejectsGarbage) {
  // Unknown mode: the flag stays unset (off), defaults preserved.
  Argv argv({"bench", "--aggressive-nsec", "maybe", "--neg-cache-cap",
             "banana", "--failure-cache-ttl", "-5"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_FALSE(flags.aggressive_nsec.has_value());
  EXPECT_EQ(flags.neg_cache_cap, 4096u);
  EXPECT_EQ(flags.failure_cache_ttl_ms, 5000);

  // Zero capacity and zero TTL are rejected too (a zero-interval cache or
  // zero-length failure TTL is never what the caller meant).
  Argv argv2({"bench", "--neg-cache-cap=0", "--failure-cache-ttl=0"});
  const BenchFlags zeros = parse_flags(argv2.argc(), argv2.argv());
  EXPECT_EQ(zeros.neg_cache_cap, 4096u);
  EXPECT_EQ(zeros.failure_cache_ttl_ms, 5000);
}

TEST(BenchEnv, AggressiveNsecComesFromEnvironmentAndFlagsWin) {
  EnvVar aggressive("ZH_AGGRESSIVE_NSEC", "on");
  EnvVar cap("ZH_NEG_CACHE_CAP", "64");
  EnvVar ttl("ZH_FAILURE_CACHE_TTL", "1500");
  {
    Argv argv({"bench"});
    const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
    EXPECT_TRUE(flags.aggressive());
    EXPECT_EQ(flags.neg_cache_cap, 64u);
    EXPECT_EQ(flags.failure_cache_ttl_ms, 1500);
  }
  {
    // The command line overrides the environment, knob by knob.
    Argv argv({"bench", "--aggressive-nsec", "off", "--neg-cache-cap=128"});
    const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
    EXPECT_FALSE(flags.aggressive());
    EXPECT_EQ(flags.neg_cache_cap, 128u);
    EXPECT_EQ(flags.failure_cache_ttl_ms, 1500);  // env still supplies this
  }
}

TEST(BenchEnv, AggressiveNsecGarbageEnvironmentStaysOff) {
  EnvVar aggressive("ZH_AGGRESSIVE_NSEC", "sometimes");
  Argv argv({"bench"});
  const BenchFlags flags = parse_flags(argv.argc(), argv.argv());
  EXPECT_FALSE(flags.aggressive_nsec.has_value());
  EXPECT_FALSE(flags.aggressive());
}

}  // namespace
}  // namespace zh::bench
