#include "scanner/serialize.hpp"

#include <algorithm>
#include <map>

namespace zh::scanner {
namespace {

constexpr char kMagic[] = "ZHSA";

using analysis::DecodeErrc;
using analysis::Decoder;
using analysis::Encoder;

void encode_u16_u64_map(Encoder& enc,
                        const std::map<std::uint16_t, std::uint64_t>& map) {
  enc.u64(map.size());
  for (const auto& [key, value] : map) {
    enc.u16(key);
    enc.u64(value);
  }
}

bool decode_u16_u64_map(Decoder& dec,
                        std::map<std::uint16_t, std::uint64_t>& out) {
  std::uint64_t entries = 0;
  if (!dec.u64(entries)) return false;
  bool first = true;
  std::uint16_t previous = 0;
  for (std::uint64_t i = 0; i < entries; ++i) {
    std::uint16_t key = 0;
    std::uint64_t value = 0;
    if (!dec.u16(key) || !dec.u64(value)) return false;
    if (!first && key <= previous)
      return dec.fail(DecodeErrc::kBadValue, "map keys not ascending");
    out[key] = value;
    previous = key;
    first = false;
  }
  return true;
}

void encode_envelope_head(Encoder& enc, ArtefactKind kind,
                          const std::string& tag, const std::string& identity,
                          std::uint32_t shard, std::uint32_t of,
                          std::uint32_t jobs) {
  enc.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  enc.u16(kShardFormatVersion);
  enc.u8(static_cast<std::uint8_t>(kind));
  enc.str(tag);
  enc.str(identity);
  enc.u32(shard);
  enc.u32(of);
  enc.u32(jobs);
}

bool decode_envelope_head(Decoder& dec, ArtefactKind expect_kind,
                          std::string& tag, std::string& identity,
                          std::uint32_t& shard, std::uint32_t& of,
                          std::uint32_t& jobs) {
  if (!dec.magic(kMagic)) return false;
  std::uint16_t version = 0;
  if (!dec.u16(version)) return false;
  if (version != kShardFormatVersion)
    return dec.fail(DecodeErrc::kBadVersion,
                    "artefact version " + std::to_string(version) +
                        ", this build speaks " +
                        std::to_string(kShardFormatVersion));
  std::uint8_t kind = 0;
  if (!dec.u8(kind)) return false;
  if (kind != static_cast<std::uint8_t>(expect_kind))
    return dec.fail(DecodeErrc::kBadValue,
                    "artefact kind " + std::to_string(kind));
  if (!dec.str(tag) || !dec.str(identity) || !dec.u32(shard) ||
      !dec.u32(of) || !dec.u32(jobs))
    return false;
  if (of == 0 || shard >= of)
    return dec.fail(DecodeErrc::kBadValue, "shard id outside 0..of-1");
  if (jobs == 0)
    return dec.fail(DecodeErrc::kBadValue, "zero worker jobs");
  return true;
}

/// Appends the checksum (over everything written so far) and returns the
/// finished buffer.
std::vector<std::uint8_t> seal(Encoder& enc) {
  const std::uint64_t digest = analysis::fnv1a64(enc.data());
  enc.u64(digest);
  return enc.take();
}

/// Verifies the trailing checksum and the consumed-everything invariant.
bool unseal(Decoder& dec, std::span<const std::uint8_t> data) {
  const std::size_t payload_end = dec.position();
  std::uint64_t stored = 0;
  if (!dec.u64(stored)) return false;
  if (!dec.expect_end()) return false;
  if (stored != analysis::fnv1a64(data.subspan(0, payload_end)))
    return dec.fail(DecodeErrc::kChecksum, "artefact payload corrupted");
  return true;
}

}  // namespace

void encode(Encoder& enc, const trace::StageTotals& totals) {
  for (const std::int64_t ns : totals) enc.i64(ns);
}

bool decode(Decoder& dec, trace::StageTotals& out) {
  for (std::size_t i = 0; i < trace::kStageCount; ++i)
    if (!dec.i64(out[i])) return false;
  return true;
}

void encode(Encoder& enc, const CostTally& cost) {
  enc.u64(cost.sha1_blocks);
  enc.u64(cost.sha2_blocks);
  enc.u64(cost.nsec3_hashes);
}

bool decode(Decoder& dec, CostTally& out) {
  return dec.u64(out.sha1_blocks) && dec.u64(out.sha2_blocks) &&
         dec.u64(out.nsec3_hashes);
}

void encode(Encoder& enc, const CompactDomainRecord& record) {
  enc.u32(record.index);
  enc.u8(static_cast<std::uint8_t>(record.classification));
  enc.u16(record.iterations);
  enc.u8(record.salt_len);
  enc.u8(record.opt_out ? 1 : 0);
}

bool decode(Decoder& dec, CompactDomainRecord& out) {
  std::uint8_t classification = 0, opt_out = 0;
  if (!dec.u32(out.index) || !dec.u8(classification) ||
      !dec.u16(out.iterations) || !dec.u8(out.salt_len) || !dec.u8(opt_out))
    return false;
  if (classification >
      static_cast<std::uint8_t>(DomainScanResult::Class::kExcluded))
    return dec.fail(DecodeErrc::kBadValue, "unknown classification");
  if (opt_out > 1)
    return dec.fail(DecodeErrc::kBadValue, "non-boolean opt_out");
  out.classification =
      static_cast<DomainScanResult::Class>(classification);
  out.opt_out = opt_out != 0;
  return true;
}

void encode(Encoder& enc, const std::vector<CompactDomainRecord>& records) {
  enc.u64(records.size());
  for (const auto& record : records) encode(enc, record);
}

bool decode(Decoder& dec, std::vector<CompactDomainRecord>& out) {
  std::uint64_t count = 0;
  if (!dec.u64(count)) return false;
  bool first = true;
  std::uint32_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    CompactDomainRecord record;
    if (!decode(dec, record)) return false;
    // A shard visits domain indexes in ascending order — enforce the
    // canonical shape rather than trusting a length field blindly.
    if (!first && record.index <= previous)
      return dec.fail(DecodeErrc::kBadValue, "record indexes not ascending");
    previous = record.index;
    first = false;
    out.push_back(record);
  }
  return true;
}

void encode(Encoder& enc, const DomainCampaignStats& stats) {
  enc.u64(stats.scanned);
  enc.u64(stats.dnssec);
  enc.u64(stats.nsec3);
  enc.u64(stats.excluded);
  encode(enc, stats.iterations);
  encode(enc, stats.salt_len);
  enc.u64(stats.zero_iterations);
  enc.u64(stats.no_salt);
  enc.u64(stats.fully_compliant);
  enc.u64(stats.opt_out);
  enc.u64(stats.over_150_iterations);
  enc.u64(stats.at_500_iterations);
  enc.u64(stats.salt_over_10);
  enc.u64(stats.salt_over_45);
  enc.u64(stats.salt_at_160);
  encode(enc, stats.operators);
  enc.u64(stats.operator_params.size());
  for (const auto& [op, params] : stats.operator_params) {
    enc.str(op);
    encode(enc, params);
  }
  encode(enc, stats.scan_latency_us);
  enc.u64(stats.timeouts);
  encode(enc, stats.queue_delay_us);
  enc.u64(stats.queue_drops);
  encode(enc, stats.stage_resolve_us);
  encode(enc, stats.stage_recurse_us);
  encode(enc, stats.stage_validate_us);
  encode(enc, stats.stage_queue_wait_us);
  enc.u64(stats.neg_synth_hits);
  enc.u64(stats.failure_cache_hits);
}

bool decode(Decoder& dec, DomainCampaignStats& out) {
  if (!dec.u64(out.scanned) || !dec.u64(out.dnssec) || !dec.u64(out.nsec3) ||
      !dec.u64(out.excluded))
    return false;
  if (!decode(dec, out.iterations) || !decode(dec, out.salt_len))
    return false;
  if (!dec.u64(out.zero_iterations) || !dec.u64(out.no_salt) ||
      !dec.u64(out.fully_compliant) || !dec.u64(out.opt_out) ||
      !dec.u64(out.over_150_iterations) || !dec.u64(out.at_500_iterations) ||
      !dec.u64(out.salt_over_10) || !dec.u64(out.salt_over_45) ||
      !dec.u64(out.salt_at_160))
    return false;
  if (!decode(dec, out.operators)) return false;
  std::uint64_t operators = 0;
  if (!dec.u64(operators)) return false;
  bool first = true;
  std::string previous;
  for (std::uint64_t i = 0; i < operators; ++i) {
    std::string op;
    if (!dec.str(op)) return false;
    if (!first && op <= previous)
      return dec.fail(DecodeErrc::kBadValue,
                      "operator_params keys not ascending");
    if (!decode(dec, out.operator_params[op])) return false;
    previous = std::move(op);
    first = false;
  }
  if (!decode(dec, out.scan_latency_us)) return false;
  if (!dec.u64(out.timeouts)) return false;
  if (!decode(dec, out.queue_delay_us)) return false;
  if (!dec.u64(out.queue_drops)) return false;
  return decode(dec, out.stage_resolve_us) &&
         decode(dec, out.stage_recurse_us) &&
         decode(dec, out.stage_validate_us) &&
         decode(dec, out.stage_queue_wait_us) &&
         dec.u64(out.neg_synth_hits) && dec.u64(out.failure_cache_hits);
}

void encode(Encoder& enc, const ResolverSweepStats& stats) {
  enc.u64(stats.probed);
  enc.u64(stats.validators);
  enc.u64(stats.by_iteration.size());
  for (const auto& [iterations, shares] : stats.by_iteration) {
    enc.u16(iterations);
    enc.u64(shares.nxdomain);
    enc.u64(shares.nxdomain_ad);
    enc.u64(shares.servfail);
    enc.u64(shares.timeouts);
    enc.u64(shares.total);
  }
  enc.u64(stats.item6);
  enc.u64(stats.item8);
  enc.u64(stats.item7_violations);
  enc.u64(stats.item12_gaps);
  enc.u64(stats.ede_on_limit);
  encode_u16_u64_map(enc, stats.insecure_limits);
  encode_u16_u64_map(enc, stats.servfail_limits);
  encode(enc, stats.probe_latency_us);
  enc.u64(stats.timeouts);
  encode(enc, stats.queue_delay_us);
  enc.u64(stats.queue_drops);
  enc.u64(stats.stop_answering);
  encode(enc, stats.stage_resolve_us);
  encode(enc, stats.stage_recurse_us);
  encode(enc, stats.stage_validate_us);
  encode(enc, stats.stage_queue_wait_us);
  enc.u64(stats.neg_synth_hits);
  enc.u64(stats.failure_cache_hits);
}

bool decode(Decoder& dec, ResolverSweepStats& out) {
  if (!dec.u64(out.probed) || !dec.u64(out.validators)) return false;
  std::uint64_t series = 0;
  if (!dec.u64(series)) return false;
  bool first = true;
  std::uint16_t previous = 0;
  for (std::uint64_t i = 0; i < series; ++i) {
    std::uint16_t iterations = 0;
    if (!dec.u16(iterations)) return false;
    if (!first && iterations <= previous)
      return dec.fail(DecodeErrc::kBadValue,
                      "by_iteration keys not ascending");
    ResolverSweepStats::RcodeShares& shares = out.by_iteration[iterations];
    if (!dec.u64(shares.nxdomain) || !dec.u64(shares.nxdomain_ad) ||
        !dec.u64(shares.servfail) || !dec.u64(shares.timeouts) ||
        !dec.u64(shares.total))
      return false;
    previous = iterations;
    first = false;
  }
  if (!dec.u64(out.item6) || !dec.u64(out.item8) ||
      !dec.u64(out.item7_violations) || !dec.u64(out.item12_gaps) ||
      !dec.u64(out.ede_on_limit))
    return false;
  if (!decode_u16_u64_map(dec, out.insecure_limits) ||
      !decode_u16_u64_map(dec, out.servfail_limits))
    return false;
  if (!decode(dec, out.probe_latency_us)) return false;
  if (!dec.u64(out.timeouts)) return false;
  if (!decode(dec, out.queue_delay_us)) return false;
  if (!dec.u64(out.queue_drops) || !dec.u64(out.stop_answering)) return false;
  return decode(dec, out.stage_resolve_us) &&
         decode(dec, out.stage_recurse_us) &&
         decode(dec, out.stage_validate_us) &&
         decode(dec, out.stage_queue_wait_us) &&
         dec.u64(out.neg_synth_hits) && dec.u64(out.failure_cache_hits);
}

std::vector<std::uint8_t> encode_artefact(const DomainShardArtefact& artefact) {
  Encoder enc;
  encode_envelope_head(enc, ArtefactKind::kDomainCampaign, artefact.tag,
                       artefact.identity, artefact.shard, artefact.of,
                       artefact.jobs);
  encode(enc, artefact.stats);
  encode(enc, artefact.records);
  enc.u64(artefact.queries_issued);
  encode(enc, artefact.cost);
  return seal(enc);
}

std::vector<std::uint8_t> encode_artefact(const SweepShardArtefact& artefact) {
  Encoder enc;
  encode_envelope_head(enc, ArtefactKind::kResolverSweep, artefact.tag,
                       artefact.identity, artefact.shard, artefact.of,
                       artefact.jobs);
  encode(enc, artefact.stats);
  enc.u64(artefact.queries_issued);
  enc.u64(artefact.population);
  encode(enc, artefact.cost);
  return seal(enc);
}

bool decode_artefact(std::span<const std::uint8_t> data,
                     DomainShardArtefact& out, analysis::DecodeError& error) {
  Decoder dec(data);
  const bool ok =
      decode_envelope_head(dec, ArtefactKind::kDomainCampaign, out.tag,
                           out.identity, out.shard, out.of, out.jobs) &&
      decode(dec, out.stats) && decode(dec, out.records) &&
      dec.u64(out.queries_issued) && decode(dec, out.cost) &&
      unseal(dec, data);
  if (!ok) error = dec.error();
  return ok;
}

bool decode_artefact(std::span<const std::uint8_t> data,
                     SweepShardArtefact& out, analysis::DecodeError& error) {
  Decoder dec(data);
  std::uint64_t population = 0;
  const bool ok =
      decode_envelope_head(dec, ArtefactKind::kResolverSweep, out.tag,
                           out.identity, out.shard, out.of, out.jobs) &&
      decode(dec, out.stats) && dec.u64(out.queries_issued) &&
      dec.u64(population) && decode(dec, out.cost) && unseal(dec, data);
  if (!ok) {
    error = dec.error();
    return false;
  }
  out.population = static_cast<std::size_t>(population);
  return true;
}

bool peek_artefact(std::span<const std::uint8_t> data, ArtefactKind& kind,
                   std::string& tag, analysis::DecodeError& error) {
  Decoder dec(data);
  if (!dec.magic(kMagic)) {
    error = dec.error();
    return false;
  }
  std::uint16_t version = 0;
  std::uint8_t raw_kind = 0;
  if (!dec.u16(version) || !dec.u8(raw_kind)) {
    error = dec.error();
    return false;
  }
  if (version != kShardFormatVersion) {
    error = {DecodeErrc::kBadVersion,
             "artefact version " + std::to_string(version)};
    return false;
  }
  if (!dec.str(tag)) {
    error = dec.error();
    return false;
  }
  if (raw_kind != static_cast<std::uint8_t>(ArtefactKind::kDomainCampaign) &&
      raw_kind != static_cast<std::uint8_t>(ArtefactKind::kResolverSweep)) {
    error = {DecodeErrc::kBadValue, "unknown artefact kind"};
    return false;
  }
  kind = static_cast<ArtefactKind>(raw_kind);
  return true;
}

namespace {

/// Loads + decodes one artefact file as kind T; returns 1 on tag/kind
/// mismatch ("skip"), 0 on success, -1 on failure (error set).
template <typename Artefact>
int load_artefact(const std::string& path, ArtefactKind want_kind,
                  const std::string& tag, Artefact& out, std::string& error) {
  const auto bytes = analysis::read_bytes_file(path);
  if (!bytes) {
    error = path + ": cannot read";
    return -1;
  }
  ArtefactKind kind;
  std::string file_tag;
  analysis::DecodeError decode_error;
  if (!peek_artefact(*bytes, kind, file_tag, decode_error)) {
    error = path + ": " + decode_error.to_string();
    return -1;
  }
  if (kind != want_kind || file_tag != tag) return 1;
  if (!decode_artefact(*bytes, out, decode_error)) {
    error = path + ": " + decode_error.to_string();
    return -1;
  }
  return 0;
}

/// Collects the matching artefacts into a complete, consistent shard set
/// keyed by shard id (every shard 0..of-1 exactly once, same of/jobs, and
/// every identity equal to the merging run's `identity`).
template <typename Artefact>
bool collect_shards(const std::vector<std::string>& paths,
                    ArtefactKind want_kind, const std::string& tag,
                    const std::string& identity,
                    std::map<std::uint32_t, Artefact>& out,
                    std::string& error) {
  std::uint32_t of = 0, jobs = 0;
  for (const auto& path : paths) {
    Artefact artefact;
    const int status =
        load_artefact(path, want_kind, tag, artefact, error);
    if (status < 0) return false;
    if (status > 0) continue;  // foreign tag/kind — another call's shard
    if (artefact.identity != identity) {
      error = path + ": shard emitted under configuration '" +
              artefact.identity + "', this merge runs under '" + identity +
              "'";
      return false;
    }
    if (out.empty()) {
      of = artefact.of;
      jobs = artefact.jobs;
    } else if (artefact.of != of || artefact.jobs != jobs) {
      error = path + ": inconsistent shard set (of=" +
              std::to_string(artefact.of) + "/" + std::to_string(artefact.jobs)
              + " jobs, expected " + std::to_string(of) + "/" +
              std::to_string(jobs) + ")";
      return false;
    }
    if (!out.emplace(artefact.shard, std::move(artefact)).second) {
      error = path + ": duplicate shard " + std::to_string(artefact.shard);
      return false;
    }
  }
  if (out.empty()) {
    error = "no shard artefact matches tag '" + tag + "'";
    return false;
  }
  if (out.size() != of) {
    error = "incomplete shard set for tag '" + tag + "': " +
            std::to_string(out.size()) + " of " + std::to_string(of);
    return false;
  }
  return true;
}

}  // namespace

bool merge_domain_shards(const std::vector<std::string>& paths,
                         const std::string& tag, const std::string& identity,
                         ParallelCampaignResult& out, std::string& error) {
  std::map<std::uint32_t, DomainShardArtefact> shards;
  if (!collect_shards(paths, ArtefactKind::kDomainCampaign, tag, identity,
                      shards, error))
    return false;
  out = {};
  for (auto& [shard, artefact] : shards) {
    out.stats.merge(artefact.stats);
    out.records.insert(out.records.end(), artefact.records.begin(),
                       artefact.records.end());
    out.queries_issued += artefact.queries_issued;
    accumulate(out.cost, artefact.cost);
    out.jobs = artefact.of * artefact.jobs;
  }
  // Shards interleave by position, exactly as the thread engine's do.
  std::sort(out.records.begin(), out.records.end(),
            [](const CompactDomainRecord& a, const CompactDomainRecord& b) {
              return a.index < b.index;
            });
  credit_caller(out.cost);
  return true;
}

bool merge_sweep_shards(const std::vector<std::string>& paths,
                        const std::string& tag, const std::string& identity,
                        ParallelSweepResult& out, std::string& error) {
  std::map<std::uint32_t, SweepShardArtefact> shards;
  if (!collect_shards(paths, ArtefactKind::kResolverSweep, tag, identity,
                      shards, error))
    return false;
  out = {};
  for (auto& [shard, artefact] : shards) {
    out.stats.merge(artefact.stats);
    out.queries_issued += artefact.queries_issued;
    out.population += artefact.population;
    accumulate(out.cost, artefact.cost);
    out.jobs = artefact.of * artefact.jobs;
  }
  credit_caller(out.cost);
  return true;
}

}  // namespace zh::scanner
