// Shard artefacts: the multi-host seam of the campaign engine.
//
// One box scales with threads (scanner/parallel.hpp, `--jobs`). Past one
// box, each host runs sub-shard s of K (`--shard s --of K --emit-shard
// BASE` on the campaign benches) and writes its aggregates to a file; any
// host then merges the files (`--merge-shards FILE...`) through the same
// merge algebra the in-process engine uses, so
//
//     serial run ≡ --jobs K in-process ≡ K emitted shards, merged,
//
// byte-identical stats, records and query counts. This header defines the
// canonical byte layout of everything a shard must ship — campaign/sweep
// statistics, per-domain records, the hash-work tally — the versioned,
// checksummed artefact envelope, and the merge of a shard set.
//
// Format (all integers little-endian, see analysis/serialize.hpp):
//
//   magic "ZHSA" | u16 version | u8 kind (1 = domain, 2 = sweep)
//   | tag string | identity string | u32 shard | u32 of | u32 jobs | payload
//   | u64 FNV-1a checksum of every preceding byte
//
// The tag names the campaign within a bench run (benches issue several —
// e.g. one sweep per Figure 3 panel), so --merge-shards can be handed a
// mixed pile of files and pick the right ones. The identity names every
// setting that changes the campaign's output (seed, scales, link and
// cache knobs), so a merge refuses shards emitted under another
// configuration than its own. Decoding is strict: any
// truncation, bit flip, version bump or foreign magic yields a typed
// analysis::DecodeError; nothing is ever read out of bounds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/serialize.hpp"
#include "scanner/campaign.hpp"
#include "scanner/parallel.hpp"
#include "trace/trace.hpp"

namespace zh::scanner {

/// Bumped whenever the byte layout changes; decoders reject other values.
/// v2: RFC 8198/9520 counters appended to both campaign stats payloads.
/// v3: the emitting run's configuration identity follows the tag.
inline constexpr std::uint16_t kShardFormatVersion = 3;

enum class ArtefactKind : std::uint8_t {
  kDomainCampaign = 1,
  kResolverSweep = 2,
};

/// Everything one sub-shard run contributes to a domain campaign.
struct DomainShardArtefact {
  std::string tag;
  /// The emitting run's configuration (see the format comment above).
  std::string identity;
  std::uint32_t shard = 0;
  std::uint32_t of = 1;
  /// Worker threads *inside* the sub-shard run (the artefact covers
  /// residues shard, shard+of, ... of the of×jobs-way global partition).
  std::uint32_t jobs = 1;
  DomainCampaignStats stats;
  std::vector<CompactDomainRecord> records;
  std::uint64_t queries_issued = 0;
  CostTally cost;
};

/// Everything one sub-shard run contributes to a resolver sweep.
struct SweepShardArtefact {
  std::string tag;
  /// The emitting run's configuration (see the format comment above).
  std::string identity;
  std::uint32_t shard = 0;
  std::uint32_t of = 1;
  std::uint32_t jobs = 1;
  ResolverSweepStats stats;
  std::uint64_t queries_issued = 0;
  std::size_t population = 0;
  CostTally cost;
};

// Per-type codecs (composable; the envelope functions below use them).
void encode(analysis::Encoder& enc, const trace::StageTotals& totals);
bool decode(analysis::Decoder& dec, trace::StageTotals& out);
void encode(analysis::Encoder& enc, const CostTally& cost);
bool decode(analysis::Decoder& dec, CostTally& out);
void encode(analysis::Encoder& enc, const CompactDomainRecord& record);
bool decode(analysis::Decoder& dec, CompactDomainRecord& out);
void encode(analysis::Encoder& enc,
            const std::vector<CompactDomainRecord>& records);
bool decode(analysis::Decoder& dec, std::vector<CompactDomainRecord>& out);
void encode(analysis::Encoder& enc, const DomainCampaignStats& stats);
bool decode(analysis::Decoder& dec, DomainCampaignStats& out);
void encode(analysis::Encoder& enc, const ResolverSweepStats& stats);
bool decode(analysis::Decoder& dec, ResolverSweepStats& out);

/// Serialises a whole artefact (envelope + payload + checksum).
std::vector<std::uint8_t> encode_artefact(const DomainShardArtefact& artefact);
std::vector<std::uint8_t> encode_artefact(const SweepShardArtefact& artefact);

/// Strict full-buffer decode; false ⇒ `error` holds the typed reason and
/// `out` must not be used.
bool decode_artefact(std::span<const std::uint8_t> data,
                     DomainShardArtefact& out, analysis::DecodeError& error);
bool decode_artefact(std::span<const std::uint8_t> data,
                     SweepShardArtefact& out, analysis::DecodeError& error);

/// Reads just the envelope head — enough to route a file to the right
/// decoder. false ⇒ not a (readable) shard artefact.
bool peek_artefact(std::span<const std::uint8_t> data, ArtefactKind& kind,
                   std::string& tag, analysis::DecodeError& error);

/// Decodes the artefact files and merges every shard whose tag matches
/// `tag` into one campaign result (stats/records/queries/cost summed
/// through the merge algebra, records re-sorted into serial order, shard
/// hash work credited to the calling thread's CostMeter, jobs = of ×
/// per-shard jobs). Requires a complete, consistent shard set for the
/// tag: every shard 0..of-1 exactly once, all agreeing on `of` and on
/// `identity`, the merging run's configuration identity. Files
/// with foreign tags are skipped, so a mixed pile (e.g. all four Figure 3
/// panels) can be handed to every merge call. False + `error` on any
/// read, decode or consistency failure.
bool merge_domain_shards(const std::vector<std::string>& paths,
                         const std::string& tag, const std::string& identity,
                         ParallelCampaignResult& out, std::string& error);
bool merge_sweep_shards(const std::vector<std::string>& paths,
                        const std::string& tag, const std::string& identity,
                        ParallelSweepResult& out, std::string& error);

}  // namespace zh::scanner
