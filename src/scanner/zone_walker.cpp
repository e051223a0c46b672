#include "scanner/zone_walker.hpp"

#include <algorithm>
#include <set>

#include "crypto/cost_meter.hpp"
#include "dns/dnssec.hpp"

namespace zh::scanner {
namespace {

using dns::Message;
using dns::Name;
using dns::RrType;

/// Sends one CD query and returns the response.
std::optional<Message> ask(simnet::Network& network,
                           const simnet::IpAddress& source,
                           const simnet::IpAddress& resolver,
                           std::uint16_t id, const Name& qname, RrType type) {
  Message query = Message::make_query(id, qname, type, /*dnssec_ok=*/true);
  query.header.cd = true;  // attackers do not care about validation
  return network.send(source, resolver, query);
}

/// The name that sorts canonically *just after* `name`: append a label of
/// a single 0x00-ish byte ("\000" is awkward in labels, "-" sorts early
/// enough for our ASCII label universe).
Name just_after(const Name& name) {
  const auto child = name.prepended("-");
  return child ? *child : name;
}

}  // namespace

NsecWalker::NsecWalker(simnet::Network& network, simnet::IpAddress source,
                       simnet::IpAddress resolver)
    : network_(network), source_(source), resolver_(resolver) {}

NsecWalkResult NsecWalker::walk(const Name& zone, std::size_t max_steps) {
  NsecWalkResult result;
  std::set<std::string> seen;

  Name cursor = zone;
  for (std::size_t step = 0; step < max_steps; ++step) {
    // Query a name just past the cursor: the denial (or the NSEC at the
    // cursor itself) reveals the next existing name.
    const auto response = ask(network_, source_, resolver_, next_id_++,
                              just_after(cursor), RrType::kA);
    ++result.queries;
    if (!response) return result;

    // Find the NSEC whose owner is the cursor (or covering it).
    const Name* next = nullptr;
    dns::NsecRdata nsec;
    for (const auto& rr : response->authorities) {
      if (rr.type != RrType::kNsec) continue;
      const auto rdata = rr.as<dns::NsecRdata>();
      if (!rdata) continue;
      nsec = *rdata;
      next = &nsec.next_domain;
      // Prefer the record owned by our cursor (covering proof).
      if (rr.name.equals(cursor)) break;
    }
    if (!next) return result;

    const std::string key = next->canonical().to_string();
    if (!seen.insert(key).second) {
      // Chain closed (wrapped back to a name we already saw).
      result.complete = next->equals(zone) || !result.names.empty();
      return result;
    }
    result.names.push_back(*next);
    if (next->equals(zone)) {
      result.complete = true;  // wrapped to the apex
      return result;
    }
    cursor = *next;
  }
  return result;
}

Nsec3DictionaryAttack::Nsec3DictionaryAttack(simnet::Network& network,
                                             simnet::IpAddress source,
                                             simnet::IpAddress resolver)
    : network_(network), source_(source), resolver_(resolver) {}

std::vector<std::string> Nsec3DictionaryAttack::default_dictionary() {
  return {"www",   "mail",  "api",    "ftp",   "ns1",   "ns2",
          "smtp",  "imap",  "pop",    "web",   "dev",   "staging",
          "test",  "vpn",   "cdn",    "blog",  "shop",  "admin",
          "portal","app",   "m",      "wc",    "host",  "git",
          "db",    "mx",    "ns",     "docs",  "news",  "static"};
}

Nsec3AttackResult Nsec3DictionaryAttack::run(
    const Name& zone, const std::vector<std::string>& dictionary,
    std::size_t harvest_queries) {
  Nsec3AttackResult result;

  // Phase 1 — online: harvest NSEC3 chain links from denial responses.
  // Each NXDOMAIN leaks up to three (owner_hash, next_hash) links.
  std::set<std::vector<std::uint8_t>> hashes;
  bool have_params = false;
  for (std::size_t i = 0; i < harvest_queries; ++i) {
    const auto probe =
        zone.prepended("crack-" + std::to_string(token_++) + "x");
    if (!probe) break;
    const auto response = ask(network_, source_, resolver_, next_id_++,
                              *probe, RrType::kA);
    ++result.online_queries;
    if (!response) continue;
    for (const auto& rr : response->authorities) {
      if (rr.type != RrType::kNsec3) continue;
      const auto rdata = rr.as<dns::Nsec3Rdata>();
      const auto owner_hash = dns::nsec3_owner_hash(rr.name, zone);
      if (!rdata || !owner_hash) continue;
      if (!have_params) {
        result.iterations = rdata->iterations;
        result.salt = rdata->salt;
        have_params = true;
      }
      hashes.insert(*owner_hash);
      hashes.insert(rdata->next_hash);
    }
  }
  result.chain_hashes = hashes.size();
  if (!have_params) return result;

  // Phase 2 — offline: hash dictionary guesses and match against the chain.
  // This is where the attacker pays the per-guess iteration cost — the same
  // cost the zone imposes on every validator, which is why RFC 9276 judges
  // it a bad trade.
  const std::uint64_t blocks_before = crypto::CostMeter::sha1_blocks();
  const auto try_guess = [&](const Name& guess) {
    ++result.offline_hashes;
    const auto digest =
        dns::nsec3_hash_name(guess, result.salt, result.iterations);
    std::vector<std::uint8_t> hash(digest.begin(), digest.end());
    if (hashes.count(hash) > 0) {
      result.cracked.push_back(CrackedName{guess, std::move(hash)});
    }
  };
  try_guess(zone);  // the apex itself is always in the chain
  for (const auto& label : dictionary) {
    const auto guess = zone.prepended(label);
    if (guess) try_guess(*guess);
    // Two-level guesses for wildcard-style layouts (e.g. *.wc.<zone>).
    if (guess) {
      const auto deep = guess->prepended("*");
      if (deep) try_guess(*deep);
    }
  }
  result.offline_sha1_blocks =
      crypto::CostMeter::sha1_blocks() - blocks_before;
  return result;
}

}  // namespace zh::scanner
