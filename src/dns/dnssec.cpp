#include "dns/dnssec.hpp"

#include <algorithm>
#include <array>

#include "crypto/nsec3_hash.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha2.hpp"
#include "dns/encoding.hpp"
#include "dns/io.hpp"

namespace zh::dns {

bool canonical_rdata_less(const RdataBytes& a, const RdataBytes& b) noexcept {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

void build_signed_data(const RrsigRdata& presig, const RrSet& rrset,
                       const Name& owner, std::vector<std::uint8_t>& out) {
  out.clear();
  presig.append_presignature(out);

  // Canonical order over pointers, so no rdata is copied; typical RRsets
  // sort on the stack. Duplicate rdatas are not allowed in an RRset (RFC
  // 2181 §5), so each distinct one is signed once.
  std::array<const RdataBytes*, 16> stack_order;
  std::vector<const RdataBytes*> heap_order;
  const std::size_t count = rrset.rdatas.size();
  const RdataBytes** order = stack_order.data();
  if (count > stack_order.size()) {
    heap_order.resize(count);
    order = heap_order.data();
  }
  for (std::size_t i = 0; i < count; ++i) order[i] = &rrset.rdatas[i];
  std::sort(order, order + count,
            [](const RdataBytes* a, const RdataBytes* b) {
              return canonical_rdata_less(*a, *b);
            });
  const RdataBytes** const end =
      std::unique(order, order + count,
                  [](const RdataBytes* a, const RdataBytes* b) {
                    return *a == *b;
                  });

  std::array<std::uint8_t, Name::kMaxWireLength> owner_wire{};
  const std::span<const std::uint8_t> owner_span(
      owner_wire.data(), owner.write_canonical_wire(owner_wire));
  ByteWriter w(std::move(out));
  for (const RdataBytes* rdata : std::span(order, end)) {
    w.bytes(owner_span);
    w.u16(static_cast<std::uint16_t>(rrset.type));
    w.u16(static_cast<std::uint16_t>(rrset.klass));
    w.u32(presig.original_ttl);
    w.u16(static_cast<std::uint16_t>(rdata->size()));
    w.bytes(*rdata);
  }
  out = w.take();
}

DsRdata make_ds(const Name& owner, const DnskeyRdata& key,
                std::uint8_t digest_type) {
  DsRdata ds;
  ds.key_tag = key.key_tag();
  ds.algorithm = key.algorithm;
  ds.digest_type = digest_type;

  ByteWriter w;
  w.bytes(owner.to_canonical_wire());
  w.bytes(key.encode());
  const auto& data = w.data();
  const std::span<const std::uint8_t> span(data.data(), data.size());

  if (digest_type == DsRdata::kDigestSha1) {
    const auto digest = crypto::Sha1::hash(span);
    ds.digest.assign(digest.begin(), digest.end());
  } else {
    const auto digest = crypto::Sha256::hash(span);
    ds.digest.assign(digest.begin(), digest.end());
  }
  return ds;
}

bool ds_matches_key(const DsRdata& ds, const Name& owner,
                    const DnskeyRdata& key) {
  if (ds.key_tag != key.key_tag() || ds.algorithm != key.algorithm)
    return false;
  const DsRdata expected = make_ds(owner, key, ds.digest_type);
  return expected.digest == ds.digest;
}

crypto::Nsec3Digest nsec3_hash_name(const Name& name,
                                    std::span<const std::uint8_t> salt,
                                    std::uint16_t iterations) noexcept {
  std::array<std::uint8_t, Name::kMaxWireLength> wire{};
  const std::size_t length = name.write_canonical_wire(wire);
  return crypto::nsec3_hash(
      std::span<const std::uint8_t>(wire.data(), length), salt, iterations);
}

Name nsec3_owner_name(const Name& name, const Name& zone,
                      std::span<const std::uint8_t> salt,
                      std::uint16_t iterations) {
  const std::string label =
      base32hex_encode(nsec3_hash_name(name, salt, iterations));
  const auto owner = zone.prepended(label);
  // A 32-char label always fits unless the zone name is near the limit,
  // which the workload generator never produces.
  return owner ? *owner : zone;
}

std::optional<std::vector<std::uint8_t>> nsec3_owner_hash(const Name& owner,
                                                          const Name& zone) {
  if (!owner.is_subdomain_of(zone) ||
      owner.label_count() != zone.label_count() + 1)
    return std::nullopt;
  return base32hex_decode(owner.label(0));
}

std::uint8_t rrsig_label_count(const Name& owner) noexcept {
  std::size_t count = owner.label_count();
  if (owner.is_wildcard() && count > 0) --count;
  return static_cast<std::uint8_t>(count);
}

bool nsec3_covers(std::span<const std::uint8_t> owner_hash,
                  std::span<const std::uint8_t> next_hash,
                  std::span<const std::uint8_t> hash) noexcept {
  const auto less = [](std::span<const std::uint8_t> a,
                       std::span<const std::uint8_t> b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  };
  const auto equal = [](std::span<const std::uint8_t> a,
                        std::span<const std::uint8_t> b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  };

  if (equal(owner_hash, hash) || equal(next_hash, hash)) return false;
  if (less(owner_hash, next_hash)) {
    // Normal interval.
    return less(owner_hash, hash) && less(hash, next_hash);
  }
  if (equal(owner_hash, next_hash)) {
    // Single-record chain covers everything except itself.
    return true;
  }
  // Wrap-around interval (last NSEC3 points back to the first).
  return less(owner_hash, hash) || less(hash, next_hash);
}

}  // namespace zh::dns
