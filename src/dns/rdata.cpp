#include "dns/rdata.hpp"

#include <algorithm>
#include <cstdio>

#include "dns/io.hpp"

namespace zh::dns {
namespace {

/// Uncompressed wire form, case preserved: the name's stored bytes.
void write_name(ByteWriter& w, const Name& name) { w.bytes(name.wire()); }

/// Reads an *uncompressed* wire name (rdata context; compression pointers
/// are normalised away before rdata is stored).
std::optional<Name> read_name(ByteReader& r) {
  const std::span<const std::uint8_t> rest =
      r.whole().subspan(r.position());
  std::size_t length = 0;  // octets up to and including the root octet
  while (length < rest.size() && length < Name::kMaxWireLength) {
    const std::uint8_t label = rest[length++];
    if (label == 0) return Name::from_wire(*r.view(length));
    if (label > Name::kMaxLabelLength) return std::nullopt;  // no pointers
    length += label;
  }
  return std::nullopt;
}

}  // namespace

RdataBytes ARdata::encode() const {
  return RdataBytes(address.begin(), address.end());
}

std::optional<ARdata> ARdata::decode(std::span<const std::uint8_t> rdata) {
  if (rdata.size() != 4) return std::nullopt;
  ARdata out;
  std::copy(rdata.begin(), rdata.end(), out.address.begin());
  return out;
}

std::string ARdata::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", address[0], address[1],
                address[2], address[3]);
  return buf;
}

RdataBytes AaaaRdata::encode() const {
  return RdataBytes(address.begin(), address.end());
}

std::optional<AaaaRdata> AaaaRdata::decode(
    std::span<const std::uint8_t> rdata) {
  if (rdata.size() != 16) return std::nullopt;
  AaaaRdata out;
  std::copy(rdata.begin(), rdata.end(), out.address.begin());
  return out;
}

std::string AaaaRdata::to_string() const {
  std::string out;
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    const std::uint16_t group = static_cast<std::uint16_t>(
        (address[static_cast<std::size_t>(2 * i)] << 8) |
        address[static_cast<std::size_t>(2 * i + 1)]);
    std::snprintf(buf, sizeof buf, "%x", group);
    if (i) out += ':';
    out += buf;
  }
  return out;
}

RdataBytes NsRdata::encode() const { return nsdname.to_wire(); }

std::optional<NsRdata> NsRdata::decode(std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  auto name = read_name(r);
  if (!name || !r.at_end()) return std::nullopt;
  return NsRdata{*std::move(name)};
}

RdataBytes CnameRdata::encode() const { return target.to_wire(); }

std::optional<CnameRdata> CnameRdata::decode(
    std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  auto name = read_name(r);
  if (!name || !r.at_end()) return std::nullopt;
  return CnameRdata{*std::move(name)};
}

RdataBytes MxRdata::encode() const {
  ByteWriter w;
  w.reserve(2 + exchange.wire_length());
  w.u16(preference);
  write_name(w, exchange);
  return w.take();
}

std::optional<MxRdata> MxRdata::decode(std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  const auto pref = r.u16();
  if (!pref) return std::nullopt;
  auto name = read_name(r);
  if (!name || !r.at_end()) return std::nullopt;
  return MxRdata{*pref, *std::move(name)};
}

RdataBytes TxtRdata::encode() const {
  ByteWriter w;
  std::size_t length = 0;
  for (const auto& s : strings)
    length += 1 + std::min<std::size_t>(s.size(), 255);
  w.reserve(length);
  for (const auto& s : strings) {
    const std::size_t len = std::min<std::size_t>(s.size(), 255);
    w.u8(static_cast<std::uint8_t>(len));
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), len));
  }
  return w.take();
}

std::optional<TxtRdata> TxtRdata::decode(std::span<const std::uint8_t> rdata) {
  TxtRdata out;
  ByteReader r(rdata);
  while (!r.at_end()) {
    const auto len = r.u8();
    if (!len) return std::nullopt;
    const auto bytes = r.view(*len);
    if (!bytes) return std::nullopt;
    out.strings.emplace_back(reinterpret_cast<const char*>(bytes->data()),
                             bytes->size());
  }
  return out;
}

RdataBytes SoaRdata::encode() const {
  ByteWriter w;
  w.reserve(mname.wire_length() + rname.wire_length() + 20);
  write_name(w, mname);
  write_name(w, rname);
  w.u32(serial);
  w.u32(refresh);
  w.u32(retry);
  w.u32(expire);
  w.u32(minimum);
  return w.take();
}

std::optional<SoaRdata> SoaRdata::decode(std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  auto mname = read_name(r);
  if (!mname) return std::nullopt;
  auto rname = read_name(r);
  if (!rname) return std::nullopt;
  SoaRdata out;
  out.mname = *std::move(mname);
  out.rname = *std::move(rname);
  const auto serial = r.u32(), refresh = r.u32(), retry = r.u32(),
             expire = r.u32(), minimum = r.u32();
  if (!serial || !refresh || !retry || !expire || !minimum || !r.at_end())
    return std::nullopt;
  out.serial = *serial;
  out.refresh = *refresh;
  out.retry = *retry;
  out.expire = *expire;
  out.minimum = *minimum;
  return out;
}

std::uint16_t DnskeyRdata::key_tag() const noexcept {
  // RFC 4034 Appendix B: ones-complement-style checksum over the rdata,
  // even octets high. The wire is flags (octets 0-1), protocol (2, even),
  // algorithm (3, odd), then the key from octet 4, so each key octet keeps
  // the parity of its index in public_key.
  std::uint32_t acc =
      flags + (std::uint32_t{protocol} << 8) + std::uint32_t{algorithm};
  for (std::size_t i = 0; i < public_key.size(); ++i)
    acc += (i & 1) ? public_key[i] : (std::uint32_t{public_key[i]} << 8);
  acc += (acc >> 16) & 0xffff;
  return static_cast<std::uint16_t>(acc & 0xffff);
}

RdataBytes DnskeyRdata::encode() const {
  ByteWriter w;
  w.reserve(4 + public_key.size());
  w.u16(flags);
  w.u8(protocol);
  w.u8(algorithm);
  w.bytes(public_key);
  return w.take();
}

std::optional<DnskeyRdata> DnskeyRdata::decode(
    std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  const auto flags = r.u16();
  const auto protocol = r.u8();
  const auto algorithm = r.u8();
  if (!flags || !protocol || !algorithm) return std::nullopt;
  DnskeyRdata out;
  out.flags = *flags;
  out.protocol = *protocol;
  out.algorithm = *algorithm;
  const auto key = r.bytes(r.remaining());
  out.public_key = *key;
  return out;
}

RdataBytes RrsigRdata::encode() const {
  RdataBytes out;
  out.reserve(18 + signer.wire_length() + signature.size());
  append_presignature(out);
  out.insert(out.end(), signature.begin(), signature.end());
  return out;
}

void RrsigRdata::append_presignature(std::vector<std::uint8_t>& out) const {
  ByteWriter w(std::move(out));
  w.u16(type_covered);
  w.u8(algorithm);
  w.u8(labels);
  w.u32(original_ttl);
  w.u32(expiration);
  w.u32(inception);
  w.u16(key_tag);
  // Signer name is *not* compressed and is lowercased by convention in this
  // codebase (all generated names are lowercase).
  write_name(w, signer);
  out = w.take();
}

std::optional<RrsigRdata> RrsigRdata::decode(
    std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  RrsigRdata out;
  const auto type_covered = r.u16();
  const auto algorithm = r.u8();
  const auto labels = r.u8();
  const auto original_ttl = r.u32();
  const auto expiration = r.u32();
  const auto inception = r.u32();
  const auto key_tag = r.u16();
  if (!type_covered || !algorithm || !labels || !original_ttl || !expiration ||
      !inception || !key_tag)
    return std::nullopt;
  auto signer = read_name(r);
  if (!signer) return std::nullopt;
  out.type_covered = *type_covered;
  out.algorithm = *algorithm;
  out.labels = *labels;
  out.original_ttl = *original_ttl;
  out.expiration = *expiration;
  out.inception = *inception;
  out.key_tag = *key_tag;
  out.signer = *std::move(signer);
  out.signature = *r.bytes(r.remaining());
  return out;
}

RdataBytes DsRdata::encode() const {
  ByteWriter w;
  w.reserve(4 + digest.size());
  w.u16(key_tag);
  w.u8(algorithm);
  w.u8(digest_type);
  w.bytes(digest);
  return w.take();
}

std::optional<DsRdata> DsRdata::decode(std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  const auto key_tag = r.u16();
  const auto algorithm = r.u8();
  const auto digest_type = r.u8();
  if (!key_tag || !algorithm || !digest_type) return std::nullopt;
  DsRdata out;
  out.key_tag = *key_tag;
  out.algorithm = *algorithm;
  out.digest_type = *digest_type;
  out.digest = *r.bytes(r.remaining());
  if (out.digest.empty()) return std::nullopt;
  return out;
}

RdataBytes NsecRdata::encode() const {
  const std::vector<std::uint8_t> bitmap = types.encode();
  ByteWriter w;
  w.reserve(next_domain.wire_length() + bitmap.size());
  write_name(w, next_domain);
  w.bytes(bitmap);
  return w.take();
}

std::optional<NsecRdata> NsecRdata::decode(
    std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  auto next = read_name(r);
  if (!next) return std::nullopt;
  const auto rest = r.view(r.remaining());
  auto types = TypeBitmap::decode(*rest);
  if (!types) return std::nullopt;
  return NsecRdata{*std::move(next), *std::move(types)};
}

RdataBytes Nsec3Rdata::encode() const {
  const std::vector<std::uint8_t> bitmap = types.encode();
  ByteWriter w;
  w.reserve(6 + salt.size() + next_hash.size() + bitmap.size());
  w.u8(hash_algorithm);
  w.u8(flags);
  w.u16(iterations);
  w.u8(static_cast<std::uint8_t>(salt.size()));
  w.bytes(salt);
  w.u8(static_cast<std::uint8_t>(next_hash.size()));
  w.bytes(next_hash);
  w.bytes(bitmap);
  return w.take();
}

std::optional<Nsec3Rdata> Nsec3Rdata::decode(
    std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  Nsec3Rdata out;
  const auto alg = r.u8();
  const auto flags = r.u8();
  const auto iterations = r.u16();
  const auto salt_len = r.u8();
  if (!alg || !flags || !iterations || !salt_len) return std::nullopt;
  const auto salt = r.bytes(*salt_len);
  if (!salt) return std::nullopt;
  const auto hash_len = r.u8();
  if (!hash_len || *hash_len == 0) return std::nullopt;
  const auto next_hash = r.bytes(*hash_len);
  if (!next_hash) return std::nullopt;
  const auto rest = r.view(r.remaining());
  auto types = TypeBitmap::decode(*rest);
  if (!types) return std::nullopt;
  out.hash_algorithm = *alg;
  out.flags = *flags;
  out.iterations = *iterations;
  out.salt = *salt;
  out.next_hash = *next_hash;
  out.types = *std::move(types);
  return out;
}

RdataBytes Nsec3ParamRdata::encode() const {
  ByteWriter w;
  w.reserve(5 + salt.size());
  w.u8(hash_algorithm);
  w.u8(flags);
  w.u16(iterations);
  w.u8(static_cast<std::uint8_t>(salt.size()));
  w.bytes(salt);
  return w.take();
}

std::optional<Nsec3ParamRdata> Nsec3ParamRdata::decode(
    std::span<const std::uint8_t> rdata) {
  ByteReader r(rdata);
  const auto alg = r.u8();
  const auto flags = r.u8();
  const auto iterations = r.u16();
  const auto salt_len = r.u8();
  if (!alg || !flags || !iterations || !salt_len) return std::nullopt;
  const auto salt = r.bytes(*salt_len);
  if (!salt || !r.at_end()) return std::nullopt;
  Nsec3ParamRdata out;
  out.hash_algorithm = *alg;
  out.flags = *flags;
  out.iterations = *iterations;
  out.salt = *salt;
  return out;
}

}  // namespace zh::dns
