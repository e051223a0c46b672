#include "dns/message.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "dns/io.hpp"

namespace zh::dns {
namespace {

/// ASCII lowercase; label lengths (≤ 63) pass through unchanged.
std::uint8_t fold(std::uint8_t c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c - 'A' + 'a')
                                : c;
}

/// Writes names with RFC 1035 §4.1.4 compression, remembering every suffix
/// it has emitted at a pointer-reachable offset. A suffix is kept as a
/// view into its name's buffer — the message's names outlive the
/// compressor, which lives for one to_wire() or wire_size() — in an
/// open-addressed table, matched case-insensitively. The first offset
/// registered for a suffix is the one every later pointer targets.
class NameCompressor {
 public:
  void write(ByteWriter& w, const Name& name) {
    std::optional<std::uint16_t> pointer;
    const std::size_t literal = plan(name, w.size(), pointer);
    w.bytes(name.wire().first(literal));
    if (pointer) {
      w.u16(static_cast<std::uint16_t>(0xc000 | *pointer));
    } else {
      w.u8(0);
    }
  }

  /// Size-only twin of write(): registers the same suffixes at the same
  /// (virtual) offsets under the same 0x4000 cap, so a message measured
  /// name-by-name compresses identically to one actually serialised —
  /// wire_size() == to_wire().size() holds exactly.
  std::size_t measure(std::size_t at, const Name& name) {
    std::optional<std::uint16_t> pointer;
    const std::size_t literal = plan(name, at, pointer);
    return literal + (pointer ? 2 : 1);
  }

 private:
  struct Slot {
    const std::uint8_t* suffix = nullptr;  // nullptr: empty slot
    std::uint32_t hash = 0;
    std::uint16_t offset = 0;
    std::uint8_t length = 0;  // suffix octets, root octet included
  };

  /// Finds the longest registered suffix of `name` (its offset goes to
  /// `pointer`), registers every longer suffix at its offset from `at`
  /// while that offset is below 0x4000, and returns how many octets
  /// precede the pointer (or the root octet).
  std::size_t plan(const Name& name, std::size_t at,
                   std::optional<std::uint16_t>& pointer) {
    const std::uint8_t* wire = name.wire().data();
    const std::size_t length = name.wire_length();
    std::array<std::uint8_t, 128> starts;
    std::size_t labels = 0;
    for (std::size_t pos = 0; wire[pos] != 0; pos += 1 + wire[pos])
      starts[labels++] = static_cast<std::uint8_t>(pos);
    // Suffix hashes, folded label by label from the root leftwards.
    std::array<std::uint32_t, 128> hashes;
    std::uint32_t h = 2166136261u;
    for (std::size_t i = labels; i-- > 0;) {
      const std::uint8_t* label = wire + starts[i];
      for (std::size_t k = 0; k <= label[0]; ++k) {
        h ^= fold(label[k]);
        h *= 16777619u;
      }
      hashes[i] = h;
    }
    std::size_t skip = 0;  // labels written literally before the pointer
    for (; skip < labels; ++skip) {
      if (const Slot* hit = find(wire + starts[skip], length - starts[skip],
                                 hashes[skip])) {
        pointer = hit->offset;
        break;
      }
    }
    for (std::size_t i = 0; i < skip && at + starts[i] < 0x4000; ++i)
      insert(Slot{wire + starts[i], hashes[i],
                  static_cast<std::uint16_t>(at + starts[i]),
                  static_cast<std::uint8_t>(length - starts[i])});
    return skip < labels ? starts[skip] : length - 1;
  }

  static bool same_suffix(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i)
      if (fold(a[i]) != fold(b[i])) return false;
    return true;
  }

  const Slot* find(const std::uint8_t* suffix, std::size_t length,
                   std::uint32_t hash) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.suffix == nullptr) return nullptr;
      if (slot.hash == hash && slot.length == length &&
          same_suffix(slot.suffix, suffix, length))
        return &slot;
    }
  }

  void insert(const Slot& entry) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = entry.hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.suffix == nullptr) {
        slot = entry;
        ++used_;
        return;
      }
      if (slot.hash == entry.hash && slot.length == entry.length &&
          same_suffix(slot.suffix, entry.suffix, entry.length))
        return;  // first registration wins
    }
  }

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(32, 2 * slots_.size()));
    old.swap(slots_);
    used_ = 0;
    for (const Slot& slot : old)
      if (slot.suffix != nullptr) insert(slot);
  }

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::size_t used_ = 0;
};

/// Reads a possibly-compressed name; `r` advances past the name's in-place
/// bytes only. Pointers must target strictly earlier offsets (loop-proof).
/// On failure `err` says why (left untouched on success).
std::optional<Name> read_compressed_name(ByteReader& r, WireErrc& err) {
  std::array<std::uint8_t, Name::kMaxWireLength> name;  // the uncompressed wire
  std::size_t length = 0;

  std::size_t pos = r.position();
  const std::span<const std::uint8_t> wire = r.whole();
  std::optional<std::size_t> resume;  // position after the in-place bytes
  std::size_t min_pointer_target = pos;

  const auto fail = [&](WireErrc errc) -> std::optional<Name> {
    err = errc;
    return std::nullopt;
  };
  for (;;) {
    if (pos >= wire.size()) return fail(WireErrc::kTruncated);
    const std::uint8_t len = wire[pos];
    if ((len & 0xc0) == 0xc0) {
      if (pos + 1 >= wire.size()) return fail(WireErrc::kTruncated);
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | wire[pos + 1];
      if (target >= min_pointer_target)
        return fail(WireErrc::kPointerLoop);  // forward/self pointer
      if (!resume) resume = pos + 2;
      min_pointer_target = target;
      pos = target;
      continue;
    }
    if (len & 0xc0) return fail(WireErrc::kBadLabelType);  // reserved types
    if (len == 0) {
      if (!resume) resume = pos + 1;
      break;
    }
    if (pos + 1 + len > wire.size()) return fail(WireErrc::kTruncated);
    if (length + 1 + len + 1 > Name::kMaxWireLength)
      return fail(WireErrc::kNameTooLong);
    std::memcpy(name.data() + length, &wire[pos], 1 + std::size_t{len});
    length += 1 + std::size_t{len};
    pos += 1 + std::size_t{len};
  }
  if (!r.seek(*resume)) return fail(WireErrc::kTruncated);
  name[length++] = 0;
  return Name::from_wire(std::span<const std::uint8_t>(name.data(), length));
}

/// Normalises rdata read from a message: types whose rdata embeds names
/// that may be compressed get their names decompressed and re-encoded.
/// On failure `err` says why (left untouched on success).
std::optional<RdataBytes> read_rdata(ByteReader& r, RrType type,
                                     std::size_t rdlength, WireErrc& err) {
  const std::size_t end = r.position() + rdlength;
  if (end > r.whole().size()) {
    err = WireErrc::kTruncated;
    return std::nullopt;
  }

  const auto fail = [&](WireErrc errc) -> std::optional<RdataBytes> {
    err = errc;
    return std::nullopt;
  };
  const auto finish = [&](RdataBytes bytes) -> std::optional<RdataBytes> {
    if (r.position() != end) return fail(WireErrc::kBadRdata);
    return bytes;
  };

  switch (type) {
    case RrType::kNs:
    case RrType::kCname: {
      auto name = read_compressed_name(r, err);
      if (!name) return std::nullopt;
      if (r.position() > end) return fail(WireErrc::kBadRdata);
      return finish(name->to_wire());
    }
    case RrType::kMx: {
      const auto pref = r.u16();
      if (!pref) return fail(WireErrc::kTruncated);
      auto name = read_compressed_name(r, err);
      if (!name) return std::nullopt;
      if (r.position() > end) return fail(WireErrc::kBadRdata);
      ByteWriter w;
      w.reserve(2 + name->wire_length());
      w.u16(*pref);
      w.bytes(name->wire());
      return finish(w.take());
    }
    case RrType::kSoa: {
      auto mname = read_compressed_name(r, err);
      if (!mname) return std::nullopt;
      auto rname = read_compressed_name(r, err);
      if (!rname) return std::nullopt;
      if (r.position() + 20 > end) return fail(WireErrc::kBadRdata);
      ByteWriter w;
      w.reserve(mname->wire_length() + rname->wire_length() + 20);
      w.bytes(mname->wire());
      w.bytes(rname->wire());
      for (int i = 0; i < 5; ++i) {
        const auto v = r.u32();
        if (!v) return fail(WireErrc::kTruncated);
        w.u32(*v);
      }
      return finish(w.take());
    }
    default: {
      auto bytes = r.bytes(rdlength);
      if (!bytes) return fail(WireErrc::kTruncated);
      return *bytes;
    }
  }
}

}  // namespace

void Edns::add_ede(EdeCode code, std::string extra_text) {
  EdnsOption option;
  option.code = EdnsOption::kCodeEde;
  option.data.push_back(
      static_cast<std::uint8_t>(static_cast<std::uint16_t>(code) >> 8));
  option.data.push_back(
      static_cast<std::uint8_t>(static_cast<std::uint16_t>(code)));
  option.data.insert(option.data.end(), extra_text.begin(), extra_text.end());
  options.push_back(std::move(option));
}

std::optional<EdeInfo> Edns::ede() const {
  for (const auto& option : options) {
    if (option.code != EdnsOption::kCodeEde) continue;
    if (option.data.size() < 2) return std::nullopt;
    EdeInfo info;
    info.info_code = static_cast<EdeCode>(
        (std::uint16_t{option.data[0]} << 8) | option.data[1]);
    info.extra_text.assign(option.data.begin() + 2, option.data.end());
    return info;
  }
  return std::nullopt;
}

std::vector<std::uint8_t> Message::to_wire() const {
  ByteWriter w;
  NameCompressor compressor;

  const std::uint16_t rcode_value = static_cast<std::uint16_t>(header.rcode);
  std::uint16_t flags = 0;
  if (header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(header.opcode) & 0xf) << 11);
  if (header.aa) flags |= 0x0400;
  if (header.tc) flags |= 0x0200;
  if (header.rd) flags |= 0x0100;
  if (header.ra) flags |= 0x0080;
  if (header.ad) flags |= 0x0020;
  if (header.cd) flags |= 0x0010;
  flags |= rcode_value & 0xf;

  w.u16(header.id);
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authorities.size()));
  w.u16(static_cast<std::uint16_t>(additionals.size() + (edns ? 1 : 0)));

  for (const auto& q : questions) {
    compressor.write(w, q.name);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(q.klass));
  }

  const auto write_rr = [&](const ResourceRecord& rr) {
    compressor.write(w, rr.name);
    w.u16(static_cast<std::uint16_t>(rr.type));
    w.u16(static_cast<std::uint16_t>(rr.klass));
    w.u32(rr.ttl);
    w.u16(static_cast<std::uint16_t>(rr.rdata.size()));
    w.bytes(rr.rdata);
  };
  for (const auto& rr : answers) write_rr(rr);
  for (const auto& rr : authorities) write_rr(rr);
  for (const auto& rr : additionals) write_rr(rr);

  if (edns) {
    // OPT pseudo-record: root owner, class = payload size,
    // TTL = ext-rcode | version | DO | zeros.
    w.u8(0);  // root name
    w.u16(static_cast<std::uint16_t>(RrType::kOpt));
    w.u16(edns->udp_payload_size);
    std::uint32_t ttl = 0;
    ttl |= static_cast<std::uint32_t>((rcode_value >> 4) & 0xff) << 24;
    ttl |= static_cast<std::uint32_t>(edns->version) << 16;
    if (edns->do_bit) ttl |= 0x8000;
    w.u32(ttl);
    ByteWriter opts;
    for (const auto& option : edns->options) {
      opts.u16(option.code);
      opts.u16(static_cast<std::uint16_t>(option.data.size()));
      opts.bytes(option.data);
    }
    w.u16(static_cast<std::uint16_t>(opts.size()));
    w.bytes(opts.data());
  }
  return w.take();
}

std::size_t Message::wire_size() const {
  NameCompressor compressor;
  std::size_t size = 12;
  for (const auto& q : questions) size += compressor.measure(size, q.name) + 4;
  const auto measure_rr = [&](const ResourceRecord& rr) {
    size += compressor.measure(size, rr.name) + 10 + rr.rdata.size();
  };
  for (const auto& rr : answers) measure_rr(rr);
  for (const auto& rr : authorities) measure_rr(rr);
  for (const auto& rr : additionals) measure_rr(rr);
  if (edns) {
    size += 11;  // root owner + TYPE/CLASS/TTL/RDLENGTH
    for (const auto& option : edns->options) size += 4 + option.data.size();
  }
  return size;
}

bool Message::fits_in(std::size_t limit) const {
  std::size_t bound = 12;
  for (const auto& q : questions) bound += q.name.wire_length() + 4;
  const auto bound_rr = [&](const ResourceRecord& rr) {
    bound += rr.name.wire_length() + 10 + rr.rdata.size();
  };
  for (const auto& rr : answers) bound_rr(rr);
  for (const auto& rr : authorities) bound_rr(rr);
  for (const auto& rr : additionals) bound_rr(rr);
  if (edns) {
    bound += 11;
    for (const auto& option : edns->options) bound += 4 + option.data.size();
  }
  return bound <= limit || wire_size() <= limit;
}

const char* to_string(WireErrc errc) {
  switch (errc) {
    case WireErrc::kOk: return "ok";
    case WireErrc::kTruncated: return "truncated";
    case WireErrc::kBadLabelType: return "bad-label-type";
    case WireErrc::kPointerLoop: return "pointer-loop";
    case WireErrc::kNameTooLong: return "name-too-long";
    case WireErrc::kBadRdata: return "bad-rdata";
    case WireErrc::kBadOpt: return "bad-opt";
    case WireErrc::kTrailingBytes: return "trailing-bytes";
  }
  return "unknown";
}

std::optional<Message> Message::from_wire(std::span<const std::uint8_t> wire) {
  return decode(wire).message;
}

DecodeResult Message::decode(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  Message msg;
  WireErrc err = WireErrc::kOk;
  const auto fail = [&](WireErrc errc) { return DecodeResult{{}, errc}; };

  const auto id = r.u16();
  const auto flags = r.u16();
  const auto qdcount = r.u16();
  const auto ancount = r.u16();
  const auto nscount = r.u16();
  const auto arcount = r.u16();
  if (!id || !flags || !qdcount || !ancount || !nscount || !arcount)
    return fail(WireErrc::kTruncated);

  msg.header.id = *id;
  msg.header.qr = *flags & 0x8000;
  msg.header.opcode = static_cast<Opcode>((*flags >> 11) & 0xf);
  msg.header.aa = *flags & 0x0400;
  msg.header.tc = *flags & 0x0200;
  msg.header.rd = *flags & 0x0100;
  msg.header.ra = *flags & 0x0080;
  msg.header.ad = *flags & 0x0020;
  msg.header.cd = *flags & 0x0010;
  std::uint16_t rcode_value = *flags & 0xf;

  for (std::uint16_t i = 0; i < *qdcount; ++i) {
    auto name = read_compressed_name(r, err);
    if (!name) return fail(err);
    const auto type = r.u16();
    const auto klass = r.u16();
    if (!type || !klass) return fail(WireErrc::kTruncated);
    msg.questions.push_back(Question{*std::move(name),
                                     static_cast<RrType>(*type),
                                     static_cast<RrClass>(*klass)});
  }

  const auto read_section =
      [&](std::uint16_t count,
          std::vector<ResourceRecord>& section) -> bool {
    for (std::uint16_t i = 0; i < count; ++i) {
      auto name = read_compressed_name(r, err);
      if (!name) return false;
      const auto type = r.u16();
      const auto klass = r.u16();
      const auto ttl = r.u32();
      const auto rdlength = r.u16();
      if (!type || !klass || !ttl || !rdlength) {
        err = WireErrc::kTruncated;
        return false;
      }

      if (static_cast<RrType>(*type) == RrType::kOpt) {
        // Lift OPT into msg.edns.
        Edns edns;
        edns.udp_payload_size = *klass;
        edns.version = static_cast<std::uint8_t>((*ttl >> 16) & 0xff);
        edns.do_bit = *ttl & 0x8000;
        rcode_value = static_cast<std::uint16_t>(
            rcode_value | (((*ttl >> 24) & 0xff) << 4));
        const std::size_t end = r.position() + *rdlength;
        if (end > r.whole().size()) {
          err = WireErrc::kTruncated;
          return false;
        }
        while (r.position() < end) {
          const auto code = r.u16();
          const auto len = r.u16();
          if (!code || !len) {
            err = WireErrc::kBadOpt;
            return false;
          }
          auto data = r.bytes(*len);
          if (!data || r.position() > end) {
            err = WireErrc::kBadOpt;
            return false;
          }
          edns.options.push_back(EdnsOption{*code, *std::move(data)});
        }
        if (r.position() != end) {
          err = WireErrc::kBadOpt;
          return false;
        }
        msg.edns = std::move(edns);
        continue;
      }

      auto rdata = read_rdata(r, static_cast<RrType>(*type), *rdlength, err);
      if (!rdata) return false;
      section.push_back(ResourceRecord{*std::move(name),
                                       static_cast<RrType>(*type),
                                       static_cast<RrClass>(*klass), *ttl,
                                       *std::move(rdata)});
    }
    return true;
  };

  if (!read_section(*ancount, msg.answers)) return fail(err);
  if (!read_section(*nscount, msg.authorities)) return fail(err);
  if (!read_section(*arcount, msg.additionals)) return fail(err);

  // Strict framing: a datagram (or TCP frame payload) is exactly one
  // message — anything after the counted sections is an attacker smuggling
  // bytes or a framing bug upstream, not padding.
  if (!r.at_end()) return fail(WireErrc::kTrailingBytes);

  msg.header.rcode = static_cast<Rcode>(rcode_value);
  return DecodeResult{std::move(msg), WireErrc::kOk};
}

Message Message::make_query(std::uint16_t id, const Name& qname, RrType qtype,
                            bool dnssec_ok, bool recursion_desired) {
  Message msg;
  msg.header.id = id;
  msg.header.rd = recursion_desired;
  msg.questions.push_back(Question{qname, qtype, RrClass::kIn});
  Edns edns;
  edns.do_bit = dnssec_ok;
  msg.edns = edns;
  return msg;
}

Message Message::make_response(const Message& query) {
  Message msg;
  msg.header.id = query.header.id;
  msg.header.qr = true;
  msg.header.opcode = query.header.opcode;
  msg.header.rd = query.header.rd;
  msg.questions = query.questions;
  if (query.edns) {
    Edns edns;
    edns.do_bit = query.edns->do_bit;
    msg.edns = edns;
  }
  return msg;
}

std::string Message::summary() const {
  std::string out = to_string(header.rcode);
  if (const Question* q = question()) {
    out += " q=" + q->name.to_string() + " " + to_string(q->type);
  }
  out += " ans=" + std::to_string(answers.size());
  out += " auth=" + std::to_string(authorities.size());
  if (header.aa) out += " AA";
  if (header.ad) out += " AD";
  if (header.ra) out += " RA";
  if (edns && edns->ede()) {
    out += " EDE=" + std::to_string(
        static_cast<std::uint16_t>(edns->ede()->info_code));
  }
  return out;
}

}  // namespace zh::dns
