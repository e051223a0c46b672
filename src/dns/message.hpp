// DNS messages (RFC 1035 §4) with EDNS(0) (RFC 6891) and Extended DNS
// Errors (RFC 8914), plus the wire codec with name compression.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/name.hpp"
#include "dns/rr.hpp"
#include "dns/types.hpp"

namespace zh::dns {

/// A question-section entry.
struct Question {
  Name name;
  RrType type = RrType::kA;
  RrClass klass = RrClass::kIn;

  bool operator==(const Question& other) const {
    return name.equals(other.name) && type == other.type &&
           klass == other.klass;
  }
};

/// A raw EDNS option (code, opaque payload).
struct EdnsOption {
  static constexpr std::uint16_t kCodeEde = 15;  // RFC 8914

  std::uint16_t code = 0;
  std::vector<std::uint8_t> data;

  bool operator==(const EdnsOption&) const = default;
};

/// Decoded Extended DNS Error.
struct EdeInfo {
  EdeCode info_code = EdeCode::kOther;
  std::string extra_text;
};

/// EDNS(0) state carried by the OPT pseudo-record.
struct Edns {
  std::uint16_t udp_payload_size = 1232;
  std::uint8_t version = 0;
  bool do_bit = false;  // DNSSEC OK
  std::vector<EdnsOption> options;

  void add_ede(EdeCode code, std::string extra_text = {});
  /// First EDE option, decoded; nullopt if none present or malformed.
  std::optional<EdeInfo> ede() const;
};

/// Message header. `rcode` holds the *extended* 12-bit code; the codec
/// splits it between the fixed header and the OPT TTL field.
struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = false;  // recursion desired
  bool ra = false;  // recursion available
  bool ad = false;  // authentic data (DNSSEC validated)
  bool cd = false;  // checking disabled
  Rcode rcode = Rcode::kNoError;
};

/// Why a wire message failed to decode. The codec parses bytes from
/// untrusted peers (real sockets via the net frontend, simulated-but-
/// adversarial nodes in-sim), so failures are typed — never exceptions,
/// never out-of-bounds reads — and the frontend surfaces them as counters.
enum class WireErrc : std::uint8_t {
  kOk = 0,
  kTruncated,      // ran out of bytes mid-field
  kBadLabelType,   // reserved label type (0x40/0x80 prefix, RFC 1035 §4.1.4)
  kPointerLoop,    // compression pointer not strictly backward
  kNameTooLong,    // name exceeds the 255-byte wire limit
  kBadRdata,       // rdata malformed or inconsistent with RDLENGTH
  kBadOpt,         // OPT pseudo-record options malformed
  kTrailingBytes,  // bytes left over after all counted sections
};

const char* to_string(WireErrc errc);

struct DecodeResult;  // defined after Message (holds one)

/// Lazily-filtered, non-copying walk over one section's records of a given
/// type: empty()/front()/iteration touch only the section in place.
/// Valid while the owning Message is alive and the section unmodified.
class TypedRecordRange {
 public:
  class iterator {
   public:
    using value_type = ResourceRecord;
    using reference = const ResourceRecord&;
    using pointer = const ResourceRecord*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(const ResourceRecord* at, const ResourceRecord* end, RrType type)
        : at_(at), end_(end), type_(type) {
      skip_mismatches();
    }
    reference operator*() const { return *at_; }
    pointer operator->() const { return at_; }
    iterator& operator++() {
      ++at_;
      skip_mismatches();
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const iterator& other) const { return at_ == other.at_; }

   private:
    void skip_mismatches() {
      while (at_ != end_ && at_->type != type_) ++at_;
    }
    const ResourceRecord* at_ = nullptr;
    const ResourceRecord* end_ = nullptr;
    RrType type_ = RrType::kA;
  };

  TypedRecordRange(const std::vector<ResourceRecord>& section, RrType type)
      : begin_(section.data()),
        end_(section.data() + section.size()),
        type_(type) {}

  iterator begin() const { return iterator(begin_, end_, type_); }
  iterator end() const { return iterator(end_, end_, type_); }
  bool empty() const { return begin() == end(); }
  /// First matching record; the range must not be empty.
  const ResourceRecord& front() const { return *begin(); }
  std::size_t size() const {
    std::size_t n = 0;
    for (auto it = begin(); it != end(); ++it) ++n;
    return n;
  }

 private:
  const ResourceRecord* begin_ = nullptr;
  const ResourceRecord* end_ = nullptr;
  RrType type_ = RrType::kA;
};

/// A full DNS message. The OPT pseudo-record is lifted into `edns` and never
/// appears in `additionals`.
struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;
  std::optional<Edns> edns;

  /// Serialises with RFC 1035 §4.1.4 name compression for owner names and
  /// question names (rdata is stored and written uncompressed).
  std::vector<std::uint8_t> to_wire() const;

  /// Exact encoded size — `wire_size() == to_wire().size()` always — without
  /// building the buffer. Shares the compressor's suffix registration
  /// (including the 0x4000 pointer-offset cap) so compression decisions are
  /// identical. It pays for a suffix map; UDP truncation asks fits_in(),
  /// which calls it only when the cheap bound cannot decide.
  std::size_t wire_size() const;

  /// `wire_size() <= limit`, decided from the uncompressed size where that
  /// is enough: header, every name's wire_length(), the fixed RR fields,
  /// rdata and OPT. Compression never makes a message bigger (a 2-byte
  /// pointer replaces at least a 1-octet label plus the root, 3 bytes), so
  /// a bound within `limit` proves the fit; above it, wire_size() decides.
  bool fits_in(std::size_t limit) const;

  /// Parses a wire message; embedded compressed names inside NS/CNAME/SOA/
  /// MX rdata are normalised to uncompressed form. Returns nullopt on any
  /// malformation (truncation, pointer loops, bad counts, trailing bytes).
  /// Equivalent to decode(wire).message.
  static std::optional<Message> from_wire(std::span<const std::uint8_t> wire);

  /// Like from_wire, but says *why* parsing failed (WireErrc). The parse is
  /// strict: every byte of `wire` must belong to a counted section — pass
  /// exactly one datagram or one TCP frame payload.
  static DecodeResult decode(std::span<const std::uint8_t> wire);

  /// Standard recursive query with EDNS, DO bit and a 1232-byte buffer.
  static Message make_query(std::uint16_t id, const Name& qname, RrType qtype,
                            bool dnssec_ok = true, bool recursion_desired = true);

  /// Response skeleton echoing id/opcode/question/RD of `query`.
  static Message make_response(const Message& query);

  /// First question, if any.
  const Question* question() const {
    return questions.empty() ? nullptr : &questions.front();
  }

  /// Non-copying filtered walk over the answer section.
  TypedRecordRange answers_with(RrType type) const {
    return TypedRecordRange(answers, type);
  }
  /// Non-copying filtered walk over the authority section.
  TypedRecordRange authorities_with(RrType type) const {
    return TypedRecordRange(authorities, type);
  }

  /// One-line summary for logs: "NOERROR q=example.com. A ans=2 auth=0 AD".
  std::string summary() const;
};

/// Outcome of Message::decode: the message, or why there is none.
struct DecodeResult {
  std::optional<Message> message;
  WireErrc error = WireErrc::kOk;

  explicit operator bool() const noexcept { return message.has_value(); }
};

}  // namespace zh::dns
