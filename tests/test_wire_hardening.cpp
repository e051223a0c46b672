// Hardened-decode tests: Message::decode on untrusted bytes must never
// crash, never read out of bounds, and must say *why* it rejected input
// (typed WireErrc). CI runs this binary under ASan/UBSan, so every decode
// here doubles as a memory-safety probe; the same corpus is fired at a
// live frontend socket in test_frontend.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dns/message.hpp"

namespace zh::dns {
namespace {

std::span<const std::uint8_t> as_span(const std::vector<std::uint8_t>& v) {
  return {v.data(), v.size()};
}

/// A response exercising every rdata decode path the codec special-cases
/// (NS/CNAME/MX/SOA decompression) plus EDNS with an EDE option.
Message rich_response() {
  Message query = Message::make_query(
      0x5157, Name::must_parse("www.example.com"), RrType::kA);
  Message response = Message::make_response(query);
  response.header.aa = true;
  response.header.ra = true;
  response.answers.push_back(
      make_a(Name::must_parse("www.example.com"), 300, 192, 0, 2, 1));
  response.answers.push_back(make_txt(Name::must_parse("www.example.com"), 300,
                                      "hardening corpus"));
  response.authorities.push_back(make_ns(Name::must_parse("example.com"), 3600,
                                         Name::must_parse("ns1.example.com")));
  response.authorities.push_back(
      make_soa(Name::must_parse("example.com"), 3600,
               Name::must_parse("ns1.example.com"), 2024010100));
  response.additionals.push_back(
      make_a(Name::must_parse("ns1.example.com"), 3600, 192, 0, 2, 53));
  response.edns->add_ede(EdeCode::kOther, "corpus");
  return response;
}

/// NXDOMAIN with an NSEC3 proof: the NSEC3 rdata decode path, in the shape
/// every negative answer of a scan takes.
Message nxdomain_with_proof() {
  Message query = Message::make_query(
      1, Name::must_parse("probe.nx.example.com"), RrType::kA);
  Message response = Message::make_response(query);
  response.header.rcode = Rcode::kNxDomain;
  response.header.aa = true;
  response.authorities.push_back(
      make_soa(Name::must_parse("example.com"), 3600,
               Name::must_parse("ns1.example.com"), 1));
  for (int i = 0; i < 3; ++i) {
    Nsec3Rdata nsec3;
    nsec3.iterations = 10;
    nsec3.next_hash.assign(20, static_cast<std::uint8_t>(i * 40 + 7));
    nsec3.types = TypeBitmap({RrType::kA, RrType::kRrsig});
    response.authorities.push_back(ResourceRecord::make(
        Name::must_parse(std::string(32, static_cast<char>('a' + i)) +
                         ".example.com"),
        RrType::kNsec3, 3600, nsec3));
  }
  return response;
}

/// The valid messages the prefix and bit-flip sweeps corrupt.
std::vector<Message> sweep_seeds() {
  return {rich_response(), nxdomain_with_proof()};
}

/// Minimal header + question skeleton the crafted-wire tests build on.
std::vector<std::uint8_t> header(std::uint16_t qdcount, std::uint16_t ancount,
                                 std::uint16_t nscount, std::uint16_t arcount) {
  std::vector<std::uint8_t> wire = {0x12, 0x34, 0x01, 0x00};
  for (const std::uint16_t count : {qdcount, ancount, nscount, arcount}) {
    wire.push_back(static_cast<std::uint8_t>(count >> 8));
    wire.push_back(static_cast<std::uint8_t>(count));
  }
  return wire;
}

void push_question_tail(std::vector<std::uint8_t>& wire) {
  wire.insert(wire.end(), {0x00, 0x01, 0x00, 0x01});  // QTYPE=A QCLASS=IN
}

TEST(WireHardening, ValidMessagesDecodeOk) {
  for (const Message& msg :
       {Message::make_query(7, Name::must_parse("example.com"), RrType::kA),
        rich_response(), nxdomain_with_proof()}) {
    const auto wire = msg.to_wire();
    const DecodeResult result = Message::decode(as_span(wire));
    ASSERT_TRUE(result.message) << to_string(result.error);
    EXPECT_EQ(result.error, WireErrc::kOk);
    // decode and from_wire agree: the wrapper drops only the error code.
    EXPECT_TRUE(Message::from_wire(as_span(wire)));
    // Round-trip is stable.
    EXPECT_EQ(result.message->to_wire(), wire);
  }
}

TEST(WireHardening, EveryStrictPrefixIsRejected) {
  // A strict parse leaves no slack: any prefix of a valid message must fail
  // (usually kTruncated; a prefix can also sever a name or rdata).
  for (const Message& seed : sweep_seeds()) {
    const auto wire = seed.to_wire();
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const DecodeResult result =
          Message::decode(std::span<const std::uint8_t>(wire.data(), len));
      EXPECT_FALSE(result.message) << "prefix of length " << len << " parsed";
      EXPECT_NE(result.error, WireErrc::kOk);
    }
  }
}

TEST(WireHardening, TrailingBytesAreRejected) {
  auto wire = rich_response().to_wire();
  wire.push_back(0x00);
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kTrailingBytes);
}

TEST(WireHardening, SelfPointerIsALoop) {
  auto wire = header(1, 0, 0, 0);
  wire.push_back(0xc0);  // pointer to offset 12 = itself
  wire.push_back(0x0c);
  push_question_tail(wire);
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kPointerLoop);
}

TEST(WireHardening, ForwardPointerIsALoop) {
  auto wire = header(1, 0, 0, 0);
  wire.push_back(0xc0);  // pointer to offset 20: forward of the name
  wire.push_back(0x14);
  push_question_tail(wire);
  wire.resize(32, 0x00);
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kPointerLoop);
}

TEST(WireHardening, PingPongPointerChainTerminates) {
  // Two pointers referencing each other: strictly-backward enforcement
  // must reject the second hop instead of spinning.
  auto wire = header(1, 0, 0, 0);
  wire.push_back(0x01);  // "a"
  wire.push_back('a');
  wire.push_back(0xc0);  // at offset 14: points back to 12...
  wire.push_back(0x0c);
  push_question_tail(wire);
  // ...and the name at 12 re-reads "a" then hits its own pointer again —
  // the second visit targets an offset >= the first, which is the loop.
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kPointerLoop);
}

TEST(WireHardening, ReservedLabelTypesAreRejected) {
  for (const std::uint8_t prefix : {0x40, 0x80}) {
    auto wire = header(1, 0, 0, 0);
    wire.push_back(prefix | 0x01);
    wire.push_back('x');
    wire.push_back(0x00);
    push_question_tail(wire);
    const DecodeResult result = Message::decode(as_span(wire));
    EXPECT_FALSE(result.message);
    EXPECT_EQ(result.error, WireErrc::kBadLabelType);
  }
}

TEST(WireHardening, OverlongNameIsRejected) {
  // Five 63-byte labels = 321 wire bytes > the 255-byte limit.
  auto wire = header(1, 0, 0, 0);
  for (int label = 0; label < 5; ++label) {
    wire.push_back(63);
    for (int i = 0; i < 63; ++i)
      wire.push_back(static_cast<std::uint8_t>('a' + label));
  }
  wire.push_back(0x00);
  push_question_tail(wire);
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kNameTooLong);
}

TEST(WireHardening, CountsExceedingBytesAreTruncation) {
  auto wire = header(5, 0, 0, 0);  // claims five questions, carries none
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kTruncated);
}

TEST(WireHardening, HugeRdlengthIsTruncation) {
  auto wire = header(0, 1, 0, 0);
  wire.push_back(0x00);                               // root owner
  wire.insert(wire.end(), {0x00, 0x10, 0x00, 0x01});  // TXT IN
  wire.insert(wire.end(), {0x00, 0x00, 0x00, 0x3c});  // TTL
  wire.insert(wire.end(), {0xff, 0xff});              // RDLENGTH 65535
  wire.push_back(0x00);                               // ...but 1 byte follows
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kTruncated);
}

TEST(WireHardening, RdataNotConsumingRdlengthIsBad) {
  // NS rdata whose name ends before RDLENGTH says it should: the decoder
  // must flag the mismatch, not trust either length.
  auto wire = header(0, 0, 1, 0);
  wire.push_back(0x00);                               // root owner
  wire.insert(wire.end(), {0x00, 0x02, 0x00, 0x01});  // NS IN
  wire.insert(wire.end(), {0x00, 0x00, 0x0e, 0x10});  // TTL
  wire.insert(wire.end(), {0x00, 0x06});              // RDLENGTH 6
  wire.insert(wire.end(), {0x01, 'a', 0x00});         // name "a." (3 bytes)
  wire.insert(wire.end(), {0x00, 0x00, 0x00});        // filler the name skips
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kBadRdata);
}

TEST(WireHardening, MalformedOptOptionsAreBadOpt) {
  auto wire = header(0, 0, 0, 1);
  wire.push_back(0x00);                               // root owner
  wire.insert(wire.end(), {0x00, 0x29});              // OPT
  wire.insert(wire.end(), {0x04, 0xd0});              // payload 1232
  wire.insert(wire.end(), {0x00, 0x00, 0x00, 0x00});  // TTL
  wire.insert(wire.end(), {0x00, 0x06});              // RDLENGTH 6
  wire.insert(wire.end(), {0x00, 0x0f, 0x00, 0x09});  // EDE, len 9 > room
  wire.insert(wire.end(), {0x00, 0x00});
  const DecodeResult result = Message::decode(as_span(wire));
  EXPECT_FALSE(result.message);
  EXPECT_EQ(result.error, WireErrc::kBadOpt);
}

TEST(WireHardening, SingleBitFlipsNeverCrash) {
  // Deterministic single-bit corruption over every sweep seed: every flip
  // must either decode cleanly or fail with a typed error — under
  // ASan/UBSan this is the memory-safety sweep.
  for (const Message& seed : sweep_seeds()) {
    const auto pristine = seed.to_wire();
    for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto wire = pristine;
        wire[byte] ^= static_cast<std::uint8_t>(1u << bit);
        const DecodeResult result = Message::decode(as_span(wire));
        if (result.message) {
          EXPECT_EQ(result.error, WireErrc::kOk);
        } else {
          EXPECT_NE(result.error, WireErrc::kOk);
        }
      }
    }
  }
}

TEST(WireHardening, WireSizeMatchesEncodedSizeExactly) {
  // wire_size() shares the compressor's offset map with write(), so it is
  // exact — the simnet/frontend truncation decision depends on that.
  for (const Message& msg :
       {Message::make_query(7, Name::must_parse("example.com"), RrType::kA),
        Message::make_query(0xbeef, Name::must_parse("www.example.com"),
                            RrType::kDnskey),
        rich_response(), nxdomain_with_proof()}) {
    EXPECT_EQ(msg.wire_size(), msg.to_wire().size());
  }
  // And for every bit-flipped message that still decodes (mutated flags,
  // TTLs, rdata bytes — anything that survives the parser).
  const auto pristine = rich_response().to_wire();
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    auto wire = pristine;
    wire[byte] ^= 0x01;
    const DecodeResult result = Message::decode(as_span(wire));
    if (result.message) {
      EXPECT_EQ(result.message->wire_size(), result.message->to_wire().size());
    }
  }
}

TEST(WireHardening, TruncatedSuffixSweepsNeverCrash) {
  // Every contiguous chunk of a valid message (drop i bytes from the
  // front, j from the back) decodes or rejects without reading OOB.
  const auto pristine = rich_response().to_wire();
  for (std::size_t front = 0; front < pristine.size(); front += 3) {
    for (std::size_t back = 0; back + front < pristine.size(); back += 3) {
      const std::span<const std::uint8_t> chunk(pristine.data() + front,
                                                pristine.size() - front - back);
      (void)Message::decode(chunk);
    }
  }
}

TEST(WireHardening, ErrcNamesAreStable) {
  EXPECT_STREQ(to_string(WireErrc::kOk), "ok");
  EXPECT_STREQ(to_string(WireErrc::kTruncated), "truncated");
  EXPECT_STREQ(to_string(WireErrc::kBadLabelType), "bad-label-type");
  EXPECT_STREQ(to_string(WireErrc::kPointerLoop), "pointer-loop");
  EXPECT_STREQ(to_string(WireErrc::kNameTooLong), "name-too-long");
  EXPECT_STREQ(to_string(WireErrc::kBadRdata), "bad-rdata");
  EXPECT_STREQ(to_string(WireErrc::kBadOpt), "bad-opt");
  EXPECT_STREQ(to_string(WireErrc::kTrailingBytes), "trailing-bytes");
}

}  // namespace
}  // namespace zh::dns
