// Unit tests for the message model and wire codec: header flags, sections,
// name compression (write + read), EDNS/EDE, and malformed-input rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "dns/message.hpp"

namespace zh::dns {
namespace {

Message sample_response() {
  Message query = Message::make_query(0x1234, Name::must_parse("www.example.com"),
                                      RrType::kA);
  Message response = Message::make_response(query);
  response.header.rcode = Rcode::kNoError;
  response.header.aa = true;
  response.header.ra = true;
  response.answers.push_back(
      make_a(Name::must_parse("www.example.com"), 300, 192, 0, 2, 1));
  response.authorities.push_back(make_ns(Name::must_parse("example.com"), 3600,
                                         Name::must_parse("ns1.example.com")));
  response.additionals.push_back(
      make_a(Name::must_parse("ns1.example.com"), 3600, 192, 0, 2, 53));
  return response;
}

TEST(Message, QueryRoundTrip) {
  const Message query =
      Message::make_query(42, Name::must_parse("example.com"), RrType::kDnskey);
  const auto wire = query.to_wire();
  const auto back = Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->header.id, 42);
  EXPECT_FALSE(back->header.qr);
  EXPECT_TRUE(back->header.rd);
  ASSERT_EQ(back->questions.size(), 1u);
  EXPECT_TRUE(back->questions[0].name.equals(Name::must_parse("example.com")));
  EXPECT_EQ(back->questions[0].type, RrType::kDnskey);
  ASSERT_TRUE(back->edns);
  EXPECT_TRUE(back->edns->do_bit);
}

TEST(Message, ResponseRoundTripAllSections) {
  const Message response = sample_response();
  const auto wire = response.to_wire();
  const auto back = Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->header.qr);
  EXPECT_TRUE(back->header.aa);
  ASSERT_EQ(back->answers.size(), 1u);
  ASSERT_EQ(back->authorities.size(), 1u);
  ASSERT_EQ(back->additionals.size(), 1u);
  EXPECT_EQ(back->answers[0].as<ARdata>()->to_string(), "192.0.2.1");
  EXPECT_TRUE(back->authorities[0].as<NsRdata>()->nsdname.equals(
      Name::must_parse("ns1.example.com")));
}

TEST(Message, CompressionShrinksRepeatedNames) {
  const Message response = sample_response();
  const auto wire = response.to_wire();
  // Sum of uncompressed name lengths greatly exceeds the wire when
  // "example.com" suffixes share pointers; check a conservative bound.
  std::size_t uncompressed = 12;  // header
  const auto name_len = [](const Name& name) { return name.wire_length(); };
  uncompressed += name_len(response.questions[0].name) + 4;
  for (const auto& rr : {response.answers[0], response.authorities[0],
                         response.additionals[0]})
    uncompressed += name_len(rr.name) + 10 + rr.rdata.size();
  EXPECT_LT(wire.size(), uncompressed);
}

TEST(Message, CompressedNamesDecodeCaseInsensitively) {
  Message msg = Message::make_query(7, Name::must_parse("WWW.EXAMPLE.COM"),
                                    RrType::kA);
  msg.answers.push_back(
      make_a(Name::must_parse("www.example.com"), 60, 1, 2, 3, 4));
  const auto wire = msg.to_wire();
  const auto back = Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->answers[0].name.equals(back->questions[0].name));
}

TEST(Message, RdataNameCompressionIsNormalised) {
  // Hand-craft a message whose NS rdata uses a compression pointer into the
  // question name; the parser must decompress it.
  Message msg = Message::make_query(9, Name::must_parse("example.com"),
                                    RrType::kNs);
  msg.edns.reset();
  auto wire = msg.to_wire();
  // Append an answer record manually: name = pointer to offset 12
  // (question name), type NS, class IN, ttl 60, rdata = pointer to offset 12.
  const std::vector<std::uint8_t> rr = {
      0xc0, 12,              // owner: pointer to "example.com"
      0x00, 0x02,            // NS
      0x00, 0x01,            // IN
      0x00, 0x00, 0x00, 60,  // TTL
      0x00, 0x02,            // rdlength = 2
      0xc0, 12,              // nsdname: pointer to "example.com"
  };
  wire.insert(wire.end(), rr.begin(), rr.end());
  wire[7] = 1;  // ancount = 1
  const auto back = Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(back);
  ASSERT_EQ(back->answers.size(), 1u);
  const auto ns = back->answers[0].as<NsRdata>();
  ASSERT_TRUE(ns);
  EXPECT_TRUE(ns->nsdname.equals(Name::must_parse("example.com")));
  // And the stored rdata is the uncompressed form.
  EXPECT_EQ(back->answers[0].rdata.size(),
            Name::must_parse("example.com").wire_length());
}

TEST(Message, RejectsPointerLoops) {
  // A name that is a pointer to itself.
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 12,    // question name: pointer to offset 12 (itself)
      0x00, 0x01,  // A
      0x00, 0x01,  // IN
  };
  EXPECT_FALSE(Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(Message, RejectsForwardPointers) {
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 200,   // question name: forward/out-of-range pointer
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(Message, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> wire = {0x00, 0x01, 0x00};
  EXPECT_FALSE(Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(Message, RejectsCountMismatch) {
  Message msg = Message::make_query(1, Name::must_parse("example.com"),
                                    RrType::kA);
  auto wire = msg.to_wire();
  wire[5] = 9;  // claim 9 questions
  EXPECT_FALSE(Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size())));
}

TEST(Message, EdnsRoundTripWithEde) {
  Message msg = Message::make_query(5, Name::must_parse("it-500.test"),
                                    RrType::kA);
  msg.header.qr = true;
  msg.header.rcode = Rcode::kServFail;
  msg.edns->add_ede(EdeCode::kUnsupportedNsec3Iterations,
                    "NSEC3 iterations 500 > 150");
  const auto wire = msg.to_wire();
  const auto back = Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(back);
  ASSERT_TRUE(back->edns);
  const auto ede = back->edns->ede();
  ASSERT_TRUE(ede);
  EXPECT_EQ(ede->info_code, EdeCode::kUnsupportedNsec3Iterations);
  EXPECT_EQ(ede->extra_text, "NSEC3 iterations 500 > 150");
  EXPECT_EQ(back->header.rcode, Rcode::kServFail);
}

TEST(Message, OptRecordLiftedOutOfAdditionals) {
  const Message msg = Message::make_query(5, Name::must_parse("example.com"),
                                          RrType::kA);
  const auto wire = msg.to_wire();
  const auto back = Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->additionals.empty());
  EXPECT_TRUE(back->edns);
}

TEST(Message, AdBitSurvivesRoundTrip) {
  Message msg = Message::make_query(6, Name::must_parse("example.com"),
                                    RrType::kA);
  msg.header.qr = true;
  msg.header.ad = true;
  msg.header.rcode = Rcode::kNxDomain;
  const auto wire = msg.to_wire();
  const auto back = Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(back);
  EXPECT_TRUE(back->header.ad);
  EXPECT_EQ(back->header.rcode, Rcode::kNxDomain);
}

TEST(Message, NoEdnsMeansNoOptRecord) {
  Message msg = Message::make_query(8, Name::must_parse("example.com"),
                                    RrType::kA);
  msg.edns.reset();
  const auto wire = msg.to_wire();
  const auto back = Message::from_wire(
      std::span<const std::uint8_t>(wire.data(), wire.size()));
  ASSERT_TRUE(back);
  EXPECT_FALSE(back->edns);
}

TEST(Message, AnswersOfTypeFilters) {
  Message msg = sample_response();
  msg.answers.push_back(make_txt(Name::must_parse("www.example.com"), 60,
                                 "hello"));
  EXPECT_EQ(msg.answers_with(RrType::kA).size(), 1u);
  EXPECT_EQ(msg.answers_with(RrType::kTxt).size(), 1u);
  EXPECT_EQ(msg.answers_with(RrType::kNsec3).size(), 0u);
  EXPECT_EQ(msg.authorities_with(RrType::kNs).size(), 1u);
}

TEST(Message, TypedRangesMatchDeepCopyingFilters) {
  // answers_with/authorities_with walk the section in place; a deep-copying
  // std::copy_if filter is the reference: same records, same order.
  const auto copy_of_type = [](const std::vector<ResourceRecord>& section,
                               RrType type) {
    std::vector<ResourceRecord> out;
    std::copy_if(section.begin(), section.end(), std::back_inserter(out),
                 [type](const ResourceRecord& rr) { return rr.type == type; });
    return out;
  };
  Message msg = sample_response();
  msg.answers.push_back(make_txt(Name::must_parse("www.example.com"), 60,
                                 "hello"));
  for (const RrType type :
       {RrType::kA, RrType::kTxt, RrType::kNs, RrType::kNsec3}) {
    const auto copied = copy_of_type(msg.answers, type);
    const auto range = msg.answers_with(type);
    EXPECT_EQ(range.size(), copied.size());
    EXPECT_EQ(range.empty(), copied.empty());
    std::size_t i = 0;
    for (const ResourceRecord& rr : range) {
      ASSERT_LT(i, copied.size());
      EXPECT_EQ(rr.type, copied[i].type);
      EXPECT_EQ(rr.rdata, copied[i].rdata);
      EXPECT_TRUE(rr.name.equals(copied[i].name));
      ++i;
    }
    EXPECT_EQ(i, copied.size());
    if (!copied.empty()) {
      EXPECT_EQ(range.front().rdata, copied.front().rdata);
    }
  }
  EXPECT_EQ(msg.authorities_with(RrType::kNs).size(),
            copy_of_type(msg.authorities, RrType::kNs).size());
  EXPECT_TRUE(msg.authorities_with(RrType::kNsec3).empty());
}

TEST(Message, WireSizeMatchesEncodingWithCompression) {
  // wire_size() must replicate the compressor's pointer decisions exactly —
  // sample_response() compresses aggressively (shared example.com suffixes).
  const Message response = sample_response();
  EXPECT_EQ(response.wire_size(), response.to_wire().size());

  // A query (no compression opportunities, EDNS present).
  const Message query =
      Message::make_query(7, Name::must_parse("a.b.example.com"), RrType::kA);
  EXPECT_EQ(query.wire_size(), query.to_wire().size());

  // Names landing past the 0x3fff pointer-offset ceiling must not be
  // registered as compression targets; pad a message past 16 KiB and append
  // repeated owners to force that branch in both encoder and sizer.
  Message big = sample_response();
  for (int i = 0; i < 500; ++i) {
    big.answers.push_back(make_txt(Name::must_parse("pad.example.com"), 60,
                                   std::string(30, 'p')));
  }
  big.answers.push_back(make_txt(
      Name::must_parse("tail.far.example.org"), 60, "x"));
  big.answers.push_back(make_txt(
      Name::must_parse("tail.far.example.org"), 60, "y"));
  ASSERT_GT(big.to_wire().size(), 0x4000u);
  EXPECT_EQ(big.wire_size(), big.to_wire().size());
}

TEST(Message, SummaryMentionsRcodeAndQuestion) {
  const Message msg = sample_response();
  const std::string summary = msg.summary();
  EXPECT_NE(summary.find("NOERROR"), std::string::npos);
  EXPECT_NE(summary.find("www.example.com."), std::string::npos);
  EXPECT_NE(summary.find("AA"), std::string::npos);
}

TEST(Message, FuzzedTruncationNeverCrashes) {
  const Message msg = sample_response();
  const auto wire = msg.to_wire();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    // Must either parse (short prefixes can't) or return nullopt — no UB.
    (void)Message::from_wire(std::span<const std::uint8_t>(wire.data(), len));
  }
  SUCCEED();
}

}  // namespace
}  // namespace zh::dns
