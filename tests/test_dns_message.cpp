// Unit tests for the message model and wire codec: header flags, sections,
// name compression (write + read), EDNS/EDE, and malformed-input rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <string>
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

/// Size of `msg` with every name written out in full: the bound fits_in()
/// tries before it pays for compression.
std::size_t uncompressed_size(const Message& msg) {
  std::size_t size = 12;
  for (const auto& q : msg.questions) size += q.name.to_wire().size() + 4;
  for (const auto* section : {&msg.answers, &msg.authorities,
                              &msg.additionals}) {
    for (const auto& rr : *section)
      size += rr.name.to_wire().size() + 10 + rr.rdata.size();
  }
  if (msg.edns) {
    size += 11;
    for (const auto& option : msg.edns->options)
      size += 4 + option.data.size();
  }
  return size;
}

/// A seeded message whose names share suffixes (and differ in case), so
/// compression has work to do, with an OPT record carrying options.
Message random_message(std::mt19937& rng) {
  static const char* const kLabels[] = {"a",  "Bb",    "example", "COM",
                                        "org", "ns1",  "www",     "x",
                                        "rfc9276-in-the-wild"};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto name = [&] {
    std::vector<std::string> labels;
    const std::size_t count = pick(5);
    for (std::size_t i = 0; i < count; ++i) {
      std::string label = kLabels[pick(std::size(kLabels))];
      if (pick(4) == 0) label = std::string(1 + pick(63), 'q');
      labels.push_back(std::move(label));
    }
    return Name::from_labels(std::move(labels)).value_or(Name::root());
  };
  const auto bytes = [&](std::size_t max) {
    std::vector<std::uint8_t> out(pick(max + 1));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng());
    return out;
  };
  Message msg;
  msg.header.id = static_cast<std::uint16_t>(rng());
  msg.header.qr = true;
  for (std::size_t i = pick(3); i > 0; --i)
    msg.questions.push_back(Question{name(), RrType::kA, RrClass::kIn});
  for (auto* section : {&msg.answers, &msg.authorities, &msg.additionals}) {
    for (std::size_t i = pick(7); i > 0; --i) {
      section->push_back(ResourceRecord{name(), RrType::kTxt, RrClass::kIn,
                                        300, bytes(120)});
    }
  }
  if (pick(4) != 0) {
    Edns edns;
    for (std::size_t i = pick(4); i > 0; --i)
      edns.options.push_back(EdnsOption{static_cast<std::uint16_t>(rng()),
                                        bytes(40)});
    msg.edns = std::move(edns);
  }
  return msg;
}

TEST(MessageFitsIn, AgreesWithWireSizeAtEveryLimitNearTheSize) {
  // Limits around the compressed size and around the uncompressed bound:
  // fits_in(l) must be exactly wire_size() <= l on both sides of each.
  std::mt19937 rng(0xf17510);
  std::size_t compressed_below_bound = 0;
  for (int round = 0; round < 2000; ++round) {
    const Message msg = random_message(rng);
    const std::size_t size = msg.wire_size();
    ASSERT_EQ(size, msg.to_wire().size()) << "round " << round;
    const std::size_t bound = uncompressed_size(msg);
    ASSERT_LE(size, bound) << "round " << round;
    if (size < bound) ++compressed_below_bound;
    for (const std::size_t centre : {size, bound}) {
      for (std::size_t limit = centre - 2; limit <= centre + 2; ++limit) {
        EXPECT_EQ(msg.fits_in(limit), size <= limit)
            << "round " << round << " limit " << limit << " size " << size
            << " bound " << bound;
      }
    }
  }
  // The draw must exercise the fallback: most messages compress.
  EXPECT_GT(compressed_below_bound, 1000u);
}

TEST(MessageFitsIn, FitsOnlyOnceCompressed) {
  // Twenty-five records under one long owner: the bound is far over 512,
  // the compressed message is not.
  Message msg = Message::make_response(Message::make_query(
      1, Name::must_parse("www.a-rather-long-zone-name.example.com"),
      RrType::kTxt));
  for (int i = 0; i < 25; ++i) {
    msg.answers.push_back(make_txt(
        Name::must_parse("www.a-rather-long-zone-name.example.com"), 60,
        std::to_string(i)));
  }
  ASSERT_GT(uncompressed_size(msg), 512u);
  ASSERT_LE(msg.wire_size(), 512u);
  EXPECT_TRUE(msg.fits_in(512));
  EXPECT_TRUE(msg.fits_in(msg.wire_size()));
  EXPECT_FALSE(msg.fits_in(msg.wire_size() - 1));
}

TEST(MessageFitsIn, Nsec3ProofNxdomainAtTheUdpLimits) {
  // The Fig. 3 answer shape: NXDOMAIN with SOA and three NSEC3 records, each
  // with its RRSIG, at the classic 512-byte limit and the 1232-byte EDNS
  // default.
  const Name zone = Name::must_parse("it-500.rfc9276-in-the-wild.com");
  Message msg = Message::make_response(Message::make_query(
      1, Name::must_parse("x.nx.it-500.rfc9276-in-the-wild.com"), RrType::kA));
  msg.header.rcode = Rcode::kNxDomain;
  msg.authorities.push_back(
      make_soa(zone, 3600, Name::must_parse("ns1.example.net"), 1));
  for (int i = 0; i < 3; ++i) {
    Nsec3Rdata nsec3;
    nsec3.iterations = 500;
    nsec3.next_hash.assign(20, static_cast<std::uint8_t>(i * 40 + 7));
    nsec3.types = TypeBitmap({RrType::kA, RrType::kRrsig});
    const Name owner = *zone.prepended(std::string(32, 'a' + i));
    msg.authorities.push_back(
        ResourceRecord::make(owner, RrType::kNsec3, 3600, nsec3));
    RrsigRdata sig;
    sig.type_covered = static_cast<std::uint16_t>(RrType::kNsec3);
    sig.signer = zone;
    sig.signature.assign(32, 0x42);
    msg.authorities.push_back(
        ResourceRecord::make(owner, RrType::kRrsig, 3600, sig));
  }
  const std::size_t size = msg.wire_size();
  ASSERT_GT(size, 512u);
  ASSERT_LE(size, 1232u);
  EXPECT_FALSE(msg.fits_in(512));
  EXPECT_TRUE(msg.fits_in(1232));
  EXPECT_TRUE(msg.fits_in(size));
  EXPECT_FALSE(msg.fits_in(size - 1));
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

// --- Reference: the string-keyed compressor the offset table replaced ----

/// Test-local reference copy of the former name compressor: one lowercased
/// `std::string` key per suffix in a `std::map`, first registration wins,
/// nothing registered at or past 0x4000.
class ReferenceCompressor {
 public:
  void write(std::vector<std::uint8_t>& out, const Name& name) {
    std::size_t skip = 0;
    std::optional<std::uint16_t> pointer;
    for (; skip < name.label_count(); ++skip) {
      const auto it = offsets_.find(key(name, skip));
      if (it != offsets_.end()) {
        pointer = it->second;
        break;
      }
    }
    for (std::size_t i = 0; i < skip; ++i) {
      if (out.size() < 0x4000)
        offsets_.emplace(key(name, i),
                         static_cast<std::uint16_t>(out.size()));
      const std::string_view label = name.label(i);
      out.push_back(static_cast<std::uint8_t>(label.size()));
      out.insert(out.end(), label.begin(), label.end());
    }
    if (pointer) {
      out.push_back(static_cast<std::uint8_t>(0xc0 | (*pointer >> 8)));
      out.push_back(static_cast<std::uint8_t>(*pointer));
    } else {
      out.push_back(0);
    }
  }

 private:
  static std::string key(const Name& name, std::size_t from) {
    std::string out;
    for (std::size_t i = from; i < name.label_count(); ++i) {
      const std::string_view label = name.label(i);
      out.push_back(static_cast<char>(label.size()));
      for (const char c : label)
        out.push_back((c >= 'A' && c <= 'Z') ? static_cast<char>(c + 32) : c);
    }
    return out;
  }
  std::map<std::string, std::uint16_t> offsets_;
};

/// The former Message::to_wire for messages without EDNS.
std::vector<std::uint8_t> reference_wire(const Message& msg) {
  std::vector<std::uint8_t> out = msg.to_wire();
  out.resize(12);  // the header is compression-free
  ReferenceCompressor compressor;
  const auto u16 = [&](std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
  };
  for (const auto& q : msg.questions) {
    compressor.write(out, q.name);
    u16(static_cast<std::uint16_t>(q.type));
    u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const auto* section : {&msg.answers, &msg.authorities,
                              &msg.additionals}) {
    for (const auto& rr : *section) {
      compressor.write(out, rr.name);
      u16(static_cast<std::uint16_t>(rr.type));
      u16(static_cast<std::uint16_t>(rr.klass));
      u16(static_cast<std::uint16_t>(rr.ttl >> 16));
      u16(static_cast<std::uint16_t>(rr.ttl));
      u16(static_cast<std::uint16_t>(rr.rdata.size()));
      out.insert(out.end(), rr.rdata.begin(), rr.rdata.end());
    }
  }
  return out;
}

TEST(NameCompression, MatchesTheStringKeyedReference) {
  std::mt19937_64 rng(4104);
  static const char* const kLabels[] = {"Example", "example", "EXAMPLE",
                                        "com",     "Com",     "ns1",
                                        "www",     "WwW",     "d12345",
                                        "tld0001", "it-150",  "a"};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t past_cap = 0;
  for (int m = 0; m < 2000; ++m) {
    const auto name = [&] {
      std::vector<std::string> labels;
      for (std::size_t i = pick(6); i > 0; --i) {
        std::string label = kLabels[pick(std::size(kLabels))];
        if (pick(8) == 0)
          label = std::string(1 + pick(63), pick(2) ? 'q' : 'Q');
        labels.push_back(std::move(label));
      }
      return Name::from_labels(std::move(labels)).value_or(Name::root());
    };
    Message msg;
    msg.header.id = static_cast<std::uint16_t>(m);
    msg.questions.push_back(Question{name(), RrType::kA, RrClass::kIn});
    // Every 20th message runs past offset 0x4000.
    const std::size_t records = m % 20 == 0 ? 700 + pick(300) : pick(40);
    for (std::size_t i = 0; i < records; ++i) {
      ResourceRecord rr;
      rr.name = name();
      rr.type = RrType::kTxt;
      rr.ttl = 300;
      rr.rdata.assign(pick(30), static_cast<std::uint8_t>(i));
      (pick(3) == 0 ? msg.authorities : msg.answers).push_back(std::move(rr));
    }
    const auto wire = msg.to_wire();
    ASSERT_EQ(wire, reference_wire(msg)) << "message " << m;
    ASSERT_EQ(msg.wire_size(), wire.size()) << "message " << m;
    past_cap += wire.size() > 0x4000 ? 1 : 0;
  }
  EXPECT_GE(past_cap, 50u);
}

}  // namespace
}  // namespace zh::dns
