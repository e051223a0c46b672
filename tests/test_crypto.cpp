// Unit tests for zh::crypto: FIPS/RFC test vectors for the hash primitives,
// HMAC vectors (RFC 4231/2202), the RFC 5155 Appendix A NSEC3 vectors, the
// SHA-1 and SHA-256 kernels, the NSEC3 digest memo, and the simulated
// signature scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>

#include "crypto/cost_meter.hpp"
#include "crypto/hmac.hpp"
#include "crypto/nsec3_hash.hpp"
#include "crypto/nsec3_memo.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha2.hpp"
#include "crypto/signing.hpp"

namespace zh::crypto {
namespace {

template <typename Digest>
std::string hex(const Digest& digest) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : digest) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::vector<std::uint8_t> bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Sha1, EmptyInput) {
  EXPECT_EQ(hex(Sha1::hash(std::string_view{})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex(Sha1::hash(std::string_view{"abc"})),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha1::hash(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha1 h;
    h.update(std::string_view(data).substr(0, split));
    h.update(std::string_view(data).substr(split));
    EXPECT_EQ(hex(h.finalize()),
              "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12")
        << "split at " << split;
  }
}

TEST(Sha1, ExactBlockBoundary) {
  // 64 bytes: padding must spill into a second block.
  const std::string data(64, 'x');
  Sha1 a;
  a.update(data);
  Sha1 b;
  b.update(std::string_view(data).substr(0, 32));
  b.update(std::string_view(data).substr(32));
  EXPECT_EQ(hex(a.finalize()), hex(b.finalize()));
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(std::string_view{"garbage"});
  (void)h.finalize();
  h.reset();
  h.update(std::string_view{"abc"});
  EXPECT_EQ(hex(h.finalize()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha256::hash(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// RFC 2202 test case 1 for HMAC-SHA1.
TEST(Hmac, Sha1Rfc2202Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto data = bytes("Hi There");
  const auto mac =
      Hmac<Sha1>::mac(std::span<const std::uint8_t>(key),
                      std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac), "b617318655057264e28bc0b6fb378c8ef146be00");
}

// RFC 4231 test case 1 for HMAC-SHA256.
TEST(Hmac, Sha256Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto data = bytes("Hi There");
  const auto mac =
      Hmac<Sha256>::mac(std::span<const std::uint8_t>(key),
                        std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: key shorter than block, "what do ya want for nothing?"
TEST(Hmac, Sha256Rfc4231Case2) {
  const auto key = bytes("Jefe");
  const auto data = bytes("what do ya want for nothing?");
  const auto mac =
      Hmac<Sha256>::mac(std::span<const std::uint8_t>(key),
                        std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50 bytes of 0xdd.
TEST(Hmac, Sha256Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  const auto mac =
      Hmac<Sha256>::mac(std::span<const std::uint8_t>(key),
                        std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size (131 bytes of 0xaa).
TEST(Hmac, Sha256LongKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto data = bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  const auto mac =
      Hmac<Sha256>::mac(std::span<const std::uint8_t>(key),
                        std::span<const std::uint8_t>(data));
  EXPECT_EQ(hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- NSEC3 hash ---

std::vector<std::uint8_t> wire_name(std::initializer_list<std::string> labels) {
  std::vector<std::uint8_t> out;
  for (const auto& label : labels) {
    out.push_back(static_cast<std::uint8_t>(label.size()));
    out.insert(out.end(), label.begin(), label.end());
  }
  out.push_back(0);
  return out;
}

std::string base32hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuv";
  std::string out;
  std::uint32_t bits = 0;
  int nbits = 0;
  for (const std::uint8_t b : data) {
    bits = (bits << 8) | b;
    nbits += 8;
    while (nbits >= 5) {
      nbits -= 5;
      out.push_back(kDigits[(bits >> nbits) & 0x1f]);
    }
  }
  if (nbits > 0) out.push_back(kDigits[(bits << (5 - nbits)) & 0x1f]);
  return out;
}

// RFC 5155 Appendix A: zone "example", salt aabbccdd, 12 iterations.
TEST(Nsec3Hash, Rfc5155AppendixAExample) {
  const std::vector<std::uint8_t> salt = {0xaa, 0xbb, 0xcc, 0xdd};
  const auto owner = wire_name({"example"});
  const auto digest = nsec3_hash(std::span<const std::uint8_t>(owner),
                                 std::span<const std::uint8_t>(salt), 12);
  EXPECT_EQ(base32hex(std::span<const std::uint8_t>(digest.data(), 20)),
            "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom");
}

TEST(Nsec3Hash, Rfc5155AppendixAAExample) {
  const std::vector<std::uint8_t> salt = {0xaa, 0xbb, 0xcc, 0xdd};
  const auto owner = wire_name({"a", "example"});
  const auto digest = nsec3_hash(std::span<const std::uint8_t>(owner),
                                 std::span<const std::uint8_t>(salt), 12);
  EXPECT_EQ(base32hex(std::span<const std::uint8_t>(digest.data(), 20)),
            "35mthgpgcu1qg68fab165klnsnk3dpvl");
}

TEST(Nsec3Hash, ZeroIterationsIsSingleHash) {
  CostMeter::reset();
  const auto owner = wire_name({"www", "example", "com"});
  (void)nsec3_hash(std::span<const std::uint8_t>(owner), {}, 0);
  // name+salt < 55 bytes: exactly one SHA-1 block.
  EXPECT_EQ(CostMeter::sha1_blocks(), 1u);
  EXPECT_EQ(CostMeter::nsec3_hashes(), 1u);
}

TEST(Nsec3Hash, IterationCountScalesWork) {
  const auto owner = wire_name({"www", "example", "com"});
  CostMeter::reset();
  (void)nsec3_hash(std::span<const std::uint8_t>(owner), {}, 0);
  const auto one = CostMeter::sha1_blocks();
  CostMeter::reset();
  (void)nsec3_hash(std::span<const std::uint8_t>(owner), {}, 150);
  const auto many = CostMeter::sha1_blocks();
  EXPECT_EQ(many, one + 150);  // each extra iteration hashes 20B+salt: 1 block
}

TEST(Nsec3Hash, SaltChangesDigest) {
  const auto owner = wire_name({"example", "com"});
  const std::vector<std::uint8_t> salt1 = {0x01};
  const auto d0 = nsec3_hash(std::span<const std::uint8_t>(owner), {}, 5);
  const auto d1 = nsec3_hash(std::span<const std::uint8_t>(owner),
                             std::span<const std::uint8_t>(salt1), 5);
  EXPECT_NE(d0, d1);
}

TEST(Nsec3Hash, IterationChangesDigest) {
  const auto owner = wire_name({"example", "com"});
  const auto d0 = nsec3_hash(std::span<const std::uint8_t>(owner), {}, 0);
  const auto d1 = nsec3_hash(std::span<const std::uint8_t>(owner), {}, 1);
  EXPECT_NE(d0, d1);
}

// --- Simulated signatures ---

TEST(SimSigning, DeterministicDerivation) {
  const SimKey a = SimKey::derive("example.com/zsk");
  const SimKey b = SimKey::derive("example.com/zsk");
  EXPECT_EQ(a.public_key(), b.public_key());
  const SimKey c = SimKey::derive("example.com/ksk");
  EXPECT_NE(a.public_key(), c.public_key());
}

TEST(SimSigning, SignVerifyRoundTrip) {
  const SimKey key = SimKey::derive("example.org/zsk");
  const auto data = bytes("signed rrset bytes");
  const auto sig = key.sign(std::span<const std::uint8_t>(data));
  EXPECT_TRUE(sim_verify(key.public_key(), std::span<const std::uint8_t>(data),
                         std::span<const std::uint8_t>(sig.data(), sig.size())));
}

TEST(SimSigning, TamperedDataFailsVerification) {
  const SimKey key = SimKey::derive("example.org/zsk");
  auto data = bytes("signed rrset bytes");
  const auto sig = key.sign(std::span<const std::uint8_t>(data));
  data[3] ^= 0x01;
  EXPECT_FALSE(sim_verify(key.public_key(), std::span<const std::uint8_t>(data),
                          std::span<const std::uint8_t>(sig.data(), sig.size())));
}

TEST(SimSigning, WrongKeyFailsVerification) {
  const SimKey key = SimKey::derive("example.org/zsk");
  const SimKey other = SimKey::derive("evil.example/zsk");
  const auto data = bytes("signed rrset bytes");
  const auto sig = key.sign(std::span<const std::uint8_t>(data));
  EXPECT_FALSE(
      sim_verify(other.public_key(), std::span<const std::uint8_t>(data),
                 std::span<const std::uint8_t>(sig.data(), sig.size())));
}

TEST(SimSigning, TruncatedSignatureRejected) {
  const SimKey key = SimKey::derive("example.org/zsk");
  const auto data = bytes("payload");
  const auto sig = key.sign(std::span<const std::uint8_t>(data));
  EXPECT_FALSE(sim_verify(key.public_key(), std::span<const std::uint8_t>(data),
                          std::span<const std::uint8_t>(sig.data(), 31)));
}

TEST(CostMeter, ScopedMeasurement) {
  CostMeter::reset();
  Sha1WorkScope scope;
  (void)Sha1::hash(std::string_view{"abc"});
  EXPECT_EQ(scope.elapsed(), 1u);
  (void)Sha1::hash(std::string_view(std::string(200, 'x')));
  EXPECT_GE(scope.elapsed(), 4u);
}

// --- SHA-1 kernels (Sha1, sha1_iterate, nsec3_hash) ---

/// Forces the scalar kernel on or off for one scope, restoring the previous
/// setting. Off runs the host's default kernel: SHA-NI where it has it.
class ScopedSha1Scalar {
 public:
  explicit ScopedSha1Scalar(bool on) : previous_(sha1_scalar_forced()) {
    force_sha1_scalar(on);
  }
  ~ScopedSha1Scalar() { force_sha1_scalar(previous_); }

 private:
  bool previous_;
};

const char* kernel_name(bool scalar) {
  return scalar ? "scalar" : "default";
}

/// Deterministic messages 0–300 bytes long across the padding edge cases
/// (empty, the 55/56 split, exact blocks, multi-block).
std::vector<std::vector<std::uint8_t>> ragged_messages() {
  std::vector<std::vector<std::uint8_t>> messages;
  std::uint32_t lcg = 0x5eed1234u;
  const std::size_t lengths[] = {0,  1,  55, 56,  63, 64,  65,  119,
                                 120, 127, 128, 129, 200, 256, 300, 3};
  for (const std::size_t len : lengths) {
    std::vector<std::uint8_t> message(len);
    for (auto& b : message) {
      lcg = lcg * 1664525u + 1013904223u;
      b = static_cast<std::uint8_t>(lcg >> 24);
    }
    messages.push_back(std::move(message));
  }
  return messages;
}

/// Pins the NSEC3 digest memo on or off for one scope and empties it on
/// both ends, so a test sees its own hits only.
class ScopedDigestMemo {
 public:
  explicit ScopedDigestMemo(bool on) : previous_(Nsec3DigestMemo::enabled()) {
    Nsec3DigestMemo::set_enabled(on);
    Nsec3DigestMemo::instance().clear();
  }
  ~ScopedDigestMemo() {
    Nsec3DigestMemo::instance().clear();
    Nsec3DigestMemo::set_enabled(previous_);
  }

 private:
  bool previous_;
};

TEST(Sha1SingleStream, ScalarForcesTheScalarKernel) {
  ScopedSha1Scalar scoped(true);
  EXPECT_EQ(sha1_single_compress(), &sha1_compress_scalar);
  EXPECT_EQ(sha256_compress(), &sha256_compress_scalar);
}

TEST(Sha1SingleStream, DefaultKernelMatchesScalarOnRandomBlocks) {
  ScopedSha1Scalar scoped(false);
  const Sha1CompressFn kernel = sha1_single_compress();
  if (kernel == &sha1_compress_scalar)
    GTEST_SKIP() << "SHA-NI not supported by this host/build";

  std::mt19937_64 rng(0x5eed5a1);
  for (int pair = 0; pair < 100'000; ++pair) {
    std::uint32_t expected[5];
    for (auto& word : expected) word = static_cast<std::uint32_t>(rng());
    std::uint8_t block[Sha1::kBlockSize];
    for (std::size_t i = 0; i < sizeof block; i += 8) {
      const std::uint64_t r = rng();
      std::memcpy(block + i, &r, 8);
    }
    std::uint32_t actual[5];
    std::memcpy(actual, expected, sizeof actual);
    sha1_compress_scalar(expected, block);
    kernel(actual, block);
    ASSERT_TRUE(std::equal(expected, expected + 5, actual))
        << "pair " << pair;
  }
}

TEST(Sha1SingleStream, Rfc3174VectorsOnEveryKernel) {
  // Beside the RFC 3174 vectors, the ragged messages must hash under every
  // kernel as under the scalar reference, ticking one logical and one
  // physical block per padded block.
  const auto messages = ragged_messages();
  std::vector<std::string> reference;
  {
    ScopedSha1Scalar scoped(true);
    for (const auto& message : messages)
      reference.push_back(hex(Sha1::hash(
          std::span<const std::uint8_t>(message.data(), message.size()))));
  }
  for (const bool scalar : {true, false}) {
    ScopedSha1Scalar scoped(scalar);
    EXPECT_EQ(hex(Sha1::hash(std::string_view{"abc"})),
              "a9993e364706816aba3e25717850c26c9cd0d89d")
        << kernel_name(scalar);
    EXPECT_EQ(
        hex(Sha1::hash(std::string_view{
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1")
        << kernel_name(scalar);
    Sha1 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex(h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f")
        << kernel_name(scalar);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      CostMeter::reset();
      EXPECT_EQ(hex(Sha1::hash(std::span<const std::uint8_t>(
                    messages[i].data(), messages[i].size()))),
                reference[i])
          << kernel_name(scalar) << " message " << i;
      const std::uint64_t blocks =
          (messages[i].size() + 8) / Sha1::kBlockSize + 1;
      EXPECT_EQ(CostMeter::sha1_blocks(), blocks)
          << kernel_name(scalar) << " message " << i;
      EXPECT_EQ(CostMeter::sha1_physical_blocks(), blocks)
          << kernel_name(scalar) << " message " << i;
    }
  }
}

TEST(Sha1SingleStream, Rfc5155VectorsOnEveryKernel) {
  ScopedDigestMemo memo_off(false);
  const std::vector<std::uint8_t> salt = {0xaa, 0xbb, 0xcc, 0xdd};
  for (const bool scalar : {true, false}) {
    ScopedSha1Scalar scoped(scalar);
    const auto apex = wire_name({"example"});
    const auto child = wire_name({"a", "example"});
    EXPECT_EQ(base32hex(nsec3_hash(std::span<const std::uint8_t>(apex),
                                   std::span<const std::uint8_t>(salt), 12)),
              "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom")
        << kernel_name(scalar);
    EXPECT_EQ(base32hex(nsec3_hash(std::span<const std::uint8_t>(child),
                                   std::span<const std::uint8_t>(salt), 12)),
              "35mthgpgcu1qg68fab165klnsnk3dpvl")
        << kernel_name(scalar);
  }
}

TEST(Sha1SingleStream, IterateMatchesSha1LoopForEverySuffixShape) {
  // Suffix lengths across the padding edges of the pre-padded buffer, up to
  // the 255-byte salt ceiling, and one past the buffer (streaming path).
  for (const std::size_t suffix_len : {0u, 4u, 35u, 36u, 99u, 100u, 255u,
                                       400u}) {
    std::vector<std::uint8_t> suffix(suffix_len);
    for (std::size_t i = 0; i < suffix_len; ++i)
      suffix[i] = static_cast<std::uint8_t>(i * 37 + 11);
    const Sha1::Digest seed = Sha1::hash(std::string_view{"seed"});
    constexpr std::uint16_t kIterations = 7;

    Sha1::Digest expected = seed;
    CostMeter::reset();
    for (std::uint16_t it = 0; it < kIterations; ++it) {
      Sha1 h;
      h.update(std::span<const std::uint8_t>(expected.data(),
                                             expected.size()));
      h.update(std::span<const std::uint8_t>(suffix.data(), suffix.size()));
      expected = h.finalize();
    }
    const std::uint64_t expected_blocks = CostMeter::sha1_blocks();

    for (const bool scalar : {true, false}) {
      ScopedSha1Scalar scoped(scalar);
      Sha1::Digest digest = seed;
      CostMeter::reset();
      sha1_iterate(digest,
                   std::span<const std::uint8_t>(suffix.data(), suffix.size()),
                   kIterations);
      EXPECT_EQ(hex(digest), hex(expected))
          << kernel_name(scalar) << " suffix " << suffix_len;
      EXPECT_EQ(CostMeter::sha1_blocks(), expected_blocks)
          << kernel_name(scalar) << " suffix " << suffix_len;
      EXPECT_EQ(CostMeter::sha1_physical_blocks(), expected_blocks)
          << kernel_name(scalar) << " suffix " << suffix_len;
    }
  }
}

TEST(Sha1SingleStream, FollowsTheEnvironmentKnob) {
  // ctest runs this once more under ZH_SHA1_IMPL=scalar, which must force
  // the scalar SHA-1 and SHA-256 kernels, and under a retired kernel name,
  // which is diagnosed and leaves the default kernels in place.
  const char* raw = std::getenv("ZH_SHA1_IMPL");
  const bool scalar = raw != nullptr && std::string_view(raw) == "scalar";
  EXPECT_EQ(sha1_scalar_forced(), scalar);
  if (scalar) {
    EXPECT_EQ(sha1_single_compress(), &sha1_compress_scalar);
    EXPECT_EQ(sha256_compress(), &sha256_compress_scalar);
  }
}

// --- SHA-256 kernels (Sha256, sha256_compress) ---

TEST(Sha256Kernel, DefaultKernelMatchesScalarOnRandomBlocks) {
  ScopedSha1Scalar scoped(false);
  const Sha256CompressFn kernel = sha256_compress();
  if (kernel == &sha256_compress_scalar)
    GTEST_SKIP() << "SHA-NI not supported by this host/build";

  std::mt19937_64 rng(0x5eed256);
  for (int pair = 0; pair < 100'000; ++pair) {
    std::uint32_t expected[8];
    for (auto& word : expected) word = static_cast<std::uint32_t>(rng());
    std::uint8_t block[Sha256::kBlockSize];
    for (std::size_t i = 0; i < sizeof block; i += 8) {
      const std::uint64_t r = rng();
      std::memcpy(block + i, &r, 8);
    }
    std::uint32_t actual[8];
    std::memcpy(actual, expected, sizeof actual);
    sha256_compress_scalar(expected, block);
    kernel(actual, block);
    ASSERT_TRUE(std::equal(expected, expected + 8, actual))
        << "pair " << pair;
  }
}

TEST(Sha256Kernel, Fips180VectorsOnEveryKernel) {
  // FIPS 180-4 examples plus the ragged messages, under every kernel, each
  // ticking one logical sha2 block per padded block.
  const auto messages = ragged_messages();
  std::vector<std::string> reference;
  {
    ScopedSha1Scalar scoped(true);
    for (const auto& message : messages)
      reference.push_back(hex(Sha256::hash(
          std::span<const std::uint8_t>(message.data(), message.size()))));
  }
  for (const bool scalar : {true, false}) {
    ScopedSha1Scalar scoped(scalar);
    EXPECT_EQ(
        hex(Sha256::hash(std::string_view{})),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << kernel_name(scalar);
    EXPECT_EQ(
        hex(Sha256::hash(std::string_view{"abc"})),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << kernel_name(scalar);
    EXPECT_EQ(
        hex(Sha256::hash(std::string_view{
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << kernel_name(scalar);
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(
        hex(h.finalize()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << kernel_name(scalar);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      CostMeter::reset();
      EXPECT_EQ(hex(Sha256::hash(std::span<const std::uint8_t>(
                    messages[i].data(), messages[i].size()))),
                reference[i])
          << kernel_name(scalar) << " message " << i;
      EXPECT_EQ(CostMeter::sha2_blocks(),
                (messages[i].size() + 8) / Sha256::kBlockSize + 1)
          << kernel_name(scalar) << " message " << i;
    }
  }
}

TEST(Sha256Kernel, Rfc4231HmacOnEveryKernel) {
  struct Case {
    std::vector<std::uint8_t> key;
    std::vector<std::uint8_t> data;
    const char* mac;
  };
  const std::vector<Case> cases = {
      {std::vector<std::uint8_t>(20, 0x0b), bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {bytes("Jefe"), bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<std::uint8_t>(20, 0xaa), std::vector<std::uint8_t>(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {std::vector<std::uint8_t>(131, 0xaa),
       bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const bool scalar : {true, false}) {
    ScopedSha1Scalar scoped(scalar);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(hex(Hmac<Sha256>::mac(
                    std::span<const std::uint8_t>(cases[i].key),
                    std::span<const std::uint8_t>(cases[i].data))),
                cases[i].mac)
          << kernel_name(scalar) << " case " << i;
    }
  }
}

// --- NSEC3 digest memo (nsec3_memo.hpp) ---

/// Physical and logical meter deltas of one nsec3_hash call.
struct HashWork {
  Nsec3Digest digest;
  std::uint64_t logical;
  std::uint64_t physical;
  std::uint64_t hashes;
};

HashWork hash_once(std::span<const std::uint8_t> owner,
                   std::span<const std::uint8_t> salt,
                   std::uint16_t iterations) {
  const std::uint64_t logical = CostMeter::sha1_blocks();
  const std::uint64_t physical = CostMeter::sha1_physical_blocks();
  const std::uint64_t hashes = CostMeter::nsec3_hashes();
  const Nsec3Digest digest = nsec3_hash(owner, salt, iterations);
  return {digest, CostMeter::sha1_blocks() - logical,
          CostMeter::sha1_physical_blocks() - physical,
          CostMeter::nsec3_hashes() - hashes};
}

TEST(Nsec3DigestMemo, HitCreditsLogicalWorkAndNoPhysicalBlocks) {
  ScopedDigestMemo memo_on(true);
  const auto owner = wire_name({"www", "example", "com"});
  const std::vector<std::uint8_t> salt = {0xaa, 0xbb};
  for (const std::uint16_t iterations : {0, 50}) {
    Nsec3DigestMemo::instance().clear();
    const HashWork miss = hash_once(owner, salt, iterations);
    EXPECT_EQ(miss.logical, 1u + iterations);
    EXPECT_EQ(miss.physical, miss.logical);
    EXPECT_EQ(miss.hashes, 1u);
    EXPECT_EQ(Nsec3DigestMemo::instance().size(), 1u);

    const HashWork hit = hash_once(owner, salt, iterations);
    EXPECT_EQ(hit.digest, miss.digest) << iterations;
    EXPECT_EQ(hit.logical, miss.logical) << iterations;
    EXPECT_EQ(hit.hashes, 1u) << iterations;
    EXPECT_EQ(hit.physical, 0u) << iterations;
    EXPECT_EQ(Nsec3DigestMemo::instance().size(), 1u);
  }
}

TEST(Nsec3DigestMemo, KeysExactlyOnOwnerSaltAndIterations) {
  ScopedDigestMemo memo_on(true);
  const auto owner = wire_name({"ab", "example"});
  const std::vector<std::uint8_t> salt = {0x01, 0x02};
  // The same owner ‖ salt bytes split two ways: H(owner ‖ salt) is shared,
  // but every re-hash appends a different salt.
  const std::vector<std::uint8_t> shifted_owner(owner.begin(),
                                                owner.end() - 1);
  const std::vector<std::uint8_t> shifted_salt = {owner.back(), 0x01, 0x02};
  const std::vector<std::uint8_t> short_salt = {0x01};
  struct Near {
    std::span<const std::uint8_t> owner;
    std::span<const std::uint8_t> salt;
    std::uint16_t iterations;
    const char* what;
  };
  for (const Near& near :
       {Near{shifted_owner, shifted_salt, 5, "bytes moved to the salt"},
        Near{owner, salt, 6, "another iteration count"},
        Near{owner, short_salt, 5, "a shorter salt"}}) {
    Nsec3DigestMemo::instance().clear();
    const HashWork first = hash_once(owner, salt, 5);
    const HashWork other = hash_once(near.owner, near.salt, near.iterations);
    EXPECT_GT(other.physical, 0u) << near.what << " hit";
    EXPECT_NE(other.digest, first.digest) << near.what;
    // The answer is the one computing from scratch gives.
    Nsec3DigestMemo::set_enabled(false);
    EXPECT_EQ(other.digest, nsec3_hash(near.owner, near.salt, near.iterations))
        << near.what;
    Nsec3DigestMemo::set_enabled(true);
  }
}

TEST(Nsec3DigestMemo, KeysSharingASlotNeverMatch) {
  // A key that lands in another key's slot must miss and evict it, never
  // answer with the other key's digest.
  ScopedDigestMemo memo_on(true);
  const auto target = wire_name({"www", "example", "com"});
  bool shared = false;
  for (std::size_t i = 0; i < 10 * Nsec3DigestMemo::kCapacity && !shared;
       ++i) {
    Nsec3DigestMemo::instance().clear();
    (void)hash_once(target, {}, 0);
    const auto other = wire_name({"host" + std::to_string(i), "example"});
    ASSERT_GT(hash_once(other, {}, 0).physical, 0u) << "host" << i << " hit";
    shared = hash_once(target, {}, 0).physical > 0;
  }
  EXPECT_TRUE(shared) << "no key landed in the target's slot";
}

TEST(Nsec3DigestMemo, SizeNeverExceedsCapacity) {
  ScopedDigestMemo memo_on(true);
  Nsec3DigestMemo& memo = Nsec3DigestMemo::instance();
  const std::vector<std::uint8_t> salt = {0x5a};
  std::size_t peak = 0;
  for (std::size_t i = 0; i < 10 * Nsec3DigestMemo::kCapacity; ++i) {
    const auto owner = wire_name({"host" + std::to_string(i), "example"});
    (void)nsec3_hash(owner, salt, 0);
    peak = std::max(peak, memo.size());
    ASSERT_LE(memo.size(), Nsec3DigestMemo::kCapacity) << "key " << i;
  }
  // 2,560 distinct keys fill every slot.
  EXPECT_EQ(peak, Nsec3DigestMemo::kCapacity);
}

TEST(Nsec3DigestMemo, LongKeysBypassTheMemo) {
  ScopedDigestMemo memo_on(true);
  const auto owner = wire_name({"www", "example", "com"});
  const std::vector<std::uint8_t> long_salt(Nsec3DigestMemo::kMaxKeyBytes,
                                            0x33);
  (void)hash_once(owner, long_salt, 10);
  EXPECT_GT(hash_once(owner, long_salt, 10).physical, 0u);
  EXPECT_EQ(Nsec3DigestMemo::instance().size(), 0u);
}

TEST(Nsec3DigestMemo, DisabledMemoRecomputes) {
  ScopedDigestMemo memo_off(false);
  const auto owner = wire_name({"www", "example", "com"});
  const HashWork first = hash_once(owner, {}, 20);
  const HashWork second = hash_once(owner, {}, 20);
  EXPECT_EQ(second.digest, first.digest);
  EXPECT_EQ(second.physical, 21u);
  EXPECT_EQ(Nsec3DigestMemo::instance().size(), 0u);
}

TEST(Nsec3DigestMemo, ClearEmptiesTheMemo) {
  ScopedDigestMemo memo_on(true);
  const auto owner = wire_name({"www", "example", "com"});
  (void)hash_once(owner, {}, 20);
  ASSERT_EQ(Nsec3DigestMemo::instance().size(), 1u);
  Nsec3DigestMemo::instance().clear();
  EXPECT_EQ(Nsec3DigestMemo::instance().size(), 0u);
  EXPECT_EQ(hash_once(owner, {}, 20).physical, 21u);
}

TEST(Nsec3DigestMemo, ThreadsNeverShareEntries) {
  ScopedDigestMemo memo_on(true);
  const auto owner = wire_name({"www", "example", "com"});
  (void)hash_once(owner, {}, 20);
  ASSERT_EQ(hash_once(owner, {}, 20).physical, 0u);

  std::size_t other_size_before = 1;
  HashWork other{};
  std::thread worker([&] {
    other_size_before = Nsec3DigestMemo::instance().size();
    other = hash_once(owner, {}, 20);
  });
  worker.join();
  EXPECT_EQ(other_size_before, 0u);
  EXPECT_EQ(other.physical, 21u) << "a second thread hit the first's entry";
  EXPECT_EQ(Nsec3DigestMemo::instance().size(), 1u);
}

TEST(Nsec3DigestMemo, FollowsTheEnvironmentKnob) {
  // ctest runs this once more with ZH_CHAIN_MEMO=0, the one memo knob.
  const char* raw = std::getenv("ZH_CHAIN_MEMO");
  const bool off = raw != nullptr && std::string_view(raw) == "0";
  EXPECT_EQ(Nsec3DigestMemo::enabled(), !off);
  if (!off) return;
  Nsec3DigestMemo::instance().clear();
  const auto owner = wire_name({"www", "example", "com"});
  (void)hash_once(owner, {}, 20);
  EXPECT_EQ(hash_once(owner, {}, 20).physical, 21u);
}

}  // namespace
}  // namespace zh::crypto
