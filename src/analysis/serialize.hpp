// Canonical binary codec for the mergeable analysis aggregates.
//
// Multi-host campaigns (scanner/serialize.hpp) ship per-shard statistics
// through files, so the encoding must be *canonical*: the same aggregate
// always serialises to the same bytes, on every platform. The format is
// little-endian, length-prefixed, and versioned; decoding is strict —
// truncated, tampered or version-bumped input yields a typed DecodeError,
// never UB (every read goes through the bounds-checked dns::ByteReader
// cursor) and never a silently wrong aggregate (decoders reject
// non-canonical shapes such as unsorted histogram keys or zero counts).
//
// Layering: Encoder/Decoder wrap the dns/io.hpp primitives (header-only,
// so zh_analysis gains no link dependency). scanner/serialize.hpp builds
// the campaign-level codecs and the shard-artefact envelope on top.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "dns/io.hpp"

namespace zh::analysis {

/// Why a decode failed. kNone means success.
enum class DecodeErrc {
  kNone = 0,
  kTruncated,      // input ended inside a field
  kBadMagic,       // not a zh artefact
  kBadVersion,     // format version this build does not speak
  kBadValue,       // a field failed validation (non-canonical input)
  kChecksum,       // payload checksum mismatch (bit corruption)
  kTrailingBytes,  // a well-formed value followed by extra bytes
};
const char* decode_errc_name(DecodeErrc code) noexcept;

/// Typed decode failure: a code plus a human-readable context string.
struct DecodeError {
  DecodeErrc code = DecodeErrc::kNone;
  std::string detail;
  explicit operator bool() const noexcept { return code != DecodeErrc::kNone; }
  std::string to_string() const;
};

/// FNV-1a 64-bit over a byte span — the artefact payload checksum. Every
/// single-bit flip changes the digest (xor-then-multiply-by-odd-prime is
/// a bijection per byte), so corrupted shard files fail typed, not silent.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept;

/// Little-endian append-only sink over dns::ByteWriter.
class Encoder {
 public:
  void u8(std::uint8_t v) { out_.u8(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  void str(const std::string& s);
  void bytes(std::span<const std::uint8_t> data) { out_.bytes(data); }

  std::size_t size() const noexcept { return out_.size(); }
  const std::vector<std::uint8_t>& data() const noexcept {
    return out_.data();
  }
  std::vector<std::uint8_t> take() { return out_.take(); }

 private:
  dns::ByteWriter out_;
};

/// Little-endian bounds-checked cursor over dns::ByteReader. Errors are
/// sticky: after the first failure every further read returns false and
/// error() explains the first one.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) noexcept
      : reader_(data) {}

  bool ok() const noexcept { return error_.code == DecodeErrc::kNone; }
  const DecodeError& error() const noexcept { return error_; }
  /// Records the first error; always returns false (for `return fail(...)`).
  bool fail(DecodeErrc code, std::string detail);

  bool u8(std::uint8_t& out);
  bool u16(std::uint16_t& out);
  bool u32(std::uint32_t& out);
  bool u64(std::uint64_t& out);
  bool i64(std::int64_t& out);
  bool str(std::string& out);
  /// Fails with kBadMagic unless the next 4 bytes equal `expect`.
  bool magic(const char* expect);
  /// Fails with kTrailingBytes unless the cursor consumed everything.
  bool expect_end();

  std::size_t remaining() const noexcept { return reader_.remaining(); }
  std::size_t position() const noexcept { return reader_.position(); }

 private:
  dns::ByteReader reader_;
  DecodeError error_;
};

/// Ecdf ⇄ bytes: u64 entry count, then (i64 value, u64 count) pairs in
/// strictly ascending value order with non-zero counts — the canonical
/// form encode emits and decode enforces.
void encode(Encoder& enc, const Ecdf& ecdf);
bool decode(Decoder& dec, Ecdf& out);

/// FreqTable ⇄ bytes: u64 entry count, then (string key, u64 count) pairs
/// in strictly ascending key order with non-zero counts.
void encode(Encoder& enc, const FreqTable& table);
bool decode(Decoder& dec, FreqTable& out);

/// Binary file I/O for shard artefacts ("wb"/"rb" — byte-exact on every
/// platform). read_bytes_file returns nullopt on any I/O failure.
bool write_bytes_file(const std::string& path,
                      std::span<const std::uint8_t> data);
std::optional<std::vector<std::uint8_t>> read_bytes_file(
    const std::string& path);

}  // namespace zh::analysis
