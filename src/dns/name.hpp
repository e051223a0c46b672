// Domain names (RFC 1035 §3.1) with canonical form and ordering (RFC 4034
// §6). NSEC3 hashing operates on the canonical (lowercased, uncompressed)
// wire form, and NSEC3 chains are ordered by hash value — but the closest
// encloser search walks *name* ancestry, so both views live here.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace zh::dns {

/// An absolute domain name, stored flat: its uncompressed wire form
/// (length-prefixed labels, then the root octet), case preserved, in one
/// buffer. Up to kInlineCapacity octets live inside the object, so copying
/// such a name allocates nothing; a longer name owns one heap block of
/// exactly its wire length.
///
/// Invariants: each label is 1..63 octets; total wire length ≤ 255 octets.
/// Labels preserve the case they were constructed with; comparisons, the
/// hash and canonical forms are case-insensitive per RFC 1035 §2.3.3 /
/// RFC 4034 §6.2.
class Name {
 public:
  static constexpr std::size_t kMaxLabelLength = 63;
  static constexpr std::size_t kMaxWireLength = 255;
  /// Wire octets kept inside the object (the root octet included).
  static constexpr std::size_t kInlineCapacity = 62;

  /// The root name ".".
  Name() noexcept = default;
  Name(const Name& other);
  Name(Name&& other) noexcept;
  Name& operator=(const Name& other);
  Name& operator=(Name&& other) noexcept;
  ~Name();

  /// Parses presentation format ("www.example.com", trailing dot optional,
  /// "\\." escapes not supported — the study never needs them). Returns
  /// nullopt on empty labels, oversize labels or oversize names.
  static std::optional<Name> parse(std::string_view text);

  /// Like parse() but terminates on invalid input; for literals known good.
  static Name must_parse(std::string_view text);

  static Name root() { return Name{}; }

  /// Builds a name from raw labels (front = leftmost). Returns nullopt if
  /// any invariant is violated.
  static std::optional<Name> from_labels(std::vector<std::string> labels);

  /// Builds a name from exactly one uncompressed wire name: labels of
  /// 1..63 octets, then the root octet as the span's last byte, 255 octets
  /// at most. Returns nullopt otherwise (compression pointers included).
  static std::optional<Name> from_wire(std::span<const std::uint8_t> wire);

  bool is_root() const noexcept { return labels_ == 0; }
  std::size_t label_count() const noexcept { return labels_; }
  /// The i-th label, leftmost first; a view into this name's buffer.
  std::string_view label(std::size_t i) const noexcept;

  /// Number of octets in the uncompressed wire form (≥ 1 for the root).
  std::size_t wire_length() const noexcept { return length_; }

  /// The stored bytes: the uncompressed wire form, case preserved.
  std::span<const std::uint8_t> wire() const noexcept {
    return {data(), length_};
  }

  /// True if this name equals `other` ignoring case.
  bool equals(const Name& other) const noexcept;

  /// True if this name is `ancestor` or a descendant of it.
  bool is_subdomain_of(const Name& ancestor) const noexcept;

  /// The rightmost `label_count` labels; this name itself if it has no
  /// more than that, the root for 0.
  Name ancestor_with_labels(std::size_t label_count) const;

  /// <child-label>.<this>; returns nullopt if invariants would break.
  std::optional<Name> prepended(std::string_view label) const;

  /// True if the leftmost label is "*".
  bool is_wildcard() const noexcept {
    return labels_ > 0 && data()[0] == 1 && data()[1] == '*';
  }

  /// "*" prepended to this name.
  Name wildcard_child() const;

  /// Uncompressed wire form, case preserved.
  std::vector<std::uint8_t> to_wire() const;

  /// Uncompressed wire form with every label lowercased (RFC 4034 §6.2) —
  /// the exact input of the NSEC3 hash.
  std::vector<std::uint8_t> to_canonical_wire() const;

  /// Writes the bytes of to_canonical_wire() to the front of `out` without
  /// allocating, and returns how many (wire_length()).
  std::size_t write_canonical_wire(
      std::span<std::uint8_t, kMaxWireLength> out) const noexcept;

  /// Lowercased copy.
  Name canonical() const;

  /// Presentation format with trailing dot ("." for the root).
  std::string to_string() const;

  /// RFC 4034 §6.1 canonical ordering: compare label sequences right to
  /// left; each label compared as lowercased octet strings.
  static std::strong_ordering canonical_compare(const Name& a,
                                                const Name& b) noexcept;

  bool operator==(const Name& other) const noexcept { return equals(other); }

  /// Hash for unordered containers: FNV-1a over the canonical wire form,
  /// label lengths included, root octet excluded (case-insensitive).
  std::size_t hash() const noexcept;

 private:
  bool spilled() const noexcept { return length_ > kInlineCapacity; }
  std::uint8_t* heap() const noexcept;
  const std::uint8_t* data() const noexcept {
    return spilled() ? heap() : bytes_;
  }
  /// Sizes a root-valued name for `length` wire octets in `labels` labels
  /// (one heap block past kInlineCapacity) and returns where to write them.
  std::uint8_t* assign_storage(std::size_t length, std::size_t labels);
  /// Offset of the label that leaves `labels` labels to its right.
  std::size_t offset_of_suffix(std::size_t labels) const noexcept;

  // The wire bytes, or — when spilled() — the pointer to them.
  alignas(std::uint8_t*) std::uint8_t bytes_[kInlineCapacity] = {0};
  std::uint8_t length_ = 1;  // wire length, root octet included
  std::uint8_t labels_ = 0;
};

static_assert(sizeof(Name) <= 64);

/// Functor for unordered_map<Name, ...>.
struct NameHash {
  std::size_t operator()(const Name& n) const noexcept { return n.hash(); }
};

}  // namespace zh::dns
