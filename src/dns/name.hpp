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

struct NameSuffix;  // defined after Name

/// An absolute domain name, stored as a sequence of labels (root = none).
///
/// Invariants: each label is 1..63 octets; total wire length ≤ 255 octets.
/// Labels preserve the case they were constructed with; comparisons and
/// canonical forms are case-insensitive per RFC 1035 §2.3.3 / RFC 4034 §6.2.
class Name {
 public:
  static constexpr std::size_t kMaxLabelLength = 63;
  static constexpr std::size_t kMaxWireLength = 255;

  /// The root name ".".
  Name() = default;

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

  bool is_root() const noexcept { return labels_.empty(); }
  std::size_t label_count() const noexcept { return labels_.size(); }
  const std::string& label(std::size_t i) const { return labels_[i]; }

  /// Number of octets in the uncompressed wire form (≥ 1 for the root).
  std::size_t wire_length() const noexcept;

  /// True if this name equals `other` ignoring case.
  bool equals(const Name& other) const noexcept;

  /// True if this name is `ancestor` or a descendant of it.
  bool is_subdomain_of(const Name& ancestor) const noexcept;

  /// Strips `suffix_labels` labels from the right; returns root if asked to
  /// strip everything.
  Name ancestor_with_labels(std::size_t label_count) const;

  /// <child-label>.<this>; returns nullopt if invariants would break.
  std::optional<Name> prepended(std::string_view label) const;

  /// True if the leftmost label is "*".
  bool is_wildcard() const noexcept {
    return !labels_.empty() && labels_.front() == "*";
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

  /// Appends exactly the bytes of to_canonical_wire() to `out` without the
  /// temporary vector — for key builders on the hot path.
  void append_canonical_to(std::string& out) const;

  /// Lowercased copy.
  Name canonical() const;

  /// Presentation format with trailing dot ("." for the root).
  std::string to_string() const;

  /// RFC 4034 §6.1 canonical ordering: compare label sequences right to
  /// left; each label compared as lowercased octet strings.
  static std::strong_ordering canonical_compare(const Name& a,
                                                const Name& b) noexcept;

  /// canonical_compare(a, b.name->ancestor_with_labels(b.labels)) without
  /// materialising the ancestor.
  static std::strong_ordering canonical_compare_suffix(
      const Name& a, const NameSuffix& b) noexcept;

  bool operator==(const Name& other) const noexcept { return equals(other); }

  /// Hash for unordered containers (case-insensitive).
  std::size_t hash() const noexcept;

 private:
  std::vector<std::string> labels_;  // leftmost first
};

/// Functor for unordered_map<Name, ...>.
struct NameHash {
  std::size_t operator()(const Name& n) const noexcept { return n.hash(); }
};

/// A right-aligned suffix of an existing Name — the `labels` rightmost
/// labels of `*name` — for heterogeneous map lookups that would otherwise
/// materialise one Name per ancestry step (zone closest-encloser walks).
/// Orders exactly like Name::ancestor_with_labels(labels) would.
struct NameSuffix {
  const Name* name = nullptr;
  std::size_t labels = 0;

  std::size_t label_count() const noexcept {
    return labels < name->label_count() ? labels : name->label_count();
  }
  /// i-th label of the suffix, leftmost first.
  const std::string& label(std::size_t i) const {
    return name->label(name->label_count() - label_count() + i);
  }
};

/// Functor for ordered containers in canonical zone order. Transparent:
/// lookups accept NameSuffix without materialising the ancestor Name.
struct NameCanonicalLess {
  using is_transparent = void;

  bool operator()(const Name& a, const Name& b) const noexcept {
    return Name::canonical_compare(a, b) < 0;
  }
  bool operator()(const Name& a, const NameSuffix& b) const noexcept {
    return Name::canonical_compare_suffix(a, b) < 0;
  }
  bool operator()(const NameSuffix& a, const Name& b) const noexcept {
    return Name::canonical_compare_suffix(b, a) > 0;
  }
};

}  // namespace zh::dns
