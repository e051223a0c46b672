#include "dns/name.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace zh::dns {
namespace {

std::uint8_t ascii_lower(std::uint8_t c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c - 'A' + 'a')
                                : c;
}

/// Case-insensitive equality of two wire spans. Label lengths (≤ 63) are
/// below 'A', so folding leaves them alone and the same fold serves
/// lengths and label bytes.
bool equal_ci(const std::uint8_t* a, const std::uint8_t* b,
              std::size_t n) noexcept {
  if (std::memcmp(a, b, n) == 0) return true;
  for (std::size_t i = 0; i < n; ++i)
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  return true;
}

/// Lowercase octet-string order of two labels (length octet first).
std::strong_ordering label_compare_ci(const std::uint8_t* a,
                                      const std::uint8_t* b) noexcept {
  const std::size_t n = std::min(a[0], b[0]);
  for (std::size_t i = 1; i <= n; ++i) {
    const std::uint8_t ca = ascii_lower(a[i]);
    const std::uint8_t cb = ascii_lower(b[i]);
    if (ca != cb) return ca <=> cb;
  }
  return a[0] <=> b[0];
}

/// Start offsets of every label, leftmost first; returns the label count.
std::size_t label_offsets(const std::uint8_t* wire,
                          std::array<std::uint8_t, 128>& out) noexcept {
  std::size_t count = 0;
  for (std::size_t pos = 0; wire[pos] != 0; pos += 1 + wire[pos])
    out[count++] = static_cast<std::uint8_t>(pos);
  return count;
}

}  // namespace

Name::Name(const Name& other) : length_(other.length_), labels_(other.labels_) {
  if (other.spilled()) {
    auto* block = new std::uint8_t[length_];
    std::memcpy(block, other.heap(), length_);
    std::memcpy(bytes_, &block, sizeof block);
  } else {
    std::memcpy(bytes_, other.bytes_, kInlineCapacity);
  }
}

Name::Name(Name&& other) noexcept
    : length_(other.length_), labels_(other.labels_) {
  std::memcpy(bytes_, other.bytes_, kInlineCapacity);  // bytes or the block
  if (other.spilled()) {
    other.length_ = 1;
    other.labels_ = 0;
    other.bytes_[0] = 0;
  }
}

Name& Name::operator=(const Name& other) {
  if (this != &other) *this = Name(other);
  return *this;
}

Name& Name::operator=(Name&& other) noexcept {
  if (this == &other) return *this;
  if (spilled()) delete[] heap();
  std::memcpy(bytes_, other.bytes_, kInlineCapacity);
  length_ = other.length_;
  labels_ = other.labels_;
  if (other.spilled()) {
    other.length_ = 1;
    other.labels_ = 0;
    other.bytes_[0] = 0;
  }
  return *this;
}

Name::~Name() {
  if (spilled()) delete[] heap();
}

std::uint8_t* Name::heap() const noexcept {
  std::uint8_t* block;
  std::memcpy(&block, bytes_, sizeof block);
  return block;
}

std::uint8_t* Name::assign_storage(std::size_t length, std::size_t labels) {
  length_ = static_cast<std::uint8_t>(length);
  labels_ = static_cast<std::uint8_t>(labels);
  if (!spilled()) return bytes_;
  auto* block = new std::uint8_t[length];
  std::memcpy(bytes_, &block, sizeof block);
  return block;
}

std::size_t Name::offset_of_suffix(std::size_t labels) const noexcept {
  const std::uint8_t* wire = data();
  std::size_t pos = 0;
  for (std::size_t skip = labels_ - labels; skip > 0; --skip)
    pos += 1 + wire[pos];
  return pos;
}

std::optional<Name> Name::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return Name{};

  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  std::array<std::uint8_t, kMaxWireLength> wire;
  std::size_t length = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label =
        text.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                         : dot - start);
    if (label.empty() || label.size() > kMaxLabelLength) return std::nullopt;
    if (length + 1 + label.size() + 1 > kMaxWireLength) return std::nullopt;
    wire[length++] = static_cast<std::uint8_t>(label.size());
    std::memcpy(wire.data() + length, label.data(), label.size());
    length += label.size();
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  wire[length++] = 0;
  return from_wire(std::span<const std::uint8_t>(wire.data(), length));
}

Name Name::must_parse(std::string_view text) {
  auto name = parse(text);
  if (!name) {
    std::fprintf(stderr, "Name::must_parse: invalid name '%.*s'\n",
                 static_cast<int>(text.size()), text.data());
    std::abort();
  }
  return *std::move(name);
}

std::optional<Name> Name::from_labels(std::vector<std::string> labels) {
  std::array<std::uint8_t, kMaxWireLength> wire;
  std::size_t length = 0;
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabelLength) return std::nullopt;
    if (length + 1 + label.size() + 1 > kMaxWireLength) return std::nullopt;
    wire[length++] = static_cast<std::uint8_t>(label.size());
    std::memcpy(wire.data() + length, label.data(), label.size());
    length += label.size();
  }
  wire[length++] = 0;
  return from_wire(std::span<const std::uint8_t>(wire.data(), length));
}

std::optional<Name> Name::from_wire(std::span<const std::uint8_t> wire) {
  if (wire.empty() || wire.size() > kMaxWireLength) return std::nullopt;
  std::size_t labels = 0;
  std::size_t pos = 0;
  for (; wire[pos] != 0; ++labels) {
    if (wire[pos] > kMaxLabelLength) return std::nullopt;
    pos += 1 + wire[pos];
    if (pos >= wire.size()) return std::nullopt;
  }
  if (pos + 1 != wire.size()) return std::nullopt;
  Name name;
  std::memcpy(name.assign_storage(wire.size(), labels), wire.data(),
              wire.size());
  return name;
}

std::string_view Name::label(std::size_t i) const noexcept {
  const std::uint8_t* wire = data();
  std::size_t pos = 0;
  for (; i > 0; --i) pos += 1 + wire[pos];
  return {reinterpret_cast<const char*>(wire + pos + 1), wire[pos]};
}

bool Name::equals(const Name& other) const noexcept {
  return length_ == other.length_ && labels_ == other.labels_ &&
         equal_ci(data(), other.data(), length_);
}

bool Name::is_subdomain_of(const Name& ancestor) const noexcept {
  if (ancestor.labels_ > labels_ || ancestor.length_ > length_) return false;
  const std::size_t offset = offset_of_suffix(ancestor.labels_);
  return length_ - offset == ancestor.length_ &&
         equal_ci(data() + offset, ancestor.data(), ancestor.length_);
}

Name Name::ancestor_with_labels(std::size_t label_count) const {
  if (label_count >= labels_) return *this;
  const std::size_t offset = offset_of_suffix(label_count);
  Name out;
  std::memcpy(out.assign_storage(length_ - offset, label_count),
              data() + offset, length_ - offset);
  return out;
}

std::optional<Name> Name::prepended(std::string_view label) const {
  if (label.empty() || label.size() > kMaxLabelLength) return std::nullopt;
  const std::size_t length = 1 + label.size() + length_;
  if (length > kMaxWireLength) return std::nullopt;
  Name out;
  std::uint8_t* wire = out.assign_storage(length, labels_ + 1u);
  wire[0] = static_cast<std::uint8_t>(label.size());
  std::memcpy(wire + 1, label.data(), label.size());
  std::memcpy(wire + 1 + label.size(), data(), length_);
  return out;
}

Name Name::wildcard_child() const {
  auto wc = prepended("*");
  // "*" is 1 octet; overflow only if this name is already ≥ 254 octets,
  // which callers avoid; fall back to self to keep noexcept-ish behaviour.
  return wc ? *wc : *this;
}

std::vector<std::uint8_t> Name::to_wire() const {
  const std::uint8_t* wire = data();
  return std::vector<std::uint8_t>(wire, wire + length_);
}

std::vector<std::uint8_t> Name::to_canonical_wire() const {
  std::array<std::uint8_t, kMaxWireLength> wire;
  const std::size_t length = write_canonical_wire(wire);
  return std::vector<std::uint8_t>(wire.begin(), wire.begin() + length);
}

std::size_t Name::write_canonical_wire(
    std::span<std::uint8_t, kMaxWireLength> out) const noexcept {
  const std::uint8_t* wire = data();
  for (std::size_t i = 0; i < length_; ++i) out[i] = ascii_lower(wire[i]);
  return length_;
}

Name Name::canonical() const {
  Name out(*this);
  std::uint8_t* wire = out.spilled() ? out.heap() : out.bytes_;
  for (std::size_t i = 0; i < length_; ++i) wire[i] = ascii_lower(wire[i]);
  return out;
}

std::string Name::to_string() const {
  if (is_root()) return ".";
  const std::uint8_t* wire = data();
  std::string out;
  out.reserve(length_ - 1u);
  for (std::size_t pos = 0; wire[pos] != 0; pos += 1 + wire[pos]) {
    out.append(reinterpret_cast<const char*>(wire + pos + 1), wire[pos]);
    out += '.';
  }
  return out;
}

std::strong_ordering Name::canonical_compare(const Name& a,
                                             const Name& b) noexcept {
  std::array<std::uint8_t, 128> offsets_a;
  std::array<std::uint8_t, 128> offsets_b;
  const std::uint8_t* wire_a = a.data();
  const std::uint8_t* wire_b = b.data();
  const std::size_t na = label_offsets(wire_a, offsets_a);
  const std::size_t nb = label_offsets(wire_b, offsets_b);
  const std::size_t n = std::min(na, nb);
  // Compare right to left (most significant label first).
  for (std::size_t i = 1; i <= n; ++i) {
    const auto order = label_compare_ci(wire_a + offsets_a[na - i],
                                        wire_b + offsets_b[nb - i]);
    if (order != std::strong_ordering::equal) return order;
  }
  return na <=> nb;
}

std::size_t Name::hash() const noexcept {
  // FNV-1a over the canonical wire form, label lengths included.
  std::size_t h = 14695981039346656037ull;
  const std::uint8_t* wire = data();
  for (std::size_t i = 0; i + 1 < length_; ++i) {
    h ^= ascii_lower(wire[i]);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace zh::dns
