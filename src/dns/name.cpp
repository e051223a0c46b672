#include "dns/name.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace zh::dns {
namespace {

char ascii_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool label_equal_ci(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  return true;
}

std::strong_ordering label_compare_ci(std::string_view a,
                                      std::string_view b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto ca = static_cast<unsigned char>(ascii_lower(a[i]));
    const auto cb = static_cast<unsigned char>(ascii_lower(b[i]));
    if (ca != cb) return ca <=> cb;
  }
  return a.size() <=> b.size();
}

}  // namespace

std::optional<Name> Name::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return Name{};

  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  std::vector<std::string> labels;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label =
        text.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                         : dot - start);
    if (label.empty() || label.size() > kMaxLabelLength) return std::nullopt;
    labels.emplace_back(label);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return from_labels(std::move(labels));
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
  std::size_t wire = 1;  // root terminator
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabelLength) return std::nullopt;
    wire += 1 + label.size();
  }
  if (wire > kMaxWireLength) return std::nullopt;
  Name name;
  name.labels_ = std::move(labels);
  return name;
}

std::size_t Name::wire_length() const noexcept {
  std::size_t wire = 1;
  for (const auto& label : labels_) wire += 1 + label.size();
  return wire;
}

bool Name::equals(const Name& other) const noexcept {
  if (labels_.size() != other.labels_.size()) return false;
  for (std::size_t i = 0; i < labels_.size(); ++i)
    if (!label_equal_ci(labels_[i], other.labels_[i])) return false;
  return true;
}

bool Name::is_subdomain_of(const Name& ancestor) const noexcept {
  if (ancestor.labels_.size() > labels_.size()) return false;
  const std::size_t offset = labels_.size() - ancestor.labels_.size();
  for (std::size_t i = 0; i < ancestor.labels_.size(); ++i)
    if (!label_equal_ci(labels_[offset + i], ancestor.labels_[i]))
      return false;
  return true;
}

Name Name::ancestor_with_labels(std::size_t label_count) const {
  Name p;
  if (label_count >= labels_.size()) return *this;
  p.labels_.assign(labels_.end() - static_cast<std::ptrdiff_t>(label_count),
                   labels_.end());
  return p;
}

std::optional<Name> Name::prepended(std::string_view label) const {
  std::vector<std::string> labels;
  labels.reserve(labels_.size() + 1);
  labels.emplace_back(label);
  labels.insert(labels.end(), labels_.begin(), labels_.end());
  return from_labels(std::move(labels));
}

Name Name::wildcard_child() const {
  auto wc = prepended("*");
  // "*" is 1 octet; overflow only if this name is already ≥ 254 octets,
  // which callers avoid; fall back to self to keep noexcept-ish behaviour.
  return wc ? *wc : *this;
}

std::vector<std::uint8_t> Name::to_wire() const {
  std::vector<std::uint8_t> wire;
  wire.reserve(wire_length());
  for (const auto& label : labels_) {
    wire.push_back(static_cast<std::uint8_t>(label.size()));
    wire.insert(wire.end(), label.begin(), label.end());
  }
  wire.push_back(0);
  return wire;
}

std::vector<std::uint8_t> Name::to_canonical_wire() const {
  std::vector<std::uint8_t> wire;
  wire.reserve(wire_length());
  for (const auto& label : labels_) {
    wire.push_back(static_cast<std::uint8_t>(label.size()));
    for (const char c : label)
      wire.push_back(static_cast<std::uint8_t>(ascii_lower(c)));
  }
  wire.push_back(0);
  return wire;
}

void Name::append_canonical_to(std::string& out) const {
  for (const auto& label : labels_) {
    out.push_back(static_cast<char>(label.size()));
    for (const char c : label) out.push_back(ascii_lower(c));
  }
  out.push_back('\0');
}

Name Name::canonical() const {
  Name out;
  out.labels_.reserve(labels_.size());
  for (const auto& label : labels_) {
    std::string lower;
    lower.reserve(label.size());
    for (const char c : label) lower.push_back(ascii_lower(c));
    out.labels_.push_back(std::move(lower));
  }
  return out;
}

std::string Name::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (const auto& label : labels_) {
    out += label;
    out += '.';
  }
  return out;
}

std::strong_ordering Name::canonical_compare(const Name& a,
                                             const Name& b) noexcept {
  const std::size_t na = a.labels_.size();
  const std::size_t nb = b.labels_.size();
  const std::size_t n = std::min(na, nb);
  // Compare right to left (most significant label first).
  for (std::size_t i = 0; i < n; ++i) {
    const auto order =
        label_compare_ci(a.labels_[na - 1 - i], b.labels_[nb - 1 - i]);
    if (order != std::strong_ordering::equal) return order;
  }
  return na <=> nb;
}

std::strong_ordering Name::canonical_compare_suffix(
    const Name& a, const NameSuffix& b) noexcept {
  const std::size_t na = a.labels_.size();
  const std::size_t nb = b.label_count();
  const std::size_t n = std::min(na, nb);
  for (std::size_t i = 0; i < n; ++i) {
    const auto order =
        label_compare_ci(a.labels_[na - 1 - i], b.label(nb - 1 - i));
    if (order != std::strong_ordering::equal) return order;
  }
  return na <=> nb;
}

std::size_t Name::hash() const noexcept {
  // FNV-1a over the canonical wire form, label lengths included.
  std::size_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const auto& label : labels_) {
    mix(static_cast<std::uint8_t>(label.size()));
    for (const char c : label)
      mix(static_cast<std::uint8_t>(ascii_lower(c)));
  }
  return h;
}

}  // namespace zh::dns
