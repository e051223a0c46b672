// Unit tests for zh::dns::Name: parsing, wire forms, ancestry, and the
// RFC 4034 §6.1 canonical ordering that NSEC chains depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "dns/name.hpp"

// Counts heap allocations made by this test binary (Name copies must make
// none while the name is inline).
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace zh::dns {
namespace {

TEST(Name, ParseSimple) {
  const auto name = Name::parse("www.example.com");
  ASSERT_TRUE(name);
  EXPECT_EQ(name->label_count(), 3u);
  EXPECT_EQ(name->label(0), "www");
  EXPECT_EQ(name->label(2), "com");
  EXPECT_EQ(name->to_string(), "www.example.com.");
}

TEST(Name, ParseTrailingDot) {
  const auto a = Name::parse("example.com.");
  const auto b = Name::parse("example.com");
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(a->equals(*b));
}

TEST(Name, ParseRoot) {
  const auto root = Name::parse(".");
  ASSERT_TRUE(root);
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
  EXPECT_EQ(root->wire_length(), 1u);
}

TEST(Name, RejectEmpty) { EXPECT_FALSE(Name::parse("")); }

TEST(Name, RejectEmptyLabel) {
  EXPECT_FALSE(Name::parse("a..b"));
  EXPECT_FALSE(Name::parse(".example.com"));
}

TEST(Name, RejectOversizeLabel) {
  EXPECT_FALSE(Name::parse(std::string(64, 'a') + ".com"));
  EXPECT_TRUE(Name::parse(std::string(63, 'a') + ".com"));
}

TEST(Name, RejectOversizeName) {
  // 4 labels of 63 bytes = 4*64+1 = 257 > 255.
  const std::string label(63, 'a');
  EXPECT_FALSE(
      Name::parse(label + "." + label + "." + label + "." + label));
}

TEST(Name, CaseInsensitiveEquality) {
  const auto a = Name::must_parse("WWW.Example.COM");
  const auto b = Name::must_parse("www.example.com");
  EXPECT_TRUE(a.equals(b));
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Name, SubdomainChecks) {
  const auto zone = Name::must_parse("example.com");
  EXPECT_TRUE(Name::must_parse("www.example.com").is_subdomain_of(zone));
  EXPECT_TRUE(Name::must_parse("a.b.example.com").is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(zone));
  EXPECT_FALSE(Name::must_parse("example.org").is_subdomain_of(zone));
  EXPECT_FALSE(Name::must_parse("notexample.com").is_subdomain_of(zone));
  EXPECT_TRUE(zone.is_subdomain_of(Name::root()));
}

TEST(Name, AncestorWithLabels) {
  const auto name = Name::must_parse("a.b.c.d");
  EXPECT_EQ(name.ancestor_with_labels(2).to_string(), "c.d.");
  EXPECT_EQ(name.ancestor_with_labels(0).to_string(), ".");
  EXPECT_EQ(name.ancestor_with_labels(4).to_string(), "a.b.c.d.");
  EXPECT_EQ(name.ancestor_with_labels(9).to_string(), "a.b.c.d.");
}

TEST(Name, Prepended) {
  const auto zone = Name::must_parse("example.com");
  const auto child = zone.prepended("www");
  ASSERT_TRUE(child);
  EXPECT_EQ(child->to_string(), "www.example.com.");
}

TEST(Name, Wildcard) {
  const auto zone = Name::must_parse("example.com");
  const auto wc = zone.wildcard_child();
  EXPECT_TRUE(wc.is_wildcard());
  EXPECT_EQ(wc.to_string(), "*.example.com.");
  EXPECT_FALSE(zone.is_wildcard());
}

TEST(Name, WireRoundTrip) {
  const auto name = Name::must_parse("www.example.com");
  const auto wire = name.to_wire();
  const std::vector<std::uint8_t> expected = {3, 'w', 'w', 'w', 7, 'e', 'x',
                                              'a', 'm', 'p', 'l', 'e', 3, 'c',
                                              'o', 'm', 0};
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(name.wire_length(), wire.size());
}

TEST(Name, CanonicalWireLowercases) {
  const auto name = Name::must_parse("WWW.Example.COM");
  const auto wire = name.to_canonical_wire();
  const auto lower = Name::must_parse("www.example.com").to_wire();
  EXPECT_EQ(wire, lower);
}

TEST(Name, CanonicalCompareRfc4034Order) {
  // The ordering example from RFC 4034 §6.1 (escaped labels omitted).
  std::vector<Name> names;
  names.push_back(Name::must_parse("example"));
  names.push_back(Name::must_parse("a.example"));
  names.push_back(Name::must_parse("yljkjljk.a.example"));
  names.push_back(Name::must_parse("Z.a.example"));
  names.push_back(Name::must_parse("zABC.a.EXAMPLE"));
  names.push_back(Name::must_parse("z.example"));
  names.push_back(Name::must_parse("zz.example"));

  auto shuffled = names;
  std::reverse(shuffled.begin(), shuffled.end());
  std::sort(shuffled.begin(), shuffled.end(), [](const Name& a, const Name& b) {
    return Name::canonical_compare(a, b) < 0;
  });
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_TRUE(shuffled[i].equals(names[i]))
        << i << ": " << shuffled[i].to_string();
}

TEST(Name, CanonicalCompareRootFirst) {
  EXPECT_TRUE(Name::canonical_compare(Name::root(), Name::must_parse("com")) <
              0);
  EXPECT_EQ(Name::canonical_compare(Name::must_parse("com"),
                                    Name::must_parse("COM")),
            std::strong_ordering::equal);
}

TEST(Name, CanonicalCompareParentBeforeChild) {
  EXPECT_TRUE(Name::canonical_compare(Name::must_parse("example.com"),
                                      Name::must_parse("a.example.com")) < 0);
}

TEST(Name, CanonicalCompareShorterLabelFirst) {
  EXPECT_TRUE(Name::canonical_compare(Name::must_parse("ab.example"),
                                      Name::must_parse("abc.example")) < 0);
}

TEST(Name, HashDistinguishesNames) {
  EXPECT_NE(Name::must_parse("a.example").hash(),
            Name::must_parse("b.example").hash());
  // Label boundaries matter: "ab.c" != "a.bc".
  EXPECT_NE(Name::must_parse("ab.c").hash(), Name::must_parse("a.bc").hash());
}

// --- Reference: the label-vector Name this flat one replaced -------------

/// Test-local reference copy of the former `std::vector<std::string>` name
/// semantics: every operation the flat Name must reproduce exactly.
struct ReferenceName {
  std::vector<std::string> labels;  // leftmost first

  static char lower(char c) {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  static bool label_equal(const std::string& a, const std::string& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (lower(a[i]) != lower(b[i])) return false;
    return true;
  }
  static int label_compare(const std::string& a, const std::string& b) {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto ca = static_cast<unsigned char>(lower(a[i]));
      const auto cb = static_cast<unsigned char>(lower(b[i]));
      if (ca != cb) return ca < cb ? -1 : 1;
    }
    return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
  }
  bool equals(const ReferenceName& o) const {
    if (labels.size() != o.labels.size()) return false;
    for (std::size_t i = 0; i < labels.size(); ++i)
      if (!label_equal(labels[i], o.labels[i])) return false;
    return true;
  }
  bool is_subdomain_of(const ReferenceName& a) const {
    if (a.labels.size() > labels.size()) return false;
    const std::size_t off = labels.size() - a.labels.size();
    for (std::size_t i = 0; i < a.labels.size(); ++i)
      if (!label_equal(labels[off + i], a.labels[i])) return false;
    return true;
  }
  static int compare(const ReferenceName& a, const ReferenceName& b) {
    const std::size_t na = a.labels.size(), nb = b.labels.size();
    for (std::size_t i = 0; i < std::min(na, nb); ++i) {
      const int order =
          label_compare(a.labels[na - 1 - i], b.labels[nb - 1 - i]);
      if (order != 0) return order;
    }
    return na == nb ? 0 : (na < nb ? -1 : 1);
  }
  std::size_t hash() const {
    std::size_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint8_t byte) {
      h ^= byte;
      h *= 1099511628211ull;
    };
    for (const auto& label : labels) {
      mix(static_cast<std::uint8_t>(label.size()));
      for (const char c : label) mix(static_cast<std::uint8_t>(lower(c)));
    }
    return h;
  }
  std::vector<std::uint8_t> wire(bool canonical) const {
    std::vector<std::uint8_t> out;
    for (const auto& label : labels) {
      out.push_back(static_cast<std::uint8_t>(label.size()));
      for (const char c : label)
        out.push_back(static_cast<std::uint8_t>(canonical ? lower(c) : c));
    }
    out.push_back(0);
    return out;
  }
  std::string to_string() const {
    if (labels.empty()) return ".";
    std::string out;
    for (const auto& label : labels) out += label + ".";
    return out;
  }
};

int sign(std::strong_ordering order) {
  return order < 0 ? -1 : (order > 0 ? 1 : 0);
}

/// Seeded random names: mixed case over a small alphabet (so equal and
/// nested names are common), label lengths 1–63, up to 127 labels, and
/// wire lengths steered to the inline capacity ±1 and to 255.
ReferenceName random_reference(std::mt19937_64& rng) {
  static const char kAlphabet[] = "aAbB-*0z";
  ReferenceName out;
  std::size_t target = 1;
  switch (rng() % 6) {
    case 0: target = Name::kInlineCapacity - 1; break;
    case 1: target = Name::kInlineCapacity; break;
    case 2: target = Name::kInlineCapacity + 1; break;
    case 3: target = Name::kMaxWireLength; break;
    default: target = 1 + rng() % Name::kMaxWireLength; break;
  }
  const bool tiny_labels = rng() % 4 == 0;  // reaches 127 labels
  std::size_t length = 1;
  while (length + 2 <= target) {
    std::size_t size = tiny_labels ? 1 : 1 + rng() % Name::kMaxLabelLength;
    size = std::min(size, target - length - 1);
    std::string label;
    for (std::size_t i = 0; i < size; ++i)
      label.push_back(kAlphabet[rng() % (sizeof kAlphabet - 1)]);
    out.labels.push_back(std::move(label));
    length += 1 + size;
  }
  return out;
}

TEST(NameProperty, MatchesTheLabelVectorReference) {
  std::mt19937_64 rng(20241104);
  std::vector<ReferenceName> refs;
  std::vector<Name> names;
  bool saw_inline_edge = false, saw_spill_edge = false, saw_max = false,
       saw_127 = false;
  for (int i = 0; i < 10000; ++i) {
    ReferenceName ref = random_reference(rng);
    // Every fourth name shares a suffix with an earlier one.
    if (i % 4 == 0 && !refs.empty()) {
      const ReferenceName& base = refs[rng() % refs.size()];
      std::size_t length = 1;
      for (const auto& l : base.labels) length += 1 + l.size();
      if (length + 4 <= Name::kMaxWireLength) {
        ref = base;
        ref.labels.insert(ref.labels.begin(), rng() % 2 ? "Ab" : "aB");
      }
    }
    const auto name = Name::from_labels(ref.labels);
    ASSERT_TRUE(name) << ref.to_string();
    saw_inline_edge |= name->wire_length() == Name::kInlineCapacity;
    saw_spill_edge |= name->wire_length() == Name::kInlineCapacity + 1;
    saw_max |= name->wire_length() == Name::kMaxWireLength;
    saw_127 |= name->label_count() == 127;
    ASSERT_EQ(name->label_count(), ref.labels.size());
    for (std::size_t l = 0; l < ref.labels.size(); ++l)
      ASSERT_EQ(name->label(l), ref.labels[l]);
    ASSERT_EQ(name->to_string(), ref.to_string());
    ASSERT_EQ(name->to_wire(), ref.wire(false));
    ASSERT_EQ(name->to_canonical_wire(), ref.wire(true));
    ASSERT_EQ(name->hash(), ref.hash()) << ref.to_string();
    ASSERT_EQ(name->wire_length(), ref.wire(false).size());
    const auto from_wire = Name::from_wire(ref.wire(false));
    ASSERT_TRUE(from_wire);
    ASSERT_EQ(from_wire->to_wire(), ref.wire(false));
    const auto parsed = Name::parse(ref.to_string());
    ASSERT_TRUE(parsed);  // the alphabet has no dots
    ASSERT_EQ(parsed->to_wire(), ref.wire(false));
    ASSERT_EQ(name->canonical().to_wire(), ref.wire(true));
    for (std::size_t k = 0; k <= ref.labels.size() + 1; ++k) {
      ReferenceName anc;
      if (k < ref.labels.size())
        anc.labels.assign(ref.labels.end() - static_cast<std::ptrdiff_t>(k),
                          ref.labels.end());
      else
        anc = ref;
      ASSERT_EQ(name->ancestor_with_labels(k).to_wire(), anc.wire(false));
    }
    const auto child = name->prepended("Xy");
    ASSERT_EQ(child.has_value(),
              ref.wire(false).size() + 3 <= Name::kMaxWireLength);
    if (child) {
      ReferenceName c = ref;
      c.labels.insert(c.labels.begin(), "Xy");
      ASSERT_EQ(child->to_wire(), c.wire(false));
    }
    ASSERT_EQ(name->is_wildcard(),
              !ref.labels.empty() && ref.labels.front() == "*");
    refs.push_back(std::move(ref));
    names.push_back(*name);
  }
  EXPECT_TRUE(saw_inline_edge && saw_spill_edge && saw_max && saw_127);
  // Pairwise relations over neighbours and random pairs.
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (const std::size_t j :
         {i, (i + 1) % names.size(), static_cast<std::size_t>(rng() % names.size())}) {
      const ReferenceName& a = refs[i];
      const ReferenceName& b = refs[j];
      ASSERT_EQ(names[i].equals(names[j]), a.equals(b));
      ASSERT_EQ(names[i] == names[j], a.equals(b));
      ASSERT_EQ(sign(Name::canonical_compare(names[i], names[j])),
                ReferenceName::compare(a, b));
      ASSERT_EQ(names[i].is_subdomain_of(names[j]), a.is_subdomain_of(b));
      ASSERT_EQ(names[j].is_subdomain_of(names[i]), b.is_subdomain_of(a));
    }
    // Case-folded twins: equal, same hash, same order, mutual ancestry.
    ReferenceName upper = refs[i];
    for (auto& label : upper.labels)
      for (char& c : label)
        if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    const Name twin = *Name::from_labels(upper.labels);
    ASSERT_TRUE(twin.equals(names[i]));
    ASSERT_EQ(twin.hash(), names[i].hash());
    ASSERT_EQ(Name::canonical_compare(twin, names[i]),
              std::strong_ordering::equal);
    ASSERT_TRUE(twin.is_subdomain_of(names[i]));
    if (!upper.labels.empty()) {
      const Name parent = names[i].ancestor_with_labels(upper.labels.size() - 1);
      ASSERT_TRUE(twin.is_subdomain_of(parent));
    }
  }
}

TEST(NameProperty, FromWireRejectsMalformedInput) {
  const std::vector<std::vector<std::uint8_t>> bad = {
      {},                      // empty
      {1, 'a'},                // no root octet
      {1, 'a', 0, 0},          // trailing bytes
      {0xc0, 0x00},            // compression pointer
      {64},                    // oversize label
      {3, 'a', 'b'},           // truncated label
  };
  for (const auto& wire : bad) EXPECT_FALSE(Name::from_wire(wire));
  std::vector<std::uint8_t> too_long;
  for (int i = 0; i < 4; ++i) {
    too_long.push_back(63);
    too_long.insert(too_long.end(), 63, 'a');
  }
  too_long.push_back(0);  // 257 octets
  EXPECT_FALSE(Name::from_wire(too_long));
  EXPECT_TRUE(Name::from_wire(std::vector<std::uint8_t>{0})->is_root());
}

TEST(NameProperty, CopyingAnInlineNameAllocatesNothing) {
  const Name inline_name =
      Name::must_parse("0123456789abcdefghijklmnopqrstuv.d12345.tld0001");
  ASSERT_LE(inline_name.wire_length(), Name::kInlineCapacity);
  std::string long_label(60, 'x');
  const Name spilled = *Name::must_parse("example.com").prepended(long_label);
  ASSERT_GT(spilled.wire_length(), Name::kInlineCapacity);

  const std::size_t before = g_allocations.load();
  {
    Name copy = inline_name;
    Name moved = std::move(copy);
    Name assigned;
    assigned = moved;
    const Name ancestor = inline_name.ancestor_with_labels(2);
    const auto child = ancestor.prepended("www");
    EXPECT_TRUE(assigned.equals(inline_name));
    EXPECT_TRUE(child.has_value());
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);

  const std::size_t spill_before = g_allocations.load();
  {
    Name copy = spilled;  // one block of exactly the wire length
    EXPECT_TRUE(copy.equals(spilled));
  }
  EXPECT_EQ(g_allocations.load() - spill_before, 1u);
}

}  // namespace
}  // namespace zh::dns
