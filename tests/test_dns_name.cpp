// Unit tests for zh::dns::Name: parsing, wire forms, ancestry, and the
// RFC 4034 §6.1 canonical ordering that NSEC chains depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dns/name.hpp"

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
  std::sort(shuffled.begin(), shuffled.end(), NameCanonicalLess{});
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

TEST(Name, AppendCanonicalMatchesCanonicalWire) {
  // append_canonical_to is the allocation-free twin of to_canonical_wire:
  // the memo-key builder (zone/chain_memo.hpp) depends on the bytes being
  // identical, length for length.
  for (const char* text : {"Example.COM", "a.b.c.d.example", "xn--e1afmkfd"}) {
    const Name name = Name::must_parse(text);
    std::string appended;
    name.append_canonical_to(appended);
    const std::vector<std::uint8_t> wire = name.to_canonical_wire();
    ASSERT_EQ(appended.size(), wire.size());
    ASSERT_EQ(appended.size(), name.wire_length());
    EXPECT_TRUE(std::equal(wire.begin(), wire.end(),
                           reinterpret_cast<const std::uint8_t*>(
                               appended.data())));
  }
  std::string root;
  Name::root().append_canonical_to(root);
  EXPECT_EQ(root, std::string(1, '\0'));
}

TEST(Name, SuffixCompareMatchesMaterialisedAncestor) {
  // NameSuffix ordering (the transparent zone-map lookup) must agree with
  // comparing against the materialised ancestor for every label count,
  // including counts past the name's depth (clamped, like
  // ancestor_with_labels' callers guarantee).
  const Name names[] = {
      Name::root(), Name::must_parse("com"), Name::must_parse("example.com"),
      Name::must_parse("A.exAmple.Com"), Name::must_parse("z.a.example.com"),
      Name::must_parse("aa.example.org")};
  for (const Name& a : names) {
    for (const Name& b : names) {
      for (std::size_t labels = 0; labels <= b.label_count(); ++labels) {
        const Name ancestor = b.ancestor_with_labels(labels);
        const NameSuffix suffix{&b, labels};
        EXPECT_EQ(Name::canonical_compare_suffix(a, suffix),
                  Name::canonical_compare(a, ancestor))
            << a.to_string() << " vs " << b.to_string() << "/" << labels;
        // The comparator overloads order identically to two owned names.
        const NameCanonicalLess less;
        EXPECT_EQ(less(a, suffix), less(a, ancestor));
        EXPECT_EQ(less(suffix, a), less(ancestor, a));
      }
    }
  }
}

TEST(Name, HashDistinguishesNames) {
  EXPECT_NE(Name::must_parse("a.example").hash(),
            Name::must_parse("b.example").hash());
  // Label boundaries matter: "ab.c" != "a.bc".
  EXPECT_NE(Name::must_parse("ab.c").hash(), Name::must_parse("a.bc").hash());
}

}  // namespace
}  // namespace zh::dns
