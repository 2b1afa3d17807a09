// Tests for SHA-256 (FIPS vectors), HMAC (RFC 4231 vectors), and the
// DNSSEC-shaped signing substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "crypto/dnssec.h"
#include "crypto/sha256.h"
#include "util/base64.h"
#include "util/rng.h"

namespace rootless::crypto {
namespace {

using dns::Name;
using dns::RRset;
using dns::RRType;

std::string HexOf(const Digest256& d) {
  return util::HexEncode(std::span<const std::uint8_t>(d.data(), d.size()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(HexOf(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexOf(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      HexOf(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    EXPECT_EQ(HexOf(h.Finish()), HexOf(Sha256::Hash(data)));
  }
}

TEST(Hmac, Rfc4231Vector1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest256 mac = HmacSha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(HexOf(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Vector2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Digest256 mac = HmacSha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(HexOf(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  std::vector<std::uint8_t> key(131, 0xaa);  // RFC 4231 test 6 key shape
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest256 mac = HmacSha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(HexOf(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Sha256, PaddingAtEveryBlockBoundary) {
  // Finish pads in one write; these lengths put the 0x80 byte and the
  // length field on each side of a block boundary.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120,
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [n, hex] : cases) {
    EXPECT_EQ(HexOf(Sha256::Hash(std::string(n, 'a'))), hex) << n;
  }
}

std::span<const std::uint8_t> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Hmac, KeyedStateMatchesOneShotOnRfc4231Vectors) {
  // RFC 4231 test cases 1, 2, 4 and 6: short, ASCII, 25-byte and
  // longer-than-a-block keys.
  std::vector<std::uint8_t> key4(25);
  for (std::size_t i = 0; i < key4.size(); ++i) {
    key4[i] = static_cast<std::uint8_t>(i + 1);
  }
  const struct {
    std::vector<std::uint8_t> key;
    std::string message;
    const char* mac;
  } vectors[] = {
      {std::vector<std::uint8_t>(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {key4, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::vector<std::uint8_t>(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const auto& v : vectors) {
    const HmacSha256Key keyed(v.key);
    EXPECT_EQ(HexOf(keyed.Mac(AsBytes(v.message))), v.mac);
    EXPECT_EQ(HexOf(keyed.Mac(AsBytes(v.message))),
              HexOf(HmacSha256(v.key, AsBytes(v.message))));
  }
}

TEST(Hmac, KeyedStateIsReusableAcrossMessages) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const HmacSha256Key keyed(key);
  for (const std::string& message :
       {std::string(), std::string("Hi There"), std::string(200, 'x')}) {
    EXPECT_EQ(HexOf(keyed.Mac(AsBytes(message))),
              HexOf(HmacSha256(key, AsBytes(message))));
  }
}

// ----------------------------------------------------------------- dnssec

RRset SampleRRset() {
  RRset s;
  s.name = *Name::Parse("com.");
  s.type = RRType::kNS;
  s.ttl = 172800;
  s.rdatas.push_back(dns::NsData{*Name::Parse("a.gtld-servers.net.")});
  s.rdatas.push_back(dns::NsData{*Name::Parse("b.gtld-servers.net.")});
  return s;
}

struct Env {
  util::Rng rng{99};
  SigningKey zsk = GenerateKey(kZskFlags, rng);
  SigningKey ksk = GenerateKey(kKskFlags, rng);
  KeyStore store;

  Env() {
    store.AddKey(zsk);
    store.AddKey(ksk);
  }
};

TEST(Dnssec, KeyGeneration) {
  Env env;
  EXPECT_EQ(env.zsk.dnskey.flags, kZskFlags);
  EXPECT_TRUE(env.ksk.dnskey.is_ksk());
  EXPECT_FALSE(env.zsk.dnskey.is_ksk());
  EXPECT_EQ(env.zsk.dnskey.public_key.size(), 32u);
  EXPECT_NE(env.zsk.secret, env.ksk.secret);
}

TEST(Dnssec, KeyTagIsStable) {
  Env env;
  EXPECT_EQ(ComputeKeyTag(env.zsk.dnskey), ComputeKeyTag(env.zsk.dnskey));
  EXPECT_NE(ComputeKeyTag(env.zsk.dnskey), ComputeKeyTag(env.ksk.dnskey));
}

TEST(Dnssec, SignAndVerify) {
  Env env;
  const RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  EXPECT_EQ(sig.type_covered, RRType::kNS);
  EXPECT_EQ(sig.labels, 1);
  EXPECT_EQ(sig.key_tag, env.zsk.key_tag());
  EXPECT_TRUE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, VerifyRejectsTampering) {
  Env env;
  RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  // Tamper with the data: point com. at an attacker's server.
  std::get<dns::NsData>(s.rdatas[0]).nameserver =
      *Name::Parse("evil.example.");
  EXPECT_FALSE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, VerifyRejectsTtlStretchButAllowsCanonicalTtl) {
  // The signature covers original_ttl, so verification is TTL-independent as
  // long as the RRSIG's original_ttl is used — which our canonical form does.
  Env env;
  RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  s.ttl = 60;  // cache-decremented TTL must not break validation
  EXPECT_TRUE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, VerifyRejectsOutsideValidityWindow) {
  Env env;
  const RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  EXPECT_FALSE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 999).ok());
  EXPECT_FALSE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 2001).ok());
  EXPECT_TRUE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 2000).ok());
}

TEST(Dnssec, VerifyRejectsWrongKey) {
  Env env;
  const RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  EXPECT_FALSE(VerifyRRset(s, sig, env.ksk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, VerifyRejectsUnknownKey) {
  Env env;
  const RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  KeyStore empty;
  EXPECT_FALSE(VerifyRRset(s, sig, env.zsk.dnskey, empty, 1500).ok());
}

TEST(Dnssec, RdataOrderDoesNotAffectSignature) {
  Env env;
  RRset a = SampleRRset();
  RRset b = SampleRRset();
  std::swap(b.rdatas[0], b.rdatas[1]);
  const auto sig_a = SignRRset(a, env.zsk, Name(), 1000, 2000);
  const auto sig_b = SignRRset(b, env.zsk, Name(), 1000, 2000);
  EXPECT_EQ(sig_a.signature, sig_b.signature);
  EXPECT_TRUE(VerifyRRset(b, sig_a, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, OwnerCaseDoesNotAffectSignature) {
  Env env;
  RRset a = SampleRRset();
  RRset b = SampleRRset();
  b.name = *Name::Parse("CoM.");
  const auto sig_a = SignRRset(a, env.zsk, Name(), 1000, 2000);
  EXPECT_TRUE(VerifyRRset(b, sig_a, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, DsMatchesKey) {
  Env env;
  const Name owner = *Name::Parse("com.");
  const auto ds = MakeDs(owner, env.ksk.dnskey);
  EXPECT_TRUE(DsMatchesKey(ds, owner, env.ksk.dnskey));
  EXPECT_FALSE(DsMatchesKey(ds, owner, env.zsk.dnskey));
  EXPECT_FALSE(DsMatchesKey(ds, *Name::Parse("org."), env.ksk.dnskey));
}

TEST(Dnssec, ZoneDigestDetectsAnyChange) {
  std::vector<RRset> zone = {SampleRRset()};
  const Digest256 d1 = ZoneDigest(zone);
  std::get<dns::NsData>(zone[0].rdatas[0]).nameserver =
      *Name::Parse("x.example.");
  const Digest256 d2 = ZoneDigest(zone);
  EXPECT_NE(HexOf(d1), HexOf(d2));
}

TEST(Dnssec, ZoneDigestIsOrderIndependent) {
  RRset a = SampleRRset();
  RRset b = SampleRRset();
  b.name = *Name::Parse("org.");
  const Digest256 d1 = ZoneDigest({a, b});
  const Digest256 d2 = ZoneDigest({b, a});
  EXPECT_EQ(HexOf(d1), HexOf(d2));
}

TEST(Dnssec, SignAndValidateWholeZone) {
  Env env;
  RRset com = SampleRRset();
  RRset org = SampleRRset();
  org.name = *Name::Parse("org.");
  const auto signed_zone = SignZoneRRsets({com, org}, env.zsk, Name(), 0, 10000);
  EXPECT_EQ(signed_zone.size(), 4u);  // 2 data + 2 RRSIG
  auto validated = ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store,
                                      5000);
  ASSERT_TRUE(validated.ok()) << validated.error().message();
  EXPECT_EQ(*validated, 2u);
}

TEST(Dnssec, ValidateZoneRejectsTamperedRRset) {
  Env env;
  auto signed_zone = SignZoneRRsets({SampleRRset()}, env.zsk, Name(), 0, 10000);
  for (auto& s : signed_zone) {
    if (s.type == RRType::kNS) {
      std::get<dns::NsData>(s.rdatas[0]).nameserver =
          *Name::Parse("evil.example.");
    }
  }
  EXPECT_FALSE(
      ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000).ok());
}

TEST(Dnssec, ValidateZoneRejectsUnsignedRRset) {
  Env env;
  auto signed_zone = SignZoneRRsets({SampleRRset()}, env.zsk, Name(), 0, 10000);
  RRset extra = SampleRRset();
  extra.name = *Name::Parse("injected.");
  signed_zone.push_back(extra);
  EXPECT_FALSE(
      ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000).ok());
}

// The canonical forms as they were built before CanonicalWriter: one
// owning buffer per rdata, sorted as vectors, and Name::CanonicalWire()
// copies. Kept here as the reference the writer must match byte for byte.
util::Bytes ReferenceRRsetForm(const RRset& rrset, std::uint32_t ttl) {
  std::vector<util::Bytes> wires;
  for (const auto& rd : rrset.rdatas) {
    util::ByteWriter rw;
    dns::EncodeRdata(rd, rw);
    wires.push_back(rw.TakeData());
  }
  std::sort(wires.begin(), wires.end());
  util::ByteWriter w;
  for (const auto& rdata_wire : wires) {
    w.WriteBytes(rrset.name.CanonicalWire());
    w.WriteU16(static_cast<std::uint16_t>(rrset.type));
    w.WriteU16(static_cast<std::uint16_t>(rrset.rrclass));
    w.WriteU32(ttl);
    w.WriteU16(static_cast<std::uint16_t>(rdata_wire.size()));
    w.WriteBytes(rdata_wire);
  }
  return w.TakeData();
}

util::Bytes ReferenceSigningForm(const dns::RrsigData& t, const RRset& rrset) {
  util::ByteWriter w;
  w.WriteU16(static_cast<std::uint16_t>(t.type_covered));
  w.WriteU8(t.algorithm);
  w.WriteU8(t.labels);
  w.WriteU32(t.original_ttl);
  w.WriteU32(t.expiration);
  w.WriteU32(t.inception);
  w.WriteU16(t.key_tag);
  w.WriteBytes(t.signer.CanonicalWire());
  w.WriteBytes(ReferenceRRsetForm(rrset, t.original_ttl));
  return w.TakeData();
}

Digest256 ReferenceZoneDigest(std::vector<RRset> rrsets) {
  std::sort(rrsets.begin(), rrsets.end(),
            [](const RRset& a, const RRset& b) { return a.key() < b.key(); });
  Sha256 h;
  for (const auto& s : rrsets) h.Update(ReferenceRRsetForm(s, s.ttl));
  return h.Finish();
}

// RRsets that stress the canonical order: mixed-case owners and rdata
// names, rdatas that are prefixes of each other, duplicates, the root owner,
// and an empty set.
std::vector<RRset> CanonicalFormCases() {
  std::vector<RRset> cases;
  RRset ns = SampleRRset();
  ns.name = *Name::Parse("CoM.");
  ns.rdatas.push_back(dns::NsData{*Name::Parse("A.Gtld-Servers.NET.")});
  ns.rdatas.push_back(dns::NsData{*Name::Parse("a.gtld-servers.net.")});
  cases.push_back(ns);

  RRset txt;
  txt.name = *Name::Parse("Example.ORG.");
  txt.type = RRType::kTXT;
  txt.ttl = 300;
  txt.rdatas.push_back(dns::TxtData{{"abc"}});
  txt.rdatas.push_back(dns::TxtData{{"ab"}});
  txt.rdatas.push_back(dns::TxtData{{"ab", "c"}});
  txt.rdatas.push_back(dns::TxtData{{"ab"}});
  cases.push_back(txt);

  RRset apex;
  apex.type = RRType::kNS;
  apex.ttl = 518400;
  for (const char* host : {"m.root-servers.net.", "a.root-servers.net.",
                           "J.ROOT-SERVERS.NET."}) {
    apex.rdatas.push_back(dns::NsData{*Name::Parse(host)});
  }
  cases.push_back(apex);

  RRset glue;
  glue.name = *Name::Parse("a.root-servers.net.");
  glue.type = RRType::kA;
  glue.ttl = 3600000;
  glue.rdatas.push_back(dns::AData{dns::Ipv4{0xC6290004u}});
  glue.rdatas.push_back(dns::AData{dns::Ipv4{0x01020304u}});
  cases.push_back(glue);

  RRset empty;
  empty.name = *Name::Parse("empty.");
  empty.type = RRType::kA;
  cases.push_back(empty);
  return cases;
}

TEST(CanonicalWriter, SigningFormMatchesReference) {
  Env env;
  CanonicalWriter writer;  // one writer across every case: reuse is safe
  for (const RRset& s : CanonicalFormCases()) {
    for (const char* signer : {".", "Org.", "a.ROOT-servers.net."}) {
      const dns::RrsigData sig =
          SignRRset(s, env.zsk, *Name::Parse(signer), 1000, 2000);
      const auto form = writer.SigningForm(sig, dns::RRsetView::Of(s));
      EXPECT_EQ(util::Bytes(form.begin(), form.end()),
                ReferenceSigningForm(sig, s))
          << s.name.ToString() << " signer " << signer;
    }
  }
}

TEST(CanonicalWriter, RRsetFormAndZoneDigestMatchReference) {
  CanonicalWriter writer;
  const std::vector<RRset> cases = CanonicalFormCases();
  for (const RRset& s : cases) {
    const auto form = writer.RRsetForm(dns::RRsetView::Of(s));
    EXPECT_EQ(util::Bytes(form.begin(), form.end()),
              ReferenceRRsetForm(s, s.ttl))
        << s.name.ToString();
  }
  EXPECT_EQ(HexOf(ZoneDigest(cases)), HexOf(ReferenceZoneDigest(cases)));
}

// Several delegations with glue, the shape of a small root zone.
std::vector<RRset> SmallZone() {
  std::vector<RRset> zone;
  for (const char* tld : {"com.", "org.", "net.", "dev.", "zw."}) {
    RRset ns = SampleRRset();
    ns.name = *Name::Parse(tld);
    zone.push_back(ns);
    RRset glue;
    glue.name = *Name::Parse(std::string("ns.nic.") + tld);
    glue.type = RRType::kA;
    glue.ttl = 172800;
    glue.rdatas.push_back(dns::AData{dns::Ipv4{0xC0000201u}});
    zone.push_back(glue);
  }
  return zone;
}

TEST(Dnssec, ValidateZoneAcceptsAnyInputOrder) {
  Env env;
  // SignZoneRRsets appends every RRSIG after the data.
  auto signed_zone = SignZoneRRsets(SmallZone(), env.zsk, Name(), 0, 10000);
  auto validated =
      ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000);
  ASSERT_TRUE(validated.ok()) << validated.error().message();
  EXPECT_EQ(*validated, 10u);
  // Signatures first, data after, and interleaved.
  std::reverse(signed_zone.begin(), signed_zone.end());
  validated = ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000);
  ASSERT_TRUE(validated.ok()) << validated.error().message();
  EXPECT_EQ(*validated, 10u);
  util::Rng rng(7);
  for (std::size_t i = signed_zone.size(); i > 1; --i) {
    std::swap(signed_zone[i - 1], signed_zone[rng.Below(i)]);
  }
  validated = ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000);
  ASSERT_TRUE(validated.ok()) << validated.error().message();
  EXPECT_EQ(*validated, 10u);
}

TEST(Dnssec, ValidateZoneRejectsTamperingWithLastCanonicalRRset) {
  Env env;
  auto signed_zone = SignZoneRRsets(SmallZone(), env.zsk, Name(), 0, 10000);
  // The last data RRset in canonical order is ns.nic.zw. A.
  RRset* last = nullptr;
  for (auto& s : signed_zone) {
    if (s.type == RRType::kRRSIG) continue;
    if (last == nullptr || last->key() < s.key()) last = &s;
  }
  ASSERT_NE(last, nullptr);
  ASSERT_EQ(last->name.ToString(), "ns.nic.zw.");
  std::get<dns::AData>(last->rdatas[0]).address = dns::Ipv4{0x0A000001u};
  auto validated =
      ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000);
  ASSERT_FALSE(validated.ok());
  EXPECT_NE(validated.error().message().find("ns.nic.zw."), std::string::npos)
      << validated.error().message();
}

TEST(Dnssec, DoubleSignedZoneValidatesUnderEitherKey) {
  // A ZSK rollover: every RRset carries RRSIGs by the old and the new key.
  Env env;
  util::Rng rng(1234);
  const SigningKey next = GenerateKey(kZskFlags, rng);
  env.store.AddKey(next);
  const auto once = SignZoneRRsets(SmallZone(), env.zsk, Name(), 0, 10000);
  const auto twice = SignZoneRRsets(once, next, Name(), 0, 10000);
  ASSERT_EQ(twice.size(), 30u);  // 10 data + 10 RRSIGs per key
  for (const SigningKey* key : {&std::as_const(env.zsk), &next}) {
    auto validated =
        ValidateZoneRRsets(twice, key->dnskey, env.store, 5000);
    ASSERT_TRUE(validated.ok()) << validated.error().message();
    EXPECT_EQ(*validated, 10u);
  }
  // Without the second key's RRSIGs the zone fails under that key.
  EXPECT_FALSE(ValidateZoneRRsets(once, next.dnskey, env.store, 5000).ok());
}

TEST(Dnssec, ZoneSignedByUntrustedKeyFails) {
  Env env;
  util::Rng rng(4321);
  const SigningKey outsider = GenerateKey(kZskFlags, rng);
  const auto signed_zone =
      SignZoneRRsets(SmallZone(), outsider, Name(), 0, 10000);
  // The signing key is not in the store...
  auto by_outsider =
      ValidateZoneRRsets(signed_zone, outsider.dnskey, env.store, 5000);
  ASSERT_FALSE(by_outsider.ok());
  EXPECT_NE(by_outsider.error().message().find("unknown key"),
            std::string::npos);
  // ...and a trusted key finds no RRSIG of its own.
  auto by_trusted =
      ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000);
  ASSERT_FALSE(by_trusted.ok());
  EXPECT_NE(by_trusted.error().message().find("no RRSIG by key tag"),
            std::string::npos)
      << by_trusted.error().message();
}

}  // namespace
}  // namespace rootless::crypto
