// Tests for rdata presentation/wire forms and the message codec.
#include <gtest/gtest.h>

#include "crypto/dnssec.h"
#include "dns/message.h"
#include "dns/rdata.h"
#include "dns/rr.h"
#include "util/rng.h"
#include "util/strings.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/zone_snapshot.h"

namespace rootless::dns {
namespace {

Name N(std::string_view s) { return *Name::Parse(s); }

// ------------------------------------------------------------- addresses

TEST(Ipv4, ParseAndFormat) {
  auto a = Ipv4::Parse("198.41.0.4");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->ToString(), "198.41.0.4");
  EXPECT_EQ(a->addr, 0xC6290004u);
  EXPECT_FALSE(Ipv4::Parse("1.2.3").ok());
  EXPECT_FALSE(Ipv4::Parse("1.2.3.256").ok());
  EXPECT_FALSE(Ipv4::Parse("a.b.c.d").ok());
}

TEST(Ipv6, ParseAndFormat) {
  auto a = Ipv6::Parse("2001:503:ba3e::2:30");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->ToString(), "2001:503:ba3e::2:30");
  auto loopback = Ipv6::Parse("::1");
  ASSERT_TRUE(loopback.ok());
  EXPECT_EQ(loopback->ToString(), "::1");
  auto zero = Ipv6::Parse("::");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->ToString(), "::");
  auto full = Ipv6::Parse("2001:db8:1:2:3:4:5:6");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->ToString(), "2001:db8:1:2:3:4:5:6");
  EXPECT_FALSE(Ipv6::Parse("1::2::3").ok());
  EXPECT_FALSE(Ipv6::Parse("1:2:3").ok());
  EXPECT_FALSE(Ipv6::Parse("12345::").ok());
}

// ----------------------------------------------------------------- types

TEST(Types, RoundTrip) {
  EXPECT_EQ(RRTypeToString(RRType::kNS), "NS");
  EXPECT_EQ(*RRTypeFromString("aaaa"), RRType::kAAAA);
  EXPECT_EQ(RRTypeToString(static_cast<RRType>(999)), "TYPE999");
  EXPECT_EQ(*RRTypeFromString("TYPE999"), static_cast<RRType>(999));
  EXPECT_FALSE(RRTypeFromString("NOPE").ok());
  EXPECT_EQ(*RRClassFromString("in"), RRClass::kIN);
  EXPECT_EQ(RCodeToString(RCode::kNXDomain), "NXDOMAIN");
}

// ----------------------------------------------------------------- rdata

template <typename T>
void ExpectRdataRoundTrip(RRType type, const T& data) {
  const Rdata rdata(data);
  util::ByteWriter w;
  EncodeRdata(rdata, w);
  util::ByteReader r(w.span());
  auto decoded = DecodeRdata(type, w.size(), r);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_TRUE(rdata == *decoded);

  // Presentation round trip.
  const std::string text = RdataToString(rdata);
  std::vector<std::string_view> fields;
  for (auto f : util::SplitWhitespace(text)) fields.push_back(f);
  // TXT strings carry quotes that the zone parser strips; skip reparse.
  if (type != RRType::kTXT) {
    auto reparsed = RdataFromFields(type, fields);
    ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.error().message();
    EXPECT_TRUE(rdata == *reparsed) << text;
  }
}

TEST(Rdata, RoundTrips) {
  ExpectRdataRoundTrip(RRType::kA, AData{*Ipv4::Parse("192.0.2.1")});
  ExpectRdataRoundTrip(RRType::kAAAA, AaaaData{*Ipv6::Parse("2001:db8::1")});
  ExpectRdataRoundTrip(RRType::kNS, NsData{N("a.root-servers.net")});
  ExpectRdataRoundTrip(RRType::kCNAME, CnameData{N("target.example.")});
  ExpectRdataRoundTrip(RRType::kSOA,
                       SoaData{N("a.root-servers.net"), N("nstld.verisign-grs.com"),
                               2019041100, 1800, 900, 604800, 86400});
  ExpectRdataRoundTrip(RRType::kMX, MxData{10, N("mail.example.com")});
  ExpectRdataRoundTrip(RRType::kTXT, TxtData{{"hello world", "second"}});
  ExpectRdataRoundTrip(RRType::kDS,
                       DsData{20326, 8, 2, util::Bytes{0xDE, 0xAD, 0xBE, 0xEF}});
  ExpectRdataRoundTrip(RRType::kDNSKEY,
                       DnskeyData{257, 3, 8, util::Bytes{1, 2, 3, 4, 5}});
  ExpectRdataRoundTrip(
      RRType::kRRSIG,
      RrsigData{RRType::kNS, 8, 1, 172800, 1555555555, 1554555555, 20326,
                Name(), util::Bytes{9, 9, 9}});
  ExpectRdataRoundTrip(RRType::kNSEC,
                       NsecData{N("aaa."), {RRType::kNS, RRType::kDS,
                                            RRType::kRRSIG}});
}

TEST(Rdata, RawRoundTrip) {
  const RawData raw{util::Bytes{0xCA, 0xFE}};
  util::ByteWriter w;
  EncodeRdata(Rdata(raw), w);
  util::ByteReader r(w.span());
  auto decoded = DecodeRdata(static_cast<RRType>(4242), 2, r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(Rdata(raw) == *decoded);
  EXPECT_EQ(RdataToString(*decoded), "\\# 2 cafe");
  auto reparsed = RdataFromFields(static_cast<RRType>(4242),
                                  {"\\#", "2", "cafe"});
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(Rdata(raw) == *reparsed);
}

TEST(Rdata, DecodeRejectsTruncatedAndTrailing) {
  util::Bytes wire = {1, 2, 3};  // 3 bytes, A needs 4
  util::ByteReader r(wire);
  EXPECT_FALSE(DecodeRdata(RRType::kA, 3, r).ok());

  util::Bytes wire5 = {1, 2, 3, 4, 5};
  util::ByteReader r5(wire5);
  EXPECT_FALSE(DecodeRdata(RRType::kA, 5, r5).ok());
}

TEST(Rdata, RelativeNamesUseOrigin) {
  auto origin = N("com.");
  auto rdata = RdataFromFields(RRType::kNS, {"ns1.nic"}, origin);
  ASSERT_TRUE(rdata.ok());
  EXPECT_TRUE(std::get<NsData>(*rdata).nameserver == N("ns1.nic.com."));
  auto absolute = RdataFromFields(RRType::kNS, {"ns1.nic."}, origin);
  ASSERT_TRUE(absolute.ok());
  EXPECT_TRUE(std::get<NsData>(*absolute).nameserver == N("ns1.nic."));
}

TEST(Rdata, NsecTypeBitmapWindows) {
  // Type 4242 lives in window 16; exercises multi-window bitmaps.
  NsecData nsec{N("next."), {RRType::kA, static_cast<RRType>(4242)}};
  ExpectRdataRoundTrip(RRType::kNSEC, nsec);
}

TEST(Rdata, NsecUnsortedTypesEncodeCanonicalBitmap) {
  // Window 0: A(1) NS(2) -> 0x60; RRSIG(46) NSEC(47) -> byte 5 = 0x03.
  // Window 16: 4242 = 16*256 + 146 -> byte 18, bit 2 -> 0x20.
  const std::vector<RRType> sorted = {RRType::kA, RRType::kNS, RRType::kRRSIG,
                                      RRType::kNSEC,
                                      static_cast<RRType>(4242)};
  const std::vector<RRType> unsorted = {
      RRType::kNSEC, static_cast<RRType>(4242), RRType::kNS, RRType::kRRSIG,
      RRType::kA, RRType::kNS};
  const auto encode = [](const std::vector<RRType>& types) {
    util::ByteWriter w;
    EncodeRdata(Rdata(NsecData{Name(), types}), w);
    return w.TakeData();
  };
  util::Bytes want = {0x00,                     // next name: root
                      0x00, 6, 0x60, 0, 0, 0, 0, 0x03,  // window 0
                      0x10, 19};                // window 16, 19 bytes
  for (int i = 0; i < 18; ++i) want.push_back(0);
  want.push_back(0x20);
  EXPECT_EQ(encode(sorted), want);
  EXPECT_EQ(encode(unsorted), want);
}

// ----------------------------------------------------------------- rrset

TEST(RRset, GroupIntoRRsets) {
  std::vector<ResourceRecord> records;
  records.push_back({N("com."), RRType::kNS, RRClass::kIN, 172800,
                     NsData{N("a.gtld-servers.net.")}});
  records.push_back({N("com."), RRType::kNS, RRClass::kIN, 172000,
                     NsData{N("b.gtld-servers.net.")}});
  records.push_back({N("org."), RRType::kNS, RRClass::kIN, 172800,
                     NsData{N("a0.org.afilias-nst.info.")}});
  // duplicate rdata dropped
  records.push_back({N("com."), RRType::kNS, RRClass::kIN, 172800,
                     NsData{N("a.gtld-servers.net.")}});

  const auto sets = GroupIntoRRsets(records);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].size(), 2u);
  EXPECT_EQ(sets[0].ttl, 172000u);  // min TTL
  EXPECT_EQ(sets[1].size(), 1u);

  const auto expanded = sets[0].ToRecords();
  EXPECT_EQ(expanded.size(), 2u);
  EXPECT_EQ(expanded[0].ttl, 172000u);
}

// --------------------------------------------------------------- message

Message SampleReferral() {
  Message m;
  m.header.id = 4242;
  m.header.qr = true;
  m.header.aa = false;
  m.questions.push_back({N("www.sigcomm.org."), RRType::kA, RRClass::kIN});
  m.authority.push_back({N("org."), RRType::kNS, RRClass::kIN, 172800,
                         NsData{N("a0.org.afilias-nst.info.")}});
  m.authority.push_back({N("org."), RRType::kNS, RRClass::kIN, 172800,
                         NsData{N("b0.org.afilias-nst.org.")}});
  m.additional.push_back({N("a0.org.afilias-nst.info."), RRType::kA,
                          RRClass::kIN, 172800,
                          AData{*Ipv4::Parse("199.19.56.1")}});
  return m;
}

TEST(Message, RoundTrip) {
  const Message m = SampleReferral();
  const auto wire = EncodeMessage(m);
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(*decoded, m);
}

TEST(Message, HeaderFlagsRoundTrip) {
  Message m;
  m.header.id = 7;
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = false;
  m.header.rd = true;
  m.header.ra = true;
  m.header.opcode = Opcode::kNotify;
  m.header.rcode = RCode::kNXDomain;
  const auto wire = EncodeMessage(m);
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header, m.header);
}

TEST(Message, CompressionShrinksRepeatedNames) {
  const Message m = SampleReferral();
  const auto wire = EncodeMessage(m);
  // Uncompressed lower bound: each "org." repetition costs 5 bytes; with
  // compression the second occurrence is a 2-byte pointer. Just assert the
  // encoded form is smaller than the naive sum of parts.
  std::size_t naive = 12;
  for (const auto& q : m.questions) naive += q.name.wire_length() + 4;
  auto record_size = [](const ResourceRecord& rr) {
    util::ByteWriter w;
    EncodeRdata(rr.rdata, w);
    return rr.name.wire_length() + 10 + w.size();
  };
  for (const auto& rr : m.authority) naive += record_size(rr);
  for (const auto& rr : m.additional) naive += record_size(rr);
  EXPECT_LT(wire.size(), naive);
}

TEST(Message, TruncationDropsRecordsAndSetsTc) {
  Message m = SampleReferral();
  const auto full = EncodeMessage(m);
  const auto truncated = EncodeMessage(m, full.size() - 1);
  ASSERT_LT(truncated.size(), full.size());
  auto decoded = DecodeMessage(truncated);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->header.tc);
  EXPECT_LT(decoded->record_count(), m.record_count());
}

// The drop-one-record-and-re-encode loop EncodeMessage used before its
// single-pass cut, kept as the reference: drop additional, then authority,
// then answers, one record at a time, until the datagram fits.
util::Bytes ReferenceTruncate(const Message& m, std::size_t max_size) {
  Message cut = m;
  cut.header.tc = false;
  util::Bytes wire = EncodeMessage(cut);
  if (wire.size() <= max_size) return wire;
  while (cut.record_count() > 0) {
    if (!cut.additional.empty()) cut.additional.pop_back();
    else if (!cut.authority.empty()) cut.authority.pop_back();
    else cut.answers.pop_back();
    wire = EncodeMessage(cut);
    wire[2] |= 0x02;  // TC
    if (wire.size() <= max_size) return wire;
  }
  return wire;  // header + questions only, TC set
}

// A signed root-zone response as the authoritative server builds it: the
// lookup's sections, plus an OPT record last in additional.
struct SignedResponse {
  Message owned;
  MessageView view;
};

SignedResponse MakeSignedResponse(const zone::ZoneSnapshot& snapshot,
                                  const Name& qname,
                                  zone::LookupView& lookup) {
  static const Name kRoot;
  static const Rdata kOptRdata = RawData{};
  snapshot.Lookup(qname, RRType::kA, /*include_dnssec=*/true, lookup);
  SignedResponse r;
  r.view.header.id = 0xBEEF;
  r.view.header.qr = true;
  r.view.header.aa = lookup.disposition != zone::LookupDisposition::kReferral;
  r.view.questions.push_back({qname, RRType::kA, RRClass::kIN});
  r.view.answers = lookup.answers;
  r.view.authority = lookup.authority;
  r.view.additional = lookup.additional;
  r.view.additional.push_back(RRsetView{&kRoot, RRType::kOPT,
                                        static_cast<RRClass>(1232), 0,
                                        std::span<const Rdata>(&kOptRdata, 1)});
  r.owned.header = r.view.header;
  r.owned.questions = r.view.questions;
  const auto expand = [](const std::vector<RRsetView>& sets,
                         std::vector<ResourceRecord>& out) {
    for (const auto& set : sets) {
      for (const auto& rd : set.rdatas) {
        out.push_back({*set.name, set.type, set.rrclass, set.ttl, rd});
      }
    }
  };
  expand(r.view.answers, r.owned.answers);
  expand(r.view.authority, r.owned.authority);
  expand(r.view.additional, r.owned.additional);
  return r;
}

TEST(Message, SinglePassTruncationMatchesReEncodeReference) {
  const zone::RootZoneModel model;
  util::Rng rng(7);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(
      zone::SignZone(model.Snapshot({2019, 6, 7}), zsk, {0, 2'000'000'000}));

  zone::LookupView lookup;
  for (const char* qname : {"www.example.com.", "no-such-tld-xyzzy."}) {
    SCOPED_TRACE(qname);
    const SignedResponse r = MakeSignedResponse(*snapshot, N(qname), lookup);
    // A signed referral with glue, or a signed NXDOMAIN (SOA + NSEC).
    ASSERT_GE(r.owned.authority.size(), 4u);
    if (lookup.disposition == zone::LookupDisposition::kReferral) {
      ASSERT_GE(r.owned.additional.size(), 3u);
    } else {
      ASSERT_EQ(lookup.disposition, zone::LookupDisposition::kNxDomain);
    }

    const util::Bytes full = EncodeMessage(r.owned);
    EXPECT_EQ(EncodeMessage(r.view), full);
    std::size_t mismatches = 0;
    for (std::size_t max = 12; max <= full.size() + 1; ++max) {
      const util::Bytes want = ReferenceTruncate(r.owned, max);
      if (EncodeMessage(r.owned, max) != want ||
          EncodeMessage(r.view, max) != want) {
        if (++mismatches <= 3) ADD_FAILURE() << "max_size=" << max;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(Message, DecodeRejectsGarbage) {
  util::Bytes junk = {1, 2, 3};
  EXPECT_FALSE(DecodeMessage(junk).ok());

  // Trailing bytes after a valid message.
  auto wire = EncodeMessage(SampleReferral());
  wire.push_back(0);
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(Message, MakeQueryAndResponse) {
  const Message q = MakeQuery(99, N("example.com."), RRType::kA, true);
  EXPECT_FALSE(q.header.qr);
  EXPECT_TRUE(q.header.rd);
  ASSERT_EQ(q.questions.size(), 1u);

  const Message r = MakeResponse(q, RCode::kNoError);
  EXPECT_TRUE(r.header.qr);
  EXPECT_EQ(r.header.id, 99);
  EXPECT_EQ(r.questions, q.questions);
}

// Property test: random well-formed messages round-trip.
TEST(MessageProperty, RandomRoundTrips) {
  util::Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    Message m;
    m.header.id = static_cast<std::uint16_t>(rng.Below(65536));
    m.header.qr = rng.Chance(0.5);
    m.header.rd = rng.Chance(0.5);
    m.header.rcode = rng.Chance(0.2) ? RCode::kNXDomain : RCode::kNoError;

    auto random_name = [&rng]() {
      std::vector<std::string> labels;
      const std::size_t count = 1 + rng.Below(4);
      static const char* kPool[] = {"com", "net", "example", "www", "ns1",
                                    "nic", "a", "xn--abc", "long-label-here"};
      for (std::size_t i = 0; i < count; ++i) {
        labels.push_back(kPool[rng.Below(std::size(kPool))]);
      }
      return *Name::FromLabels(labels);
    };

    m.questions.push_back({random_name(), RRType::kA, RRClass::kIN});
    const std::size_t answers = rng.Below(4);
    for (std::size_t i = 0; i < answers; ++i) {
      switch (rng.Below(3)) {
        case 0:
          m.answers.push_back(
              {random_name(), RRType::kA, RRClass::kIN,
               static_cast<std::uint32_t>(rng.Below(172800)),
               AData{Ipv4{static_cast<std::uint32_t>(rng.Next())}}});
          break;
        case 1:
          m.answers.push_back({random_name(), RRType::kNS, RRClass::kIN, 3600,
                               NsData{random_name()}});
          break;
        default:
          m.answers.push_back({random_name(), RRType::kTXT, RRClass::kIN, 60,
                               TxtData{{"payload"}}});
      }
    }
    const auto wire = EncodeMessage(m);
    auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message();
    EXPECT_EQ(*decoded, m);
  }
}

}  // namespace
}  // namespace rootless::dns
