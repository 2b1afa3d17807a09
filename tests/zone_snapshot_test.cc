// Tests for the immutable arena-backed zone snapshot layer: lookup parity
// with the reference walk over the Zone's map (spot checks and an
// exhaustive differential sweep), structural sharing under Apply,
// DiffSnapshots against a map diff, the zero-copy MessageView wire path,
// and concurrent readers of one shared snapshot.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/dnssec.h"
#include "dns/message.h"
#include "obs/metrics.h"
#include "reference_lookup.h"
#include "rootsrv/auth_server.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

namespace rootless::zone {
namespace {

using dns::Name;
using dns::RRset;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

// Names owning an NS RRset strictly below the apex, read off the Zone's
// canonical map.
std::vector<Name> Cuts(const Zone& zone) {
  std::vector<Name> out;
  for (const auto& [key, set] : zone.rrset_map()) {
    if (key.type == RRType::kNS && !(key.name == zone.apex())) {
      out.push_back(key.name);
    }
  }
  return out;
}

// new - old over the two Zones' canonical maps, section by section.
ZoneDiff MapDiff(const Zone& old_zone, const Zone& new_zone) {
  ZoneDiff diff;
  const auto& old_map = old_zone.rrset_map();
  const auto& new_map = new_zone.rrset_map();
  for (const auto& [key, set] : new_map) {
    const auto it = old_map.find(key);
    if (it == old_map.end()) {
      diff.added.push_back(set);
    } else if (!(it->second == set)) {
      diff.changed.push_back(set);
    }
  }
  for (const auto& [key, set] : old_map) {
    if (new_map.count(key) == 0) diff.removed.push_back(key);
  }
  return diff;
}

ZoneDiff Diff(const Zone& old_zone, const Zone& new_zone) {
  return DiffSnapshots(*ZoneSnapshot::Build(old_zone),
                       *ZoneSnapshot::Build(new_zone));
}

// Materializes both sides of a lookup and compares section by section.
void ExpectLookupParity(const Zone& zone, const ZoneSnapshot& snapshot,
                        const Name& qname, RRType qtype,
                        bool include_dnssec = false) {
  const reference::LookupResult want =
      reference::Lookup(zone, qname, qtype, include_dnssec);
  const reference::LookupResult got = reference::Materialize(
      snapshot.Lookup(qname, qtype, include_dnssec));
  SCOPED_TRACE(qname.ToString());
  EXPECT_EQ(got.disposition, want.disposition);
  EXPECT_EQ(got.answers, want.answers);
  EXPECT_EQ(got.authority, want.authority);
  EXPECT_EQ(got.additional, want.additional);
}

TEST(ZoneSnapshot, BuildPreservesContent) {
  const RootZoneModel model;
  const Zone master = model.Snapshot({2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(master);

  EXPECT_EQ(snapshot->apex(), master.apex());
  EXPECT_EQ(snapshot->Serial(), master.Serial());
  EXPECT_EQ(snapshot->rrset_count(), master.rrset_count());
  EXPECT_EQ(snapshot->record_count(), master.record_count());
  EXPECT_EQ(snapshot->page_count(), 1u);
  EXPECT_TRUE(snapshot->SameContent(*snapshot));

  // Round-trip through the mutable form is lossless.
  EXPECT_TRUE(snapshot->ToZone() == master);

  // Canonical iteration matches AllRRsets.
  std::vector<RRset> visited;
  snapshot->ForEachRRset(
      [&](const dns::RRsetView& v) { visited.push_back(v.Materialize()); });
  EXPECT_EQ(visited, snapshot->AllRRsets());
}

TEST(ZoneSnapshot, LookupParityPlain) {
  const RootZoneModel model;
  const Zone master = model.Snapshot({2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(master);

  // Apex answers, referrals (with glue), NODATA, NXDOMAIN, out-of-zone.
  ExpectLookupParity(master, *snapshot, N("."), RRType::kSOA);
  ExpectLookupParity(master, *snapshot, N("."), RRType::kNS);
  ExpectLookupParity(master, *snapshot, N("."), RRType::kTXT);
  ExpectLookupParity(master, *snapshot, N("com."), RRType::kNS);
  ExpectLookupParity(master, *snapshot, N("com."), RRType::kDS);
  ExpectLookupParity(master, *snapshot, N("com."), RRType::kA);
  ExpectLookupParity(master, *snapshot, N("www.example.com."), RRType::kA);
  ExpectLookupParity(master, *snapshot, N("no-such-tld-xyzzy."), RRType::kA);
  ExpectLookupParity(master, *snapshot, N("a.b.no-such-tld-xyzzy."),
                     RRType::kAAAA);

  // Every delegated child, both NS (referral/answer path) and A.
  for (const Name& child : Cuts(master)) {
    ExpectLookupParity(master, *snapshot, child, RRType::kNS);
    ExpectLookupParity(master, *snapshot, child, RRType::kA);
  }
  EXPECT_EQ(snapshot->DelegatedChildren(), Cuts(master));
}

TEST(ZoneSnapshot, LookupParitySigned) {
  const RootZoneModel model;
  util::Rng rng(7);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  const Zone signed_zone =
      SignZone(model.Snapshot({2019, 6, 7}), zsk, {0, 2'000'000'000});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(signed_zone);

  for (const bool dnssec : {false, true}) {
    SCOPED_TRACE(dnssec ? "dnssec" : "plain");
    ExpectLookupParity(signed_zone, *snapshot, N("."), RRType::kSOA, dnssec);
    ExpectLookupParity(signed_zone, *snapshot, N("."), RRType::kDNSKEY,
                       dnssec);
    ExpectLookupParity(signed_zone, *snapshot, N("com."), RRType::kNS,
                       dnssec);
    ExpectLookupParity(signed_zone, *snapshot, N("com."), RRType::kDS,
                       dnssec);
    // NXDOMAIN must carry the covering NSEC (+RRSIG) when dnssec is on.
    ExpectLookupParity(signed_zone, *snapshot, N("no-such-tld-xyzzy."),
                       RRType::kA, dnssec);
    ExpectLookupParity(signed_zone, *snapshot, N("zzz-not-there."),
                       RRType::kNS, dnssec);
  }
}

TEST(ZoneSnapshot, ApplyMatchesApplyDiffAndSharesPages) {
  const RootZoneModel model;
  const Zone today = model.Snapshot({2018, 4, 11});
  const Zone tomorrow = model.Snapshot({2018, 4, 12});
  const ZoneDiff diff = Diff(today, tomorrow);
  ASSERT_FALSE(diff.empty());

  const SnapshotPtr base = ZoneSnapshot::Build(today);
  auto applied = ZoneSnapshot::Apply(base, diff);
  ASSERT_TRUE(applied.ok());

  // Content identical to rebuilding from the new day's zone.
  const SnapshotPtr rebuilt = ZoneSnapshot::Build(tomorrow);
  EXPECT_TRUE((*applied)->SameContent(*rebuilt));
  EXPECT_EQ((*applied)->Serial(), tomorrow.Serial());

  // Structural sharing: one new delta page, every base page shared, and the
  // delta page holds exactly the added+changed RRsets.
  EXPECT_EQ((*applied)->page_count(), base->page_count() + 1);
  EXPECT_EQ((*applied)->SharedPageCount(*base), base->page_count());
  EXPECT_EQ((*applied)->newest_page_rrset_count(),
            diff.added.size() + diff.changed.size());

  // Chained Apply keeps sharing the original page.
  const Zone day3 = model.Snapshot({2018, 4, 13});
  auto applied2 = ZoneSnapshot::Apply(*applied, Diff(tomorrow, day3));
  ASSERT_TRUE(applied2.ok());
  EXPECT_TRUE((*applied2)->SameContent(*ZoneSnapshot::Build(day3)));
  EXPECT_EQ((*applied2)->SharedPageCount(*base), base->page_count());
}

TEST(ZoneSnapshot, ApplyLeavesUnchangedViewsAliasingBaseArena) {
  const RootZoneModel model;
  const Zone today = model.Snapshot({2018, 4, 11});
  const Zone tomorrow = model.Snapshot({2018, 4, 12});
  const ZoneDiff diff = Diff(today, tomorrow);

  // Pick an RRset untouched by the diff.
  std::set<std::string> touched;
  for (const auto& s : diff.added) touched.insert(s.name.ToString());
  for (const auto& k : diff.removed) touched.insert(k.name.ToString());
  for (const auto& s : diff.changed) touched.insert(s.name.ToString());
  Name untouched = N(".");
  bool found = false;
  for (const Name& child : Cuts(today)) {
    if (!touched.count(child.ToString())) {
      untouched = child;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  const SnapshotPtr base = ZoneSnapshot::Build(today);
  auto applied = ZoneSnapshot::Apply(base, diff);
  ASSERT_TRUE(applied.ok());

  const auto before = base->Find(untouched, RRType::kNS);
  const auto after = (*applied)->Find(untouched, RRType::kNS);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(after.has_value());
  // Zero-copy: the derived snapshot serves the very same arena memory.
  EXPECT_EQ(after->rdatas.data(), before->rdatas.data());
  EXPECT_EQ(after->name, before->name);
}

TEST(ZoneSnapshot, ApplyRejectsBadDiffLikeApplyDiff) {
  const RootZoneModel model;
  const SnapshotPtr base = ZoneSnapshot::Build(model.Snapshot({2019, 6, 7}));

  ZoneDiff bad;
  bad.removed.push_back(
      {N("definitely-not-present."), RRType::kNS, dns::RRClass::kIN});
  EXPECT_FALSE(ZoneSnapshot::Apply(base, bad).ok());

  ZoneDiff bad_change;
  RRset ghost;
  ghost.name = N("definitely-not-present.");
  ghost.type = RRType::kNS;
  ghost.rdatas.push_back(dns::NsData{N("ns.example.")});
  bad_change.changed.push_back(ghost);
  EXPECT_FALSE(ZoneSnapshot::Apply(base, bad_change).ok());
}

TEST(ZoneSnapshot, DiffSnapshotsMatchesMapDiff) {
  const RootZoneModel model;
  const Zone today = model.Snapshot({2018, 4, 11});
  const Zone tomorrow = model.Snapshot({2018, 4, 12});

  const ZoneDiff want = MapDiff(today, tomorrow);
  ASSERT_FALSE(want.empty());
  const ZoneDiff got = DiffSnapshots(*ZoneSnapshot::Build(today),
                                     *ZoneSnapshot::Build(tomorrow));
  EXPECT_EQ(got.added, want.added);
  EXPECT_EQ(got.removed, want.removed);
  EXPECT_EQ(got.changed, want.changed);
  EXPECT_EQ(SerializeDiff(got), SerializeDiff(want));

  // And across an Apply chain (page structure differs, content does not).
  auto applied =
      ZoneSnapshot::Apply(ZoneSnapshot::Build(today), want);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(
      DiffSnapshots(*ZoneSnapshot::Build(tomorrow), **applied).empty());
}

TEST(ZoneSnapshot, MessageViewEncodesByteIdenticalToMessage) {
  const RootZoneModel model;
  const Zone master = model.Snapshot({2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(master);

  const Name qname = N("www.example.com.");
  LookupView view = snapshot->Lookup(qname, RRType::kA);
  ASSERT_EQ(view.disposition, LookupDisposition::kReferral);

  dns::MessageView borrowed;
  borrowed.header.id = 0x1234;
  borrowed.header.qr = true;
  borrowed.questions.push_back({qname, RRType::kA, dns::RRClass::kIN});
  borrowed.answers = view.answers;
  borrowed.authority = view.authority;
  borrowed.additional = view.additional;

  dns::Message owned;
  owned.header = borrowed.header;
  owned.questions = borrowed.questions;
  const reference::LookupResult materialized = reference::Materialize(view);
  for (const auto& s : materialized.answers)
    for (auto& rr : s.ToRecords()) owned.answers.push_back(rr);
  for (const auto& s : materialized.authority)
    for (auto& rr : s.ToRecords()) owned.authority.push_back(rr);
  for (const auto& s : materialized.additional)
    for (auto& rr : s.ToRecords()) owned.additional.push_back(rr);

  // Unlimited and truncating encodes are both byte-identical.
  EXPECT_EQ(dns::EncodeMessage(borrowed), dns::EncodeMessage(owned));
  for (const std::size_t max : {512u, 256u, 64u}) {
    EXPECT_EQ(dns::EncodeMessage(borrowed, max),
              dns::EncodeMessage(owned, max))
        << "max_size=" << max;
  }
}

// ---------------------------------------------------------------------------
// Differential sweep: ZoneSnapshot::Lookup (owner-hash probes) against the
// reference walk over the Zone's std::map (reference_lookup.h). Its own
// suite name: the sweep is single-threaded and takes minutes under
// ThreadSanitizer, so it stays out of the ZoneSnapshot suite the sanitizer
// job selects.

bool SameLookup(const Zone& zone, const ZoneSnapshot& snapshot,
                const Name& qname, RRType qtype, bool include_dnssec) {
  const reference::LookupResult want =
      reference::Lookup(zone, qname, qtype, include_dnssec);
  const reference::LookupResult got = reference::Materialize(
      snapshot.Lookup(qname, qtype, include_dnssec));
  return got.disposition == want.disposition && got.answers == want.answers &&
         got.authority == want.authority && got.additional == want.additional;
}

// Runs every (name, type) in both dnssec modes; reports the first few
// mismatches by name rather than one failure per lookup.
void ExpectLookupsAgree(const Zone& zone, const ZoneSnapshot& snapshot,
                        const std::vector<Name>& names) {
  static constexpr RRType kTypes[] = {RRType::kA,   RRType::kAAAA,
                                      RRType::kNS,  RRType::kDS,
                                      RRType::kSOA, RRType::kNSEC,
                                      RRType::kRRSIG};
  std::size_t mismatches = 0;
  for (const Name& name : names) {
    for (const RRType type : kTypes) {
      for (const bool dnssec : {false, true}) {
        if (SameLookup(zone, snapshot, name, type, dnssec)) continue;
        if (++mismatches <= 5) {
          ADD_FAILURE() << name.ToString() << " " << static_cast<int>(type)
                        << (dnssec ? " +dnssec" : "");
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// The same name with every other letter's case flipped.
Name MixedCase(const Name& name) {
  std::string text = name.ToString();
  bool flip = true;
  for (char& c : text) {
    if (std::isalpha(static_cast<unsigned char>(c)) == 0) continue;
    if (flip) {
      c = static_cast<char>(std::isupper(static_cast<unsigned char>(c))
                                ? std::tolower(static_cast<unsigned char>(c))
                                : std::toupper(static_cast<unsigned char>(c)));
    }
    flip = !flip;
  }
  return N(text);
}

// Every owner, its mixed-case spelling, names 1-3 labels below every cut,
// every NS target (glue hosts), and random bogus TLDs — including labels
// that sort before and after every TLD.
std::vector<Name> ProbeNames(const Zone& zone, std::uint64_t seed) {
  std::set<Name> owners;
  std::set<Name> hosts;
  for (const auto& [key, set] : zone.rrset_map()) {
    owners.insert(key.name);
    if (key.type != RRType::kNS) continue;
    for (const auto& rd : set.rdatas) {
      hosts.insert(std::get<dns::NsData>(rd).nameserver);
    }
  }
  std::vector<Name> names(owners.begin(), owners.end());
  for (const Name& owner : owners) names.push_back(MixedCase(owner));
  for (const Name& cut : Cuts(zone)) {
    Name below = cut;
    for (const char* label : {"x1", "Sub-2", "x3"}) {
      below = *N(label).Concat(below);
      names.push_back(below);
    }
  }
  names.insert(names.end(), hosts.begin(), hosts.end());
  for (const char* edge : {"\\000.", "!.", "-.", "0.", "0a.", "a.\\000.",
                           "zzzzzzzz.", "\\255.", "www.zzzzzzzz."}) {
    names.push_back(N(edge));
  }
  util::Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    std::string label;
    const int len = 1 + static_cast<int>(rng.Below(12));
    for (int j = 0; j < len; ++j) {
      label += "abcdefghijklmnopqrstuvwxyz0123456789-"[rng.Below(37)];
    }
    names.push_back(N(label + "."));
    if (i % 5 == 0) names.push_back(N("www." + label + "."));
  }
  return names;
}

Zone SignedRootZone(const RootZoneModel& model, const util::CivilDate& date) {
  util::Rng rng(7);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  return SignZone(model.Snapshot(date), zsk, {0, 2'000'000'000});
}

TEST(LookupDifferential, SignedRootZone) {
  const RootZoneModel model;
  const Zone zone = SignedRootZone(model, {2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(zone);
  ExpectLookupsAgree(zone, *snapshot, ProbeNames(zone, 11));
}

TEST(LookupDifferential, SnapshotAfterApply) {
  // Apply rebuilds the owner index over a merged index whose entries point
  // into two pages.
  const RootZoneModel model;
  const Zone today = SignedRootZone(model, {2018, 4, 11});
  const Zone tomorrow = SignedRootZone(model, {2018, 4, 12});
  const ZoneDiff diff = Diff(today, tomorrow);
  ASSERT_FALSE(diff.empty());
  auto applied = ZoneSnapshot::Apply(ZoneSnapshot::Build(today), diff);
  ASSERT_TRUE(applied.ok());
  std::vector<Name> names = ProbeNames(tomorrow, 12);
  // Owners that exist only on the first day must now be NXDOMAIN.
  for (const auto& key : diff.removed) names.push_back(key.name);
  ExpectLookupsAgree(tomorrow, **applied, names);
}

TEST(LookupDifferential, WrapAroundNsecAndNestedCut) {
  // The apex carries no NSEC, so a name sorting before every NSEC owner is
  // covered by the last NSEC of the chain (the wrap-around case). A cut
  // below a cut checks the highest-cut rule, and a name under a cut with no
  // DS exercises the unsigned-referral path.
  Zone zone(N("example."));
  const auto add = [&](const char* owner, RRType type, dns::Rdata rd) {
    RRset set;
    set.name = N(owner);
    set.type = type;
    set.ttl = 3600;
    set.rdatas.push_back(std::move(rd));
    ASSERT_TRUE(zone.AddRRset(set).ok());
  };
  add("example.", RRType::kSOA,
      dns::SoaData{N("ns.example."), N("host.example."), 7, 1800, 900,
                   604800, 86400});
  add("example.", RRType::kNS, dns::NsData{N("ns.example.")});
  add("ns.example.", RRType::kA, dns::AData{*dns::Ipv4::Parse("192.0.2.1")});
  add("m.example.", RRType::kNSEC,
      dns::NsecData{N("z.example."), {RRType::kTXT}});
  add("m.example.", RRType::kTXT, dns::TxtData{{"m"}});
  add("z.example.", RRType::kNSEC,
      dns::NsecData{N("m.example."), {RRType::kTXT}});
  add("z.example.", RRType::kTXT, dns::TxtData{{"z"}});
  add("sub.example.", RRType::kNS, dns::NsData{N("ns.sub.example.")});
  add("ns.sub.example.", RRType::kAAAA,
      dns::AaaaData{*dns::Ipv6::Parse("2001:db8::1")});
  add("deep.sub.example.", RRType::kNS, dns::NsData{N("ns.example.")});
  add("alias.example.", RRType::kCNAME, dns::CnameData{N("m.example.")});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(zone);

  const LookupView early = snapshot->Lookup(N("a.example."), RRType::kA, true);
  ASSERT_EQ(early.disposition, LookupDisposition::kNxDomain);
  ASSERT_EQ(early.authority.size(), 2u);
  EXPECT_EQ(*early.authority[1].name, N("z.example."));

  std::vector<Name> names = ProbeNames(zone, 13);
  for (const char* extra : {"a.example.", "b.example.", "n.example.",
                            "zz.example.", "ALIAS.example.", "x.sub.example.",
                            "ns.sub.example.", "deep.sub.example.",
                            "a.deep.sub.example.", "other.", "."}) {
    names.push_back(N(extra));
  }
  ExpectLookupsAgree(zone, *snapshot, names);
}

TEST(ZoneSnapshot, ConcurrentLookupsShareOneSnapshot) {
  // Frontend workers and replay shards read one snapshot from several
  // threads at once; its owner index, arena names and lazily cached name
  // hashes must serve them all identically (run under TSan in CI).
  const RootZoneModel model;
  const Zone zone = SignedRootZone(model, {2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(zone);

  std::vector<Name> names = ProbeNames(zone, 14);
  if (names.size() > 4000) names.resize(4000);
  std::vector<util::Bytes> queries;
  for (std::size_t i = 0; i < names.size(); ++i) {
    queries.push_back(dns::EncodeMessage(
        dns::MakeQuery(static_cast<std::uint16_t>(i), names[i],
                       i % 3 == 0 ? RRType::kAAAA : RRType::kA),
        0));
  }

  // Each thread records its AnswerDatagram responses and, as wire bytes,
  // the sections of a direct Lookup.
  const auto answer_all = [&](std::vector<util::Bytes>& wires,
                              std::vector<util::Bytes>& lookups) {
    obs::Registry registry;
    rootsrv::AuthServer::Options options;
    options.include_dnssec = true;
    options.answer_cache_entries = 0;
    options.registry = &registry;
    rootsrv::AuthServer server(nullptr, snapshot, options);
    LookupView scratch;
    dns::MessageView sections;
    for (std::size_t i = 0; i < names.size(); ++i) {
      snapshot->Lookup(names[i], RRType::kNS, true, scratch);
      sections.answers = scratch.answers;
      sections.authority = scratch.authority;
      sections.additional = scratch.additional;
      lookups.push_back(dns::EncodeMessage(sections));
      wires.push_back(server.AnswerDatagram(queries[i], i));
    }
  };

  std::vector<util::Bytes> want_wires;
  std::vector<util::Bytes> want_lookups;
  answer_all(want_wires, want_lookups);

  constexpr int kThreads = 4;
  std::vector<std::vector<util::Bytes>> wires(kThreads);
  std::vector<std::vector<util::Bytes>> lookups(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { answer_all(wires[t], lookups[t]); });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(wires[t] == want_wires) << "thread " << t;
    EXPECT_TRUE(lookups[t] == want_lookups) << "thread " << t;
  }
}

}  // namespace
}  // namespace rootless::zone
