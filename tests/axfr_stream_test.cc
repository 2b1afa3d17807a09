// Tests for the AXFR message stream (distrib/axfr_stream.h) and the
// snapshot builder under it: the sender's frames against the
// record-by-record encoder it replaced, the assembler's checks, and the
// builder's merge rules against Zone::AddRecord on hostile record orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/dnssec.h"
#include "distrib/axfr_stream.h"
#include "dns/message.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/zone.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {
namespace {

using dns::Name;
using dns::ResourceRecord;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

zone::Zone SignedModel(const zone::EvolutionConfig& config) {
  const zone::RootZoneModel model(config);
  util::Rng rng(7);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  return zone::SignZone(model.Snapshot({2019, 6, 7}), zsk,
                        {0, 2'000'000'000});
}

zone::Zone SmallSignedModel() {
  zone::EvolutionConfig config;
  config.legacy_tld_count = 40;
  config.peak_tld_count = 50;
  return SignedModel(config);
}

// The encoder BuildAxfrStream replaced: every record copied into an owning
// dns::Message, one EncodeMessage per batch. Kept as the byte reference.
std::vector<util::Bytes> RecordByRecordStream(
    const zone::ZoneSnapshot& snapshot, const dns::Message& query,
    std::size_t records_per_message) {
  const auto soa = snapshot.soa();
  const ResourceRecord soa_record{*soa->name, soa->type, soa->rrclass,
                                  soa->ttl, soa->rdatas.front()};
  std::vector<ResourceRecord> records{soa_record};
  snapshot.ForEachRRset([&](const dns::RRsetView& set) {
    if (set.type == RRType::kSOA) return;
    for (const auto& rd : set.rdatas) {
      records.push_back(ResourceRecord{*set.name, set.type, set.rrclass,
                                       set.ttl, rd});
    }
  });
  records.push_back(soa_record);

  std::vector<util::Bytes> out;
  dns::Message msg;
  msg.header.id = query.header.id;
  msg.header.qr = true;
  msg.header.aa = true;
  msg.questions = query.questions;
  for (std::size_t i = 0; i < records.size(); ++i) {
    msg.answers.push_back(records[i]);
    if (msg.answers.size() == records_per_message ||
        i + 1 == records.size()) {
      out.push_back(dns::EncodeMessage(msg));
      msg.answers.clear();
      msg.questions.clear();
    }
  }
  return out;
}

// A transfer's record sequence for `zone`: SOA, the rest, SOA.
std::vector<ResourceRecord> Bracketed(const zone::Zone& zone) {
  const dns::RRset* soa = zone.soa();
  const ResourceRecord soa_record{soa->name, soa->type, soa->rrclass,
                                  soa->ttl, soa->rdatas.front()};
  std::vector<ResourceRecord> records{soa_record};
  for (auto& rr : zone.AllRecords()) {
    if (rr.type != RRType::kSOA) records.push_back(std::move(rr));
  }
  records.push_back(soa_record);
  return records;
}

// What Zone::AddRecord makes of the same sequence (closing SOA left out,
// as the assembler leaves it out).
zone::SnapshotPtr ZoneReference(const std::vector<ResourceRecord>& records) {
  zone::Zone zone(records.front().name);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_TRUE(zone.AddRecord(records[i]).ok());
  }
  return zone::ZoneSnapshot::Build(zone);
}

TEST(AxfrStream, FramesMatchTheRecordByRecordEncoder) {
  const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(SignedModel(zone::EvolutionConfig{}));
  const dns::Message query = dns::MakeQuery(0x1234, Name(), RRType::kAXFR);
  for (const std::size_t per :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{100},
        snapshot->record_count() + 10}) {
    SCOPED_TRACE(per);
    const auto got = BuildAxfrStream(*snapshot, query, per);
    const auto want = RecordByRecordStream(*snapshot, query, per);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "frame " << i;
    }
  }
}

TEST(AxfrStream, FramesRoundTripThroughTheAssembler) {
  const zone::Zone signed_zone = SmallSignedModel();
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(signed_zone);
  const dns::Message query = dns::MakeQuery(9, Name(), RRType::kAXFR);
  for (const std::size_t per : {std::size_t{1}, std::size_t{7},
                                std::size_t{100}}) {
    SCOPED_TRACE(per);
    std::vector<ResourceRecord> records;
    std::size_t soas = 0;
    for (const auto& frame : BuildAxfrStream(*snapshot, query, per)) {
      auto n = AppendAxfrFrame(frame, records);
      ASSERT_TRUE(n.ok()) << n.error().message();
      soas += *n;
    }
    EXPECT_EQ(soas, 2u);
    auto assembled = AssembleAxfrStream(std::move(records));
    ASSERT_TRUE(assembled.ok()) << assembled.error().message();
    EXPECT_TRUE((*assembled)->SameContent(*snapshot));
    EXPECT_TRUE((*assembled)->ToZone() == signed_zone);
  }
}

TEST(AxfrStream, FrameWithErrorRcodeIsRefused) {
  dns::Message refused = dns::MakeResponse(
      dns::MakeQuery(1, Name(), RRType::kAXFR), dns::RCode::kRefused);
  std::vector<ResourceRecord> records;
  auto n = AppendAxfrFrame(dns::EncodeMessage(refused), records);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code(), ErrorCode::kProtocol);
  EXPECT_FALSE(AppendAxfrFrame(util::Bytes{1, 2, 3}, records).ok());
}

TEST(AxfrStream, AssemblerRejectsBrokenStreams) {
  const zone::Zone zone = zone::RootZoneModel().Snapshot({2019, 6, 7});
  const std::vector<ResourceRecord> good = Bracketed(zone);
  const auto expect_protocol = [](std::vector<ResourceRecord> records,
                                  const std::string& prefix) {
    auto result = AssembleAxfrStream(std::move(records));
    ASSERT_FALSE(result.ok()) << prefix;
    EXPECT_EQ(result.error().code(), ErrorCode::kProtocol);
    EXPECT_EQ(result.error().message().rfind(prefix, 0), 0u)
        << result.error().message();
  };

  expect_protocol({}, "axfr: stream too short");
  expect_protocol({good.front()}, "axfr: stream too short");

  auto no_open = good;
  no_open.erase(no_open.begin());
  expect_protocol(no_open, "axfr: stream not SOA-bracketed");
  auto no_close = good;
  no_close.pop_back();
  expect_protocol(no_close, "axfr: stream not SOA-bracketed");

  auto mismatch = good;
  std::get<dns::SoaData>(mismatch.back().rdata).serial += 1;
  expect_protocol(mismatch, "axfr: SOA bracket mismatch");

  // Every owner is under the root, so out-of-zone needs a deeper apex.
  const dns::SoaData soa{N("ns.example."), N("host.example."), 7, 1, 1, 1, 1};
  const ResourceRecord open{N("example."), RRType::kSOA, dns::RRClass::kIN,
                            3600, soa};
  const ResourceRecord inside{N("www.example."), RRType::kA,
                              dns::RRClass::kIN, 60,
                              dns::AData{*dns::Ipv4::Parse("192.0.2.1")}};
  ResourceRecord outside = inside;
  outside.name = N("www.example.org.");
  expect_protocol({open, inside, outside, open}, "axfr: bad record: ");
  auto ok = AssembleAxfrStream({open, inside, open});
  ASSERT_TRUE(ok.ok()) << ok.error().message();
  EXPECT_EQ((*ok)->record_count(), 2u);
}

// A stream out of canonical order must fold exactly like Zone::AddRecord:
// min TTL per set, duplicates dropped, first-seen rdata order.
TEST(AxfrStream, ShuffledStreamFoldsLikeZoneAddRecord) {
  const std::vector<ResourceRecord> canonical = Bracketed(SmallSignedModel());
  util::Rng rng(41);
  std::vector<ResourceRecord> records = canonical;
  std::shuffle(records.begin() + 1, records.end() - 1, rng);
  const zone::SnapshotPtr want = ZoneReference(records);
  auto got = AssembleAxfrStream(records);
  ASSERT_TRUE(got.ok()) << got.error().message();
  EXPECT_TRUE((*got)->SameContent(*want));
  // The same sets as the canonical transfer; only rdata order may differ.
  auto in_order = AssembleAxfrStream(canonical);
  ASSERT_TRUE(in_order.ok());
  EXPECT_EQ((*got)->rrset_count(), (*in_order)->rrset_count());
  EXPECT_EQ((*got)->record_count(), (*in_order)->record_count());
}

TEST(AxfrStream, SplitInterleavedDuplicatedStreamFoldsLikeZoneAddRecord) {
  const std::vector<ResourceRecord> canonical = Bracketed(SmallSignedModel());
  // Even-position records, then odd-position ones, so every multi-record
  // RRset arrives in two runs far apart; a third of the records is sent
  // again later with a TTL up to 50 s higher or lower.
  util::Rng rng(43);
  std::vector<ResourceRecord> body;
  std::vector<ResourceRecord> repeats;
  for (int parity = 0; parity < 2; ++parity) {
    for (std::size_t i = 1 + parity; i + 1 < canonical.size(); i += 2) {
      body.push_back(canonical[i]);
      if (rng.Below(3) == 0) {
        ResourceRecord again = canonical[i];
        again.ttl = again.ttl + 50 - static_cast<std::uint32_t>(rng.Below(101));
        repeats.push_back(std::move(again));
      }
    }
  }
  std::vector<ResourceRecord> records{canonical.front()};
  for (std::size_t i = 0; i < body.size(); ++i) {
    records.push_back(body[i]);
    // Repeats ride along interleaved with the second half.
    if (i >= body.size() / 2 && !repeats.empty() && rng.Below(2) == 0) {
      records.push_back(repeats.back());
      repeats.pop_back();
    }
  }
  records.insert(records.end(), repeats.begin(), repeats.end());
  records.push_back(canonical.back());

  const zone::SnapshotPtr want = ZoneReference(records);
  auto got = AssembleAxfrStream(records);
  ASSERT_TRUE(got.ok()) << got.error().message();
  EXPECT_TRUE((*got)->SameContent(*want));
  EXPECT_EQ((*got)->record_count(), canonical.size() - 1);
}

}  // namespace
}  // namespace rootless::distrib
