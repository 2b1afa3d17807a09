// Tests for the authoritative server, root fleet, and TLD farm.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "rootsrv/auth_server.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "topo/deployment.h"
#include "topo/topology.h"
#include "zone/evolution.h"

namespace rootless::rootsrv {
namespace {

using dns::Name;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

struct Fixture {
  sim::Simulator sim;
  sim::Network net{sim, 11};
  topo::Topology registry;
  std::shared_ptr<zone::Zone> root_zone = std::make_shared<zone::Zone>();

  Fixture() {
    net.set_latency_fn(registry.LatencyFn());
    dns::SoaData soa;
    soa.mname = N("a.root-servers.net.");
    soa.serial = 2018041100;
    EXPECT_TRUE(root_zone
                    ->AddRecord({Name(), RRType::kSOA, dns::RRClass::kIN,
                                 86400, soa})
                    .ok());
    EXPECT_TRUE(root_zone
                    ->AddRecord({N("com."), RRType::kNS, dns::RRClass::kIN,
                                 172800, dns::NsData{N("ns.nic.com.")}})
                    .ok());
    EXPECT_TRUE(root_zone
                    ->AddRecord({N("ns.nic.com."), RRType::kA,
                                 dns::RRClass::kIN, 172800,
                                 dns::AData{*dns::Ipv4::Parse("192.0.2.1")}})
                    .ok());
  }
};

TEST(AuthServer, AnswersReferral) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  const auto query = dns::MakeQuery(7, N("www.example.com."), RRType::kA);
  const auto response = server.Answer(query);
  EXPECT_EQ(response.header.rcode, dns::RCode::kNoError);
  EXPECT_FALSE(response.header.aa);
  ASSERT_FALSE(response.authority.empty());
  EXPECT_EQ(response.authority[0].type, RRType::kNS);
  ASSERT_FALSE(response.additional.empty());  // glue
  EXPECT_EQ(server.stats().referrals, 1u);
}

TEST(AuthServer, AnswersNxdomainForBogusTld) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  const auto response =
      server.Answer(dns::MakeQuery(8, N("foo.bogus-junk."), RRType::kA));
  EXPECT_EQ(response.header.rcode, dns::RCode::kNXDomain);
  EXPECT_TRUE(response.header.aa);
  ASSERT_FALSE(response.authority.empty());
  EXPECT_EQ(response.authority[0].type, RRType::kSOA);
  EXPECT_EQ(server.stats().nxdomain, 1u);
}

TEST(AuthServer, RespondsOverNetwork) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  dns::Message got;
  const sim::NodeId client = f.net.AddNode([&](const sim::Datagram& d) {
    auto m = dns::DecodeMessage(d.payload);
    ASSERT_TRUE(m.ok());
    got = *m;
  });
  f.registry.PlaceNode(client, {40, -74});
  f.registry.PlaceNode(server.node(), {51, 0});
  f.net.Send(client, server.node(),
             dns::EncodeMessage(dns::MakeQuery(9, N("x.com."), RRType::kA)));
  f.sim.Run();
  EXPECT_TRUE(got.header.qr);
  EXPECT_EQ(got.header.id, 9);
  EXPECT_GT(f.sim.now(), 2 * 20 * sim::kMillisecond);  // a real RTT elapsed
  EXPECT_EQ(server.stats().bytes_out, f.net.bytes_sent() -
                                          /* query bytes */ server.stats().bytes_in);
}

TEST(AuthServer, DropsMalformedQueries) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  const sim::NodeId client = f.net.AddNode(nullptr);
  f.net.Send(client, server.node(), util::Bytes{1, 2, 3});
  f.sim.Run();
  EXPECT_EQ(server.stats().malformed, 1u);
}

TEST(AuthServer, ZoneSwapTakesEffect) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  auto new_zone = std::make_shared<zone::Zone>(*f.root_zone);
  ASSERT_TRUE(new_zone
                  ->AddRecord({N("dev."), RRType::kNS, dns::RRClass::kIN,
                               172800, dns::NsData{N("ns.nic.dev.")}})
                  .ok());
  EXPECT_EQ(server.Answer(dns::MakeQuery(1, N("a.dev."), RRType::kA))
                .header.rcode,
            dns::RCode::kNXDomain);
  server.SetZone(new_zone);
  EXPECT_EQ(server.Answer(dns::MakeQuery(2, N("a.dev."), RRType::kA))
                .header.rcode,
            dns::RCode::kNoError);
}

// ---- EDNS0 / truncation / preflight / answer cache --------------------

// A query carrying an OPT pseudo-record advertising `payload` bytes.
dns::Message WithOpt(dns::Message query, std::uint16_t payload) {
  query.additional.push_back({Name(), RRType::kOPT,
                              static_cast<dns::RRClass>(payload), 0,
                              dns::RawData{}});
  return query;
}

// A zone whose referral for *.big. encodes to more than 4096 bytes (100 NS
// records plus glue), so every UDP payload tier truncates.
zone::SnapshotPtr BigReferralSnapshot() {
  zone::Zone zone;
  dns::SoaData soa;
  soa.mname = N("a.root-servers.net.");
  soa.serial = 1;
  EXPECT_TRUE(
      zone.AddRecord({Name(), RRType::kSOA, dns::RRClass::kIN, 86400, soa})
          .ok());
  for (int i = 0; i < 100; ++i) {
    const Name ns = N("ns" + std::to_string(i) + ".big.");
    EXPECT_TRUE(zone.AddRecord({N("big."), RRType::kNS, dns::RRClass::kIN,
                                172800, dns::NsData{ns}})
                    .ok());
    EXPECT_TRUE(zone.AddRecord({ns, RRType::kA, dns::RRClass::kIN, 172800,
                                dns::AData{*dns::Ipv4::Parse("192.0.2.7")}})
                    .ok());
  }
  return zone::ZoneSnapshot::Build(zone);
}

bool TcBit(const util::Bytes& wire) {
  return wire.size() > 2 && (wire[2] & 0x02);
}

TEST(AuthServerEdns, TruncatesAt512WithoutOpt) {
  AuthServer::Options options;
  options.edns.default_udp_payload = 512;  // wire front-end configuration
  AuthServer server(nullptr, BigReferralSnapshot(), options);
  const auto wire =
      server.AnswerWire(dns::MakeQuery(1, N("www.big."), RRType::kA));
  EXPECT_LE(wire.size(), 512u);
  EXPECT_TRUE(TcBit(wire));
  EXPECT_EQ(server.stats().truncated, 1u);
  EXPECT_EQ(server.stats().edns_queries, 0u);
}

TEST(AuthServerEdns, HonorsRequestorPayloadTiers) {
  AuthServer::Options options;
  options.edns.default_udp_payload = 512;
  AuthServer server(nullptr, BigReferralSnapshot(), options);
  std::size_t previous = 0;
  for (const std::uint16_t payload : {std::uint16_t{512}, std::uint16_t{1232},
                                      std::uint16_t{4096}}) {
    const auto wire = server.AnswerWire(
        WithOpt(dns::MakeQuery(payload, N("www.big."), RRType::kA), payload));
    EXPECT_LE(wire.size(), payload) << payload;
    EXPECT_TRUE(TcBit(wire)) << payload;  // full referral is > 4096
    EXPECT_GT(wire.size(), previous) << payload;  // more room, more records
    previous = wire.size();
  }
  EXPECT_EQ(server.stats().edns_queries, 3u);
}

TEST(AuthServerEdns, EchoesOptWhenResponseFits) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  const auto wire = server.AnswerWire(
      WithOpt(dns::MakeQuery(1, N("www.com."), RRType::kA), 1232));
  EXPECT_FALSE(TcBit(wire));
  auto decoded = dns::DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_FALSE(decoded->additional.empty());
  const auto& opt = decoded->additional.back();
  EXPECT_EQ(opt.type, RRType::kOPT);
  EXPECT_EQ(static_cast<std::size_t>(opt.rrclass),
            server.edns().advertise_udp_payload);
  // Under truncation the OPT rides last and is the first record dropped —
  // the truncated wire signals TC alone (the big-referral tests above).
}

TEST(AuthServerEdns, ClampsAdvertisedPayload) {
  AuthServer::Options options;
  options.edns.default_udp_payload = 512;
  AuthServer server(nullptr, BigReferralSnapshot(), options);
  // A tiny advertisement clamps up to the 512 floor...
  const auto small = server.AnswerWire(
      WithOpt(dns::MakeQuery(1, N("www.big."), RRType::kA), 100));
  EXPECT_LE(small.size(), 512u);
  // ...and a giant one clamps down to the 4096 ceiling.
  const auto large = server.AnswerWire(
      WithOpt(dns::MakeQuery(2, N("www.big."), RRType::kA), 65535));
  EXPECT_LE(large.size(), 4096u);
  EXPECT_GT(large.size(), 512u);
  EXPECT_TRUE(TcBit(large));
}

TEST(AuthServerEdns, TcpNeverTruncates) {
  AuthServer server(nullptr, BigReferralSnapshot(), {});
  const auto wire = server.AnswerWire(
      dns::MakeQuery(1, N("www.big."), RRType::kA), Channel::kTcp);
  EXPECT_GT(wire.size(), 4096u);
  EXPECT_FALSE(TcBit(wire));
  EXPECT_EQ(server.stats().truncated, 0u);
}

TEST(AuthServerPreflight, ScreensProtocolViolations) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);

  // Two questions: FORMERR.
  auto two_questions = dns::MakeQuery(1, N("a.com."), RRType::kA);
  two_questions.questions.push_back({N("b.com."), RRType::kA,
                                     dns::RRClass::kIN});
  EXPECT_EQ(server.Answer(two_questions).header.rcode, dns::RCode::kFormErr);

  // Two OPT records: FORMERR (RFC 6891 §6.1.1).
  const auto two_opts =
      WithOpt(WithOpt(dns::MakeQuery(2, N("a.com."), RRType::kA), 1232), 1232);
  EXPECT_EQ(server.Answer(two_opts).header.rcode, dns::RCode::kFormErr);

  // Non-query opcode: NOTIMP.
  auto notify = dns::MakeQuery(3, N("a.com."), RRType::kA);
  notify.header.opcode = dns::Opcode::kNotify;
  EXPECT_EQ(server.Answer(notify).header.rcode, dns::RCode::kNotImp);

  // Non-IN class: REFUSED.
  auto chaos = dns::MakeQuery(4, N("version.bind."), RRType::kTXT);
  chaos.questions.front().rrclass = dns::RRClass::kCH;
  EXPECT_EQ(server.Answer(chaos).header.rcode, dns::RCode::kRefused);

  // AXFR over UDP: REFUSED (TCP front-ends divert AXFR before the server).
  const auto axfr = dns::MakeQuery(5, Name(), RRType::kAXFR);
  const auto axfr_answer = server.Answer(axfr);
  EXPECT_EQ(axfr_answer.header.rcode, dns::RCode::kRefused);
  EXPECT_EQ(server.AnswerWire(axfr, Channel::kUdp),
            dns::EncodeMessage(axfr_answer));

  EXPECT_EQ(server.stats().malformed, 2u);
  EXPECT_EQ(server.stats().refused, 4u);  // notimp + chaos + 2x axfr
}

TEST(AuthServerCache, HitsAreByteIdenticalModuloId) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  const auto first =
      server.AnswerWire(dns::MakeQuery(0x1111, N("www.x.com."), RRType::kA));
  const auto second =
      server.AnswerWire(dns::MakeQuery(0x2222, N("www.x.com."), RRType::kA));
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(second[0], 0x22);
  EXPECT_EQ(second[1], 0x22);
  EXPECT_TRUE(std::equal(first.begin() + 2, first.end(), second.begin() + 2));
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.stats().referrals, 2u);  // counters replay on hits
}

TEST(AuthServerCache, DistinguishesEveryKeyDimension) {
  AuthServer::Options options;
  options.edns.default_udp_payload = 512;
  AuthServer server(nullptr, BigReferralSnapshot(), options);
  const auto base = dns::MakeQuery(1, N("www.big."), RRType::kA);
  const auto plain = server.AnswerWire(base);
  // Different qtype, different payload limit, different channel, and an rd
  // flag flip must all miss the cache and produce different bytes.
  const auto aaaa =
      server.AnswerWire(dns::MakeQuery(1, N("www.big."), RRType::kAAAA));
  const auto edns = server.AnswerWire(WithOpt(base, 4096));
  const auto tcp = server.AnswerWire(base, Channel::kTcp);
  auto rd = base;
  rd.header.rd = true;
  const auto rd_wire = server.AnswerWire(rd);
  EXPECT_EQ(server.stats().cache_hits, 0u);
  EXPECT_NE(plain, edns);
  EXPECT_NE(plain, tcp);
  EXPECT_NE(plain, rd_wire);
  EXPECT_NE(plain, aaaa);
  // And the exact-case question echo is preserved per spelling.
  const auto upper =
      server.AnswerWire(dns::MakeQuery(1, N("WWW.BIG."), RRType::kA));
  EXPECT_EQ(server.stats().cache_hits, 0u);
  auto decoded = dns::DecodeMessage(upper);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->questions.front().name.ToString(), "WWW.BIG.");
}

TEST(AuthServerCache, RootNameQueriesHitTheCache) {
  // The root qname is empty on the wire-key path; its cache probe must not
  // hand memcmp a null pointer (the sanitizer builds catch it if it does).
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  for (const RRType type : {RRType::kSOA, RRType::kNS}) {
    const auto first = server.AnswerWire(dns::MakeQuery(0x1111, Name(), type));
    const auto second =
        server.AnswerWire(dns::MakeQuery(0x2222, Name(), type));
    ASSERT_EQ(first.size(), second.size());
    EXPECT_TRUE(
        std::equal(first.begin() + 2, first.end(), second.begin() + 2));
  }
  EXPECT_EQ(server.stats().cache_hits, 2u);
}

TEST(AuthServerCache, SetZoneInvalidates) {
  Fixture f;
  AuthServer server(f.net, f.root_zone);
  EXPECT_EQ(server.AnswerWire(dns::MakeQuery(1, N("a.dev."), RRType::kA))[3] &
                0x0F,
            static_cast<int>(dns::RCode::kNXDomain));
  auto new_zone = std::make_shared<zone::Zone>(*f.root_zone);
  ASSERT_TRUE(new_zone
                  ->AddRecord({N("dev."), RRType::kNS, dns::RRClass::kIN,
                               172800, dns::NsData{N("ns.nic.dev.")}})
                  .ok());
  server.SetZone(new_zone);
  EXPECT_EQ(server.AnswerWire(dns::MakeQuery(2, N("a.dev."), RRType::kA))[3] &
                0x0F,
            static_cast<int>(dns::RCode::kNoError));
  EXPECT_EQ(server.stats().cache_hits, 0u);
}

TEST(AuthServerCache, DisabledServerStillAnswersIdentically) {
  Fixture f;
  AuthServer::Options options;
  options.answer_cache_entries = 0;
  AuthServer cached(f.net, f.root_zone);
  AuthServer plain(nullptr, zone::ZoneSnapshot::Build(*f.root_zone), options);
  for (int i = 0; i < 3; ++i) {
    const auto query =
        dns::MakeQuery(static_cast<std::uint16_t>(i), N("go.com."), RRType::kA);
    EXPECT_EQ(cached.AnswerWire(query), plain.AnswerWire(query));
  }
  EXPECT_EQ(cached.stats().cache_hits, 2u);
  EXPECT_EQ(plain.stats().cache_hits, 0u);
}

TEST(Fleet, InstanceCountMatchesDeployment) {
  Fixture f;
  topo::DeploymentModel deployment;
  RootServerFleet fleet(f.net, f.registry, f.root_zone);
  EXPECT_EQ(fleet.instance_count(),
            static_cast<std::size_t>(
                deployment.TotalInstancesOn({2018, 4, 11})));
}

TEST(Fleet, AnycastPrefersNearbyInstance) {
  Fixture f;
  RootServerFleet fleet(f.net, f.registry, f.root_zone);
  // Large letters (many instances) should land closer than small ones on
  // average; at minimum the chosen instance must be the nearest of its
  // letter.
  const topo::GeoPoint client{48.85, 2.35};  // Paris
  const sim::NodeId node = fleet.InstanceFor('f', client);
  double chosen_km = -1;
  double best_km = 1e18;
  for (const auto& instance : fleet.instances()) {
    if (instance.letter != 'f') continue;
    const double km = topo::GreatCircleKm(instance.location, client);
    best_km = std::min(best_km, km);
    if (instance.server->node() == node) chosen_km = km;
  }
  EXPECT_NEAR(chosen_km, best_km, 1e-9);
}

TEST(Fleet, StatsAggregate) {
  Fixture f;
  RootServerFleet fleet(f.net, f.registry, f.root_zone);
  const sim::NodeId client = f.net.AddNode(nullptr);
  f.registry.PlaceNode(client, {40, -74});
  for (int i = 0; i < 5; ++i) {
    f.net.Send(client, fleet.InstanceFor('j', {40, -74}),
               dns::EncodeMessage(
                   dns::MakeQuery(static_cast<std::uint16_t>(i),
                                  N("foo.bogus."), RRType::kA)));
  }
  f.sim.Run();
  EXPECT_EQ(fleet.TotalStats().queries, 5u);
  EXPECT_EQ(fleet.LetterStats('j').queries, 5u);
  EXPECT_EQ(fleet.LetterStats('a').queries, 0u);
  EXPECT_EQ(fleet.TotalStats().nxdomain, 5u);
}

TEST(TldFarm, BuildsFromRootZoneAndAnswers) {
  sim::Simulator sim;
  sim::Network net(sim, 3);
  topo::Topology registry;
  net.set_latency_fn(registry.LatencyFn());

  const zone::RootZoneModel model;
  const zone::Zone root_zone = model.Snapshot({2018, 4, 11});
  TldFarm farm(net, registry, root_zone, 99);
  EXPECT_EQ(farm.tld_count(), root_zone.DelegatedChildren().size());

  sim::NodeId com_node = 0;
  ASSERT_TRUE(farm.FindTldNode("com", com_node));

  // Query the com server for an A record.
  dns::Message got;
  const sim::NodeId client = net.AddNode([&](const sim::Datagram& d) {
    auto m = dns::DecodeMessage(d.payload);
    ASSERT_TRUE(m.ok());
    got = *m;
  });
  net.Send(client, com_node,
           dns::EncodeMessage(
               dns::MakeQuery(5, N("www.example.com."), RRType::kA)));
  sim.Run();
  EXPECT_TRUE(got.header.aa);
  ASSERT_EQ(got.answers.size(), 1u);
  EXPECT_EQ(got.answers[0].type, RRType::kA);
  EXPECT_EQ(farm.queries_served(), 1u);

  // Determinism: the same name resolves to the same address.
  const auto a1 = std::get<dns::AData>(got.answers[0].rdata);
  net.Send(client, com_node,
           dns::EncodeMessage(
               dns::MakeQuery(6, N("www.example.com."), RRType::kA)));
  sim.Run();
  EXPECT_EQ(std::get<dns::AData>(got.answers[0].rdata), a1);
}

TEST(TldFarm, FindsNodeByGlueAddress) {
  sim::Simulator sim;
  sim::Network net(sim, 3);
  topo::Topology registry;
  const zone::RootZoneModel model;
  const zone::Zone root_zone = model.Snapshot({2018, 4, 11});
  TldFarm farm(net, registry, root_zone, 99);

  // Take com's first glue address from the zone and look it up.
  const auto* ns = root_zone.Find(N("com."), RRType::kNS);
  ASSERT_NE(ns, nullptr);
  bool found_any = false;
  for (const auto& rd : ns->rdatas) {
    const Name& host = std::get<dns::NsData>(rd).nameserver;
    if (const auto* a = root_zone.Find(host, RRType::kA)) {
      sim::NodeId via_addr = 0, via_tld = 0;
      ASSERT_TRUE(farm.FindByAddress(
          std::get<dns::AData>(a->rdatas.front()).address, via_addr));
      ASSERT_TRUE(farm.FindTldNode("com", via_tld));
      EXPECT_EQ(via_addr, via_tld);
      found_any = true;
    }
  }
  EXPECT_TRUE(found_any);
}

TEST(TldFarm, RefusesOutOfDomainQuery) {
  sim::Simulator sim;
  sim::Network net(sim, 3);
  topo::Topology registry;
  const zone::RootZoneModel model;
  const zone::Zone root_zone = model.Snapshot({2018, 4, 11});
  TldFarm farm(net, registry, root_zone, 99);

  sim::NodeId com_node = 0;
  ASSERT_TRUE(farm.FindTldNode("com", com_node));
  dns::Message got;
  const sim::NodeId client = net.AddNode([&](const sim::Datagram& d) {
    auto m = dns::DecodeMessage(d.payload);
    ASSERT_TRUE(m.ok());
    got = *m;
  });
  net.Send(client, com_node,
           dns::EncodeMessage(dns::MakeQuery(5, N("www.example.org."),
                                             RRType::kA)));
  sim.Run();
  EXPECT_EQ(got.header.rcode, dns::RCode::kRefused);
}

}  // namespace
}  // namespace rootless::rootsrv
