// Socket front-end tests: the epoll event loop, and end-to-end parity — the
// byte streams served through real UDP/TCP sockets must be identical to what
// the same AuthServer configuration produces in the simulator, for the whole
// replay-shaped query corpus including malformed input and TC truncation.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/dnssec.h"
#include "dns/message.h"
#include "net/axfr_client.h"
#include "net/event_loop.h"
#include "net/frontend.h"
#include "net/udp_server.h"
#include "obs/metrics.h"
#include "rootsrv/auth_server.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/zone_snapshot.h"

namespace rootless::net {
namespace {

using dns::Name;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

dns::Message WithOpt(dns::Message query, std::uint16_t payload) {
  query.additional.push_back({Name(), RRType::kOPT,
                              static_cast<dns::RRClass>(payload), 0,
                              dns::RawData{}});
  return query;
}

// A small signed root zone with one oversized delegation ("bigtld.", 30 NS +
// glue) whose referral is guaranteed past 512 bytes, so the corpus always
// exercises TC truncation.
zone::SnapshotPtr TestSnapshot(const util::CivilDate& date) {
  zone::EvolutionConfig config;
  config.legacy_tld_count = 80;
  config.peak_tld_count = 100;
  const zone::RootZoneModel model(config);
  zone::Zone root = model.Snapshot(date);
  for (int i = 0; i < 30; ++i) {
    const Name ns = N("ns" + std::to_string(i) + ".bigtld.");
    EXPECT_TRUE(root.AddRecord({N("bigtld."), RRType::kNS, dns::RRClass::kIN,
                                172800, dns::NsData{ns}})
                    .ok());
    EXPECT_TRUE(root.AddRecord({ns, RRType::kA, dns::RRClass::kIN, 172800,
                                dns::AData{*dns::Ipv4::Parse("198.51.100.9")}})
                    .ok());
  }
  util::Rng rng(0xD15EC);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  return zone::ZoneSnapshot::Build(zone::SignZone(root, zsk, {0, 0xFFFFFFFF}));
}

// The exact AuthServer configuration the frontend gives its workers, with
// the answer cache off so parity also checks cached vs uncached serving.
rootsrv::AuthServer::Options ReferenceOptions(const FrontendOptions& fo) {
  rootsrv::AuthServer::Options options = WorkerAuthOptions(fo);
  options.answer_cache_entries = 0;
  return options;
}

// Blocking loopback UDP client.
class UdpClient {
 public:
  explicit UdpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  ~UdpClient() { ::close(fd_); }

  // The client id the UDP server charges this socket's datagrams to.
  std::uint64_t id() const {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len);
    return ClientId(local);
  }

  void Send(const util::Bytes& payload) {
    ::send(fd_, payload.data(), payload.size(), 0);
  }
  std::optional<util::Bytes> Recv(int timeout_ms) {
    timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::uint8_t buffer[8192];
    const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (got < 0) return std::nullopt;
    return util::Bytes(buffer, buffer + got);
  }

 private:
  int fd_ = -1;
};

// Blocking loopback TCP client speaking 2-byte length-prefixed DNS frames.
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
  }
  ~TcpClient() { ::close(fd_); }

  bool connected() const { return connected_; }

  void SendFrame(const util::Bytes& payload) {
    util::Bytes frame;
    frame.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
    frame.push_back(static_cast<std::uint8_t>(payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off, 0);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  std::optional<util::Bytes> RecvFrame() {
    std::uint8_t len_bytes[2];
    if (!ReadAll(len_bytes, 2)) return std::nullopt;
    const std::size_t len = static_cast<std::size_t>(len_bytes[0]) << 8 |
                            len_bytes[1];
    util::Bytes payload(len);
    if (len > 0 && !ReadAll(payload.data(), len)) return std::nullopt;
    return payload;
  }

 private:
  bool ReadAll(std::uint8_t* out, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::recv(fd_, out + off, len - off, 0);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
};

// A loopback TCP listener on an ephemeral port (written to `addr`) for
// scripted upstreams; -1 on failure.
int ListenLoopback(sockaddr_in& addr) {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t addr_len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    if (listener >= 0) ::close(listener);
    return -1;
  }
  return listener;
}

TEST(EventLoop, DispatchesAndWakes) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int fired = 0;
  ASSERT_TRUE(loop.Add(fds[0], EPOLLIN, [&](std::uint32_t) { ++fired; }).ok());

  // Nothing readable: a zero-timeout poll dispatches nothing.
  loop.PollOnce(0);
  EXPECT_EQ(fired, 0);

  const char byte = 'x';
  ASSERT_EQ(::write(fds[1], &byte, 1), 1);
  loop.PollOnce(0);
  EXPECT_EQ(fired, 1);

  // Removal: further readiness is not dispatched.
  char drain;
  ASSERT_EQ(::read(fds[0], &drain, 1), 1);
  ASSERT_EQ(::write(fds[1], &byte, 1), 1);
  loop.Remove(fds[0]);
  loop.PollOnce(0);
  EXPECT_EQ(fired, 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, StopWakesABlockedRun) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<bool> entered{false};
  ASSERT_TRUE(loop.Add(fds[0], EPOLLIN,
                       [&](std::uint32_t) {
                         char c;
                         (void)::read(fds[0], &c, 1);
                         entered.store(true);
                       })
                  .ok());
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  std::thread runner([&] { loop.Run(); });
  // Wait until Run() is demonstrably inside its loop (it dispatched the
  // pipe), then Stop must wake the blocked epoll_wait via the eventfd.
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.Stop();
  runner.join();  // hangs (and times out the test) if the wake is broken
  ::close(fds[0]);
  ::close(fds[1]);
}

// The whole wire corpus, served over real sockets, must be byte-identical
// to the simulator path running the same AuthServer configuration.
TEST(NetParity, UdpMatchesSimulatorByteForByte) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  FrontendOptions options;
  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, options);
  ASSERT_TRUE(frontend.Start().ok());

  // Reference: same configuration, simulated transport, no answer cache.
  sim::Simulator sim;
  sim::Network simnet(sim, 9);
  rootsrv::AuthServer reference(&simnet, snapshot, ReferenceOptions(options));
  std::optional<util::Bytes> captured;
  const sim::NodeId sim_client = simnet.AddNode(
      [&](const sim::Datagram& d) { captured = d.payload; });
  auto reference_answer =
      [&](const util::Bytes& payload) -> std::optional<util::Bytes> {
    captured.reset();
    simnet.Send(sim_client, reference.node(), payload);
    sim.Run();
    return captured;
  };

  // Replay-shaped corpus: priming, apex DNSSEC material, delegations valid
  // and bogus at each EDNS tier, flag variants, the >512 referral without
  // EDNS (TC), protocol violations, and garbage.
  std::vector<util::Bytes> corpus;
  corpus.push_back(dns::EncodeMessage(WithOpt(
      dns::MakeQuery(0x100, Name(), RRType::kNS), 1232)));  // priming
  corpus.push_back(dns::EncodeMessage(WithOpt(
      dns::MakeQuery(0x101, Name(), RRType::kDNSKEY), 4096)));
  corpus.push_back(dns::EncodeMessage(dns::MakeQuery(0x102, Name(),
                                                     RRType::kSOA)));
  int id = 0x200;
  for (const char* tld : {"com.", "net.", "org."}) {
    for (const RRType type : {RRType::kNS, RRType::kDS, RRType::kA}) {
      corpus.push_back(dns::EncodeMessage(dns::MakeQuery(
          static_cast<std::uint16_t>(id++), N(std::string("www.") + tld),
          type)));
      for (const std::uint16_t payload : {512, 1232, 4096}) {
        corpus.push_back(dns::EncodeMessage(WithOpt(
            dns::MakeQuery(static_cast<std::uint16_t>(id++), N(tld), type),
            payload)));
      }
    }
  }
  corpus.push_back(dns::EncodeMessage(dns::MakeQuery(
      0x300, N("www.no-such-tld-zz."), RRType::kA)));  // NXDOMAIN
  corpus.push_back(dns::EncodeMessage(WithOpt(
      dns::MakeQuery(0x301, N("WWW.COM."), RRType::kA), 1232)));  // case echo
  auto rd_query = dns::MakeQuery(0x302, N("www.com."), RRType::kA);
  rd_query.header.rd = true;
  corpus.push_back(dns::EncodeMessage(rd_query));
  corpus.push_back(dns::EncodeMessage(dns::MakeQuery(
      0x303, N("www.bigtld."), RRType::kA)));  // >512, no EDNS: TC
  corpus.push_back(dns::EncodeMessage(dns::MakeQuery(
      0x304, Name(), RRType::kAXFR)));  // AXFR over UDP: REFUSED
  auto chaos = dns::MakeQuery(0x305, N("version.bind."), RRType::kTXT);
  chaos.questions.front().rrclass = dns::RRClass::kCH;
  corpus.push_back(dns::EncodeMessage(chaos));
  auto two_questions = dns::MakeQuery(0x306, N("a.com."), RRType::kA);
  two_questions.questions.push_back({N("b.com."), RRType::kA,
                                     dns::RRClass::kIN});
  corpus.push_back(dns::EncodeMessage(two_questions));
  // Undecodable garbage with a readable header: FORMERR comes back.
  util::Bytes garbage(24, 0x41);
  garbage[0] = 0x13;
  garbage[1] = 0x37;
  garbage[2] = 0x00;  // qr clear
  corpus.push_back(garbage);
  // Headerless runt and a response-flagged query: both silently dropped.
  corpus.push_back(util::Bytes{1, 2, 3});
  auto qr_set = dns::MakeQuery(0x307, N("www.com."), RRType::kA);
  qr_set.header.qr = true;
  corpus.push_back(dns::EncodeMessage(qr_set));

  UdpClient client(frontend.udp_port());
  std::size_t answered = 0;
  std::size_t silent = 0;
  bool saw_tc = false;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto expected = reference_answer(corpus[i]);
    client.Send(corpus[i]);
    if (expected.has_value()) {
      const auto got = client.Recv(3000);
      ASSERT_TRUE(got.has_value()) << "corpus item " << i;
      EXPECT_EQ(*got, *expected) << "corpus item " << i;
      if (got->size() > 2 && ((*got)[2] & 0x02)) saw_tc = true;
      ++answered;
    } else {
      EXPECT_FALSE(client.Recv(150).has_value()) << "corpus item " << i;
      ++silent;
    }
  }
  EXPECT_EQ(silent, 2u);
  EXPECT_GT(answered, 30u);
  EXPECT_TRUE(saw_tc);  // the no-EDNS bigtld referral must have truncated
  frontend.Stop();
}

TEST(NetParity, TcpMatchesDirectAnswerWire) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  FrontendOptions options;
  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, options);
  ASSERT_TRUE(frontend.Start().ok());

  rootsrv::AuthServer reference(nullptr, snapshot,
                                ReferenceOptions(options));

  TcpClient client(frontend.tcp_port());
  ASSERT_TRUE(client.connected());
  const std::vector<dns::Message> corpus = {
      WithOpt(dns::MakeQuery(1, Name(), RRType::kNS), 1232),
      dns::MakeQuery(2, Name(), RRType::kDNSKEY),
      dns::MakeQuery(3, N("www.bigtld."), RRType::kA),  // big: no TC on TCP
      dns::MakeQuery(4, N("www.no-such-tld-zz."), RRType::kA),
  };
  for (const auto& query : corpus) {
    const auto expected =
        reference.AnswerWire(query, rootsrv::Channel::kTcp);
    client.SendFrame(dns::EncodeMessage(query));
    const auto got = client.RecvFrame();
    ASSERT_TRUE(got.has_value()) << query.header.id;
    EXPECT_EQ(*got, expected) << query.header.id;
    EXPECT_FALSE(got->size() > 2 && ((*got)[2] & 0x02));  // never TC
  }
  // Undecodable garbage over TCP draws the same FORMERR as over UDP.
  util::Bytes garbage(24, 0x41);
  garbage[0] = 0x13;
  garbage[1] = 0x37;
  garbage[2] = 0x00;
  client.SendFrame(garbage);
  const auto formerr = client.RecvFrame();
  ASSERT_TRUE(formerr.has_value());
  auto decoded = dns::DecodeMessage(*formerr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.rcode, dns::RCode::kFormErr);
  EXPECT_EQ(decoded->header.id, 0x1337);
  frontend.Stop();
}

TEST(NetParity, AxfrTransfersTheExactZone) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, {});
  ASSERT_TRUE(frontend.Start().ok());

  auto fetched = FetchZoneTcp("127.0.0.1", frontend.tcp_port(), {});
  ASSERT_TRUE(fetched.ok()) << fetched.error().message();
  ASSERT_TRUE(*fetched);
  EXPECT_TRUE((*fetched)->SameContent(*snapshot));

  // Probing with the current serial reports "up to date" (null snapshot).
  const auto soa = (*fetched)->soa();
  ASSERT_TRUE(soa.has_value());
  AxfrFetchOptions probe;
  probe.have_serial = std::get<dns::SoaData>(soa->rdatas.front()).serial;
  auto up_to_date = FetchZoneTcp("127.0.0.1", frontend.tcp_port(), probe);
  ASSERT_TRUE(up_to_date.ok());
  EXPECT_EQ(*up_to_date, nullptr);
  frontend.Stop();
}

// A held copy newer than the server's (RFC 1982 serial arithmetic, across
// the 2^32 wrap too) fails kStale before any transfer; an older one
// transfers.
TEST(NetParity, AxfrRefusesAnOlderServerSerial) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, {});
  ASSERT_TRUE(frontend.Start().ok());
  const std::uint32_t serial = snapshot->Serial();
  AxfrFetchOptions options;
  for (const std::uint32_t gap : {1u, 0x7FFFFFFFu}) {
    SCOPED_TRACE(gap);
    options.have_serial = serial + gap;
    auto stale = FetchZoneTcp("127.0.0.1", frontend.tcp_port(), options);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.error().code(), ErrorCode::kStale);

    options.have_serial = serial - gap;
    auto newer = FetchZoneTcp("127.0.0.1", frontend.tcp_port(), options);
    ASSERT_TRUE(newer.ok()) << newer.error().message();
    ASSERT_TRUE(*newer);
    EXPECT_TRUE((*newer)->SameContent(*snapshot));
  }
  frontend.Stop();
}

// A scripted server opens a transfer with the SOA and then streams records
// without ever closing it: the fetch gives up at kMaxAxfrBytes.
//
// The server reads the whole query frame and half-closes before it closes:
// a close() with unread input sends a RST, which drops whatever is still
// queued for the client, so the client could see a reset short of the cap.
TEST(NetParity, AxfrStopsAtTheTransferByteCap) {
  sockaddr_in addr{};
  const int listener = ListenLoopback(addr);
  ASSERT_GE(listener, 0);

  std::size_t sent = 0;
  std::thread server([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const auto recv_exact = [fd](std::uint8_t* data, std::size_t size) {
      for (std::size_t off = 0; off < size;) {
        const ssize_t n = ::recv(fd, data + off, size - off, 0);
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
      }
      return true;
    };
    std::uint8_t prefix[2];
    std::uint8_t query[0xFFFF];
    const bool got_query =
        recv_exact(prefix, 2) &&
        recv_exact(query, std::size_t{prefix[0]} << 8 | prefix[1]);
    const auto send_frame = [fd](const util::Bytes& payload) {
      util::Bytes frame{static_cast<std::uint8_t>(payload.size() >> 8),
                        static_cast<std::uint8_t>(payload.size())};
      frame.insert(frame.end(), payload.begin(), payload.end());
      for (std::size_t off = 0; off < frame.size();) {
        const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
      }
      return true;
    };
    dns::Message open;
    open.header.qr = true;
    open.answers.push_back({Name(), RRType::kSOA, dns::RRClass::kIN, 86400,
                            dns::SoaData{N("a.root-servers.net."),
                                         N("nstld.example."), 1, 1, 1, 1, 1}});
    dns::Message filler;
    filler.header.qr = true;
    filler.answers.push_back({N("filler."), static_cast<RRType>(65280),
                              dns::RRClass::kIN, 0,
                              dns::RawData{util::Bytes(65000, 0xAB)}});
    const util::Bytes filler_wire = dns::EncodeMessage(filler);
    if (got_query && send_frame(dns::EncodeMessage(open))) {
      // Bounded, so a client that never stops cannot hang the test.
      while (sent < kMaxAxfrBytes + (std::size_t{2} << 20) &&
             send_frame(filler_wire)) {
        sent += 2 + filler_wire.size();
      }
    }
    // FIN after the queued frames, then wait for the client to hang up.
    ::shutdown(fd, SHUT_WR);
    while (::recv(fd, query, sizeof(query), 0) > 0) {
    }
    ::close(fd);
  });

  AxfrFetchOptions options;
  options.timeout_ms = 10000;
  auto fetched = FetchZoneTcp("127.0.0.1", ntohs(addr.sin_port), options);
  server.join();
  ::close(listener);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.error().code(), ErrorCode::kProtocol);
  EXPECT_NE(fetched.error().message().find("exceeds"), std::string::npos)
      << fetched.error().message();
  EXPECT_GE(sent + (std::size_t{1} << 20), kMaxAxfrBytes);
}

// A scripted server that answers with one byte every 20 ms (slowloris):
// each read makes progress, so only a deadline on the whole fetch ends it.
// Trickling the SOA probe's answer and trickling the transfer must both
// fail kTimeout soon after timeout_ms, long before the server gives up.
TEST(NetParity, AxfrDeadlineCutsATricklingStream) {
  constexpr int kTimeoutMs = 300;
  for (const std::uint32_t have_serial : {0u, 1u}) {
    SCOPED_TRACE(have_serial);
    sockaddr_in addr{};
    const int listener = ListenLoopback(addr);
    ASSERT_GE(listener, 0);
    std::thread server([listener] {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) return;
      std::uint8_t query[512];
      if (::recv(fd, query, sizeof(query), 0) > 0) {
        // A 3 s trickle: an open-ended fetch would outlast it.
        const std::uint8_t frame[] = {0x01, 0x00};  // a 256-byte frame...
        for (int i = 0; i < 150; ++i) {
          const std::uint8_t byte = i < 2 ? frame[i] : 0;  // ...never ending
          if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      ::close(fd);
    });

    AxfrFetchOptions options;
    options.have_serial = have_serial;
    options.timeout_ms = kTimeoutMs;
    const auto start = std::chrono::steady_clock::now();
    auto fetched = FetchZoneTcp("127.0.0.1", ntohs(addr.sin_port), options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    server.join();
    ::close(listener);
    ASSERT_FALSE(fetched.ok());
    EXPECT_EQ(fetched.error().code(), ErrorCode::kTimeout)
        << fetched.error().message();
    EXPECT_GE(elapsed, std::chrono::milliseconds(kTimeoutMs));
    EXPECT_LT(elapsed, std::chrono::milliseconds(kTimeoutMs + 1500));
  }
}

TEST(NetParity, SnapshotSwapBecomesVisible) {
  const zone::SnapshotPtr day1 = TestSnapshot({2019, 6, 7});
  const zone::SnapshotPtr day2 = TestSnapshot({2019, 6, 8});
  SnapshotSource source(day1);
  DnsFrontend frontend(source, {});
  ASSERT_TRUE(frontend.Start().ok());

  auto serial_of = [](const util::Bytes& wire) -> std::uint32_t {
    auto decoded = dns::DecodeMessage(wire);
    if (!decoded.ok() || decoded->answers.empty()) return 0;
    return std::get<dns::SoaData>(decoded->answers.front().rdata).serial;
  };
  UdpClient client(frontend.udp_port());
  client.Send(dns::EncodeMessage(dns::MakeQuery(1, Name(), RRType::kSOA)));
  auto before = client.Recv(3000);
  ASSERT_TRUE(before.has_value());
  const std::uint32_t serial1 = serial_of(*before);
  ASSERT_NE(serial1, 0u);

  source.Publish(day2);
  // Workers poll the generation between epoll batches; give them a few
  // round trips to pick it up.
  std::uint32_t serial2 = serial1;
  for (int attempt = 0; attempt < 100 && serial2 == serial1; ++attempt) {
    client.Send(dns::EncodeMessage(dns::MakeQuery(
        static_cast<std::uint16_t>(2 + attempt), Name(), RRType::kSOA)));
    auto response = client.Recv(3000);
    ASSERT_TRUE(response.has_value());
    serial2 = serial_of(*response);
  }
  EXPECT_NE(serial2, serial1);
  frontend.Stop();
}

// Socket fuzz parity: thousands of valid, mutated, and hostile datagrams
// through one frontend, each compared with what a detached AuthServer with
// the worker's options (and its own limiter with the same config) answers
// in process through AnswerDatagram — the pipeline alone, no fast lane. The
// contract is total equivalence: each datagram draws byte-identical
// responses or is silently dropped by both, and the pipeline/RRL counter
// deltas match exactly (the fast lane must charge the same counters the
// pipeline would).
//
// Response-to-datagram matching: after each fuzz datagram a sentinel query
// with an id from a reserved range is sent, and the socket is drained until
// the sentinel's answer appears — anything that arrives first is the fuzz
// datagram's response. The reference answers the sentinel too, so both
// servers see the same query stream. Segmentation offload is disabled
// because the GSO flush sort may reorder responses within a batch, which
// would break this pairing.
TEST(FuzzParity, FastLaneMatchesSlowPathOnHostileCorpus) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});

  FrontendOptions options;
  options.enable_tcp = false;
  // Plain datagrams, strict FIFO responses: the sentinel protocol below
  // depends on send-order delivery, which the GSO flush sort would break.
  options.segmentation_offload = false;
  // A real limiter that never trips: rrl_checked/admit accounting must still
  // advance identically on both paths.
  options.rrl = {.enabled = true, .rate = 1000000000, .burst = 0, .slip = 2,
                 .buckets = 4096};

  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, options);
  ASSERT_TRUE(frontend.Start().ok());
  obs::Registry reference_registry;
  rootsrv::AuthServer::Options reference_options = WorkerAuthOptions(options);
  reference_options.registry = &reference_registry;
  rootsrv::AuthServer reference(nullptr, snapshot, reference_options);

  // Sentinel: fixed valid query; ids live in 0xFF00+ which the corpus
  // generator never produces.
  std::uint16_t sentinel_id = 0xFF00;
  auto sentinel_wire = [&](std::uint16_t id) {
    return dns::EncodeMessage(dns::MakeQuery(id, N("www.com."), RRType::kA));
  };

  const std::vector<std::string> tlds = {"com.", "net.", "org.", "bigtld.",
                                         "no-such-tld-zz.", "a.", ""};
  const std::vector<RRType> types = {RRType::kA,  RRType::kNS,
                                     RRType::kDS, RRType::kDNSKEY,
                                     RRType::kSOA, RRType::kAXFR};
  util::Rng rng(0xF422);
  auto make_datagram = [&](std::uint16_t id) -> util::Bytes {
    const std::uint64_t shape = rng.Below(10);
    if (shape < 4) {  // valid query, maybe EDNS
      auto query = dns::MakeQuery(id, N(tlds[rng.Below(tlds.size())]),
                                  types[rng.Below(types.size())]);
      query.header.rd = rng.Below(2) == 0;
      if (rng.Below(2) == 0) {
        return dns::EncodeMessage(WithOpt(
            std::move(query),
            static_cast<std::uint16_t>(256 + rng.Below(4096))));
      }
      return dns::EncodeMessage(query);
    }
    if (shape < 7) {  // valid query with 1-3 random byte flips
      auto wire = dns::EncodeMessage(dns::MakeQuery(
          id, N("www." + tlds[rng.Below(3)]), types[rng.Below(types.size())]));
      const std::uint64_t flips = 1 + rng.Below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        // Flip past the id so the response (if any) stays matchable.
        wire[2 + rng.Below(wire.size() - 2)] ^=
            static_cast<std::uint8_t>(1 + rng.Below(255));
      }
      return wire;
    }
    if (shape < 9) {  // structured protocol violations
      auto query = dns::MakeQuery(id, N("www.com."), RRType::kA);
      switch (rng.Below(5)) {
        case 0: query.header.qr = true; break;
        case 1: query.header.opcode = dns::Opcode::kNotify; break;
        case 2: query.questions.clear(); break;
        case 3: query.questions.push_back({N("b.com."), RRType::kA,
                                           dns::RRClass::kIN}); break;
        case 4: query.questions.front().rrclass = dns::RRClass::kCH; break;
      }
      util::Bytes wire = dns::EncodeMessage(query);
      if (rng.Below(3) == 0) wire.push_back(0x00);  // trailing junk
      return wire;
    }
    // Raw garbage, any length 0..63, id bytes forced when room allows.
    util::Bytes wire(rng.Below(64));
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.Below(256));
    if (wire.size() >= 2) {
      wire[0] = static_cast<std::uint8_t>(id >> 8);
      wire[1] = static_cast<std::uint8_t>(id);
    }
    return wire;
  };

  UdpClient client(frontend.udp_port());
  const std::uint64_t client_id = client.id();
  // The reference's answer (nullopt = silence); bytes_out is what
  // HandleDatagram would have counted on top of AnswerDatagram.
  std::uint64_t reference_bytes_out = 0;
  auto reference_answer =
      [&](const util::Bytes& datagram) -> std::optional<util::Bytes> {
    util::Bytes wire = reference.AnswerDatagram(datagram, client_id);
    if (wire.empty()) return std::nullopt;
    reference_bytes_out += wire.size();
    return wire;
  };
  // One datagram through the frontend; returns its response (nullopt =
  // silently dropped), using the sentinel to bound the wait.
  auto probe = [&](const util::Bytes& datagram,
                   std::uint16_t sid) -> std::optional<util::Bytes> {
    const util::Bytes sentinel = sentinel_wire(sid);
    client.Send(datagram);
    client.Send(sentinel);
    std::optional<util::Bytes> answer;
    for (int rounds = 0; rounds < 4; ++rounds) {
      auto got = client.Recv(3000);
      if (!got.has_value()) break;  // lost sentinel: treat as silent
      if (got->size() >= 2 && (*got)[0] == sentinel[0] &&
          (*got)[1] == sentinel[1]) {
        return answer;
      }
      answer = std::move(got);
    }
    return answer;
  };

  constexpr int kCorpus = 2048;
  int answered = 0, silent = 0;
  for (int i = 0; i < kCorpus; ++i) {
    const auto id = static_cast<std::uint16_t>(i);  // < 0xFF00 always
    const util::Bytes datagram = make_datagram(id);
    const std::uint16_t sid = sentinel_id++;
    if (sentinel_id == 0) sentinel_id = 0xFF00;
    const auto served = probe(datagram, sid);
    const auto expected = reference_answer(datagram);
    (void)reference_answer(sentinel_wire(sid));
    ASSERT_EQ(served.has_value(), expected.has_value())
        << "corpus item " << i;
    if (served.has_value()) {
      ASSERT_EQ(*served, *expected) << "corpus item " << i;
      ++answered;
    } else {
      ++silent;
    }
  }
  EXPECT_GT(answered, kCorpus / 3);
  EXPECT_GT(silent, 0);

  frontend.Stop();

  // The lane must actually have engaged, and every per-stage counter the
  // two servers charged must agree — the fast lane's accounting is required
  // to be indistinguishable from the pipeline's.
  EXPECT_GT(frontend.fast_lane_stats().hits, 0u);
  const rootsrv::PipelineStats fp = frontend.pipeline_stats();
  const rootsrv::PipelineStats sp = reference.pipeline_stats();
  EXPECT_EQ(fp.screen_diverted, sp.screen_diverted);
  EXPECT_EQ(fp.rrl_checked, sp.rrl_checked);
  EXPECT_EQ(fp.rrl_dropped, sp.rrl_dropped);
  EXPECT_EQ(fp.rrl_slipped, sp.rrl_slipped);
  EXPECT_EQ(fp.cache_probes, sp.cache_probes);
  EXPECT_EQ(fp.cache_insertions, sp.cache_insertions);
  EXPECT_EQ(fp.cache_evictions, sp.cache_evictions);
  EXPECT_EQ(fp.snapshot_answers, sp.snapshot_answers);
  const rootsrv::AuthServerStats fs = frontend.stats();
  const rootsrv::AuthServerStats ss = reference.stats();
  EXPECT_EQ(fs.queries, ss.queries);
  EXPECT_EQ(fs.malformed, ss.malformed);
  EXPECT_EQ(fs.refused, ss.refused);
  EXPECT_EQ(fs.truncated, ss.truncated);
  EXPECT_EQ(fs.edns_queries, ss.edns_queries);
  EXPECT_EQ(fs.cache_hits, ss.cache_hits);
  EXPECT_EQ(fs.bytes_in, ss.bytes_in);
  EXPECT_EQ(fs.bytes_out, ss.bytes_out + reference_bytes_out);
  EXPECT_EQ(frontend.rrl()->dropped(), reference.rrl()->dropped());
  EXPECT_EQ(frontend.rrl()->slipped(), reference.rrl()->slipped());
}

// AnswerUdp (fast lane, then the pipeline) against AnswerDatagram (the
// pipeline alone) with a limiter that trips: twin detached servers with the
// same options and a frozen clock, so each client gets its burst of two and
// then alternates slips and drops. The corpus repeats warm cache keys at
// several EDNS sizes, so the lane serves hits, renders TC|REFUSED slips and
// decides drops itself; each must match the pipeline byte for byte and
// silence for silence, and leave identical counters.
TEST(FuzzParity, AnswerUdpMatchesPipelineWithTrippingLimiter) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  FrontendOptions frontend_options;
  frontend_options.rrl = {.enabled = true, .rate = 1, .burst = 2, .slip = 2,
                          .buckets = 4096};
  rootsrv::AuthServer::Options options = WorkerAuthOptions(frontend_options);
  options.clock = [] { return std::uint64_t{1'000'000}; };
  obs::Registry lane_registry;
  obs::Registry reference_registry;
  options.registry = &lane_registry;
  rootsrv::AuthServer lane(nullptr, snapshot, options);
  options.registry = &reference_registry;
  rootsrv::AuthServer reference(nullptr, snapshot, options);

  // Warm keys: every shape the shallow parser accepts, at EDNS sizes below,
  // inside and above the clamp bounds.
  std::vector<dns::Message> warm;
  for (const char* qname : {"", "com.", "www.net.", "WWW.Org.", "bigtld.",
                            "www.no-such-tld-zz."}) {
    for (const RRType type : {RRType::kA, RRType::kNS, RRType::kDNSKEY}) {
      warm.push_back(dns::MakeQuery(0, N(qname), type));
    }
  }
  util::Rng rng(0x5119);
  auto make_datagram = [&](std::uint16_t id) -> util::Bytes {
    if (rng.Below(10) == 0) {  // garbage: the pipeline's FORMERR or silence
      util::Bytes wire(rng.Below(40));
      for (auto& b : wire) b = static_cast<std::uint8_t>(rng.Below(256));
      return wire;
    }
    dns::Message query = warm[rng.Below(warm.size())];
    query.header.id = id;
    query.header.rd = rng.Below(2) == 0;
    const std::uint16_t payloads[] = {0, 100, 512, 1232, 4096, 9000};
    const std::uint16_t payload = payloads[rng.Below(6)];
    return dns::EncodeMessage(payload ? WithOpt(std::move(query), payload)
                                      : query);
  };

  std::vector<std::uint8_t> slot(4096);
  std::uint64_t reference_bytes_out = 0;
  int answered = 0, silent = 0;
  for (int i = 0; i < 4000; ++i) {
    const util::Bytes datagram = make_datagram(static_cast<std::uint16_t>(i));
    const std::uint64_t client = rng.Below(200);
    const std::size_t size =
        lane.AnswerUdp(datagram, client, slot.data(), slot.size());
    const util::Bytes expected = reference.AnswerDatagram(datagram, client);
    ASSERT_EQ(util::Bytes(slot.data(), slot.data() + size), expected)
        << "corpus item " << i;
    reference_bytes_out += expected.size();
    ++(expected.empty() ? silent : answered);
  }
  EXPECT_GT(answered, 0);
  EXPECT_GT(silent, 0);

  const rootsrv::FastLaneStats fl = lane.fast_lane_stats();
  EXPECT_GT(fl.hits, 0u);
  EXPECT_GT(fl.slips, 0u);
  EXPECT_GT(fl.drops, 0u);
  const rootsrv::PipelineStats lp = lane.pipeline_stats();
  const rootsrv::PipelineStats rp = reference.pipeline_stats();
  EXPECT_GT(rp.rrl_slipped, 0u);
  EXPECT_GT(rp.rrl_dropped, 0u);
  EXPECT_EQ(lp.screen_diverted, rp.screen_diverted);
  EXPECT_EQ(lp.rrl_checked, rp.rrl_checked);
  EXPECT_EQ(lp.rrl_dropped, rp.rrl_dropped);
  EXPECT_EQ(lp.rrl_slipped, rp.rrl_slipped);
  EXPECT_EQ(lp.cache_probes, rp.cache_probes);
  EXPECT_EQ(lp.cache_insertions, rp.cache_insertions);
  EXPECT_EQ(lp.cache_evictions, rp.cache_evictions);
  EXPECT_EQ(lp.snapshot_answers, rp.snapshot_answers);
  const rootsrv::AuthServerStats ls = lane.stats();
  const rootsrv::AuthServerStats rs = reference.stats();
  EXPECT_EQ(ls.queries, rs.queries);
  EXPECT_EQ(ls.answers, rs.answers);
  EXPECT_EQ(ls.referrals, rs.referrals);
  EXPECT_EQ(ls.nxdomain, rs.nxdomain);
  EXPECT_EQ(ls.nodata, rs.nodata);
  EXPECT_EQ(ls.refused, rs.refused);
  EXPECT_EQ(ls.malformed, rs.malformed);
  EXPECT_EQ(ls.truncated, rs.truncated);
  EXPECT_EQ(ls.edns_queries, rs.edns_queries);
  EXPECT_EQ(ls.cache_hits, rs.cache_hits);
  EXPECT_EQ(ls.bytes_in, rs.bytes_in);
  EXPECT_EQ(ls.bytes_out, rs.bytes_out + reference_bytes_out);
}

TEST(NetParity, MultiWorkerReusePortServesEveryQuery) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  SnapshotSource source(snapshot);
  FrontendOptions options;
  options.udp_workers = 2;
  options.enable_tcp = false;
  DnsFrontend frontend(source, options);
  ASSERT_TRUE(frontend.Start().ok());

  UdpClient client(frontend.udp_port());
  for (int i = 0; i < 200; ++i) {
    const auto query = dns::MakeQuery(static_cast<std::uint16_t>(i),
                                      N("www.com."), RRType::kA);
    client.Send(dns::EncodeMessage(query));
    const auto response = client.Recv(3000);
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ((*response)[0], static_cast<std::uint8_t>(i >> 8)) << i;
    EXPECT_EQ((*response)[1], static_cast<std::uint8_t>(i & 0xFF)) << i;
  }
  frontend.Stop();
  EXPECT_EQ(frontend.stats().queries, 200u);
}

}  // namespace
}  // namespace rootless::net
