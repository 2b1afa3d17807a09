// rootlessd — serve the (signed) root zone on a real port.
//
// The paper's endpoint made runnable: the same model root zone the
// simulations replay against, answered by the epoll/recvmmsg front-end over
// UDP and TCP (including AXFR zone transfer). Point a stock resolver at it:
//
//   $ rootlessd --port 5300 &
//   $ dig @127.0.0.1 -p 5300 com NS
//   $ dig @127.0.0.1 -p 5300 . DNSKEY +bufsize=1232
//   $ dig @127.0.0.1 -p 5300 . AXFR +tcp
//
// Usage: rootlessd [--port N] [--workers N] [--batch N] [--no-dnssec]
//                  [--duration SECS] [--rrl RATE] [--quota BURST]
//                  [--selfcheck]
//   --port 0 (default) picks an ephemeral port and prints it.
//   --batch N sets the recvmmsg/sendmmsg batch size (default 64).
//   --duration 0 (default) serves until SIGINT/SIGTERM.
//   --rrl RATE enables per-client response rate limiting (RATE UDP
//     responses per second per client; one limiter shared across workers).
//   --quota BURST sets the RRL bucket depth (default 2x the rate).
//   --selfcheck starts the server, issues a UDP query and a full AXFR
//     transfer against it through real sockets, verifies both, asserts a
//     frontend serves byte-identical answers to an in-process AuthServer
//     reference (cache misses and fast-lane hits alike), then floods the
//     UDP port from one source to prove the rate limiter trips (TC|REFUSED
//     slips + silent drops), and exits — the CI smoke mode.

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "crypto/dnssec.h"
#include "dns/message.h"
#include "net/axfr_client.h"
#include "net/frontend.h"
#include "obs/metrics.h"
#include "rootsrv/auth_server.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/zone_snapshot.h"

using namespace rootless;

namespace {

std::atomic<bool> g_stop{false};
void OnSignal(int) { g_stop.store(true); }

// One blocking UDP query against the served port; returns true if a
// well-formed NOERROR response with the echoed id comes back.
bool UdpSelfQuery(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  auto name = dns::Name::Parse("com.");
  if (!name.ok()) return false;
  const util::Bytes query =
      dns::EncodeMessage(dns::MakeQuery(0x1234, *name, dns::RRType::kNS));
  ::sendto(fd, query.data(), query.size(), 0,
           reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  std::uint8_t buffer[4096];
  const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
  ::close(fd);
  if (got <= 0) return false;
  auto response = dns::DecodeMessage({buffer, static_cast<std::size_t>(got)});
  return response.ok() && response->header.qr &&
         response->header.id == 0x1234 &&
         response->header.rcode == dns::RCode::kNoError &&
         !response->authority.empty();
}

// Flood probe for the RRL selfcheck: blast `count` queries from ONE socket
// (one client identity), then drain responses. With the limiter armed the
// server must answer fewer than it was asked, at least one reply must be
// the slip signature (TC + REFUSED), and the silent remainder is the drop
// half. Returns false if the limiter never tripped.
bool UdpFloodProbe(std::uint16_t port, int count) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  timeval tv{0, 200'000};  // 200 ms drain window per recv
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  auto name = dns::Name::Parse("com.");
  if (!name.ok()) return false;
  for (int i = 0; i < count; ++i) {
    const util::Bytes query = dns::EncodeMessage(dns::MakeQuery(
        static_cast<std::uint16_t>(i), *name, dns::RRType::kNS));
    ::sendto(fd, query.data(), query.size(), 0,
             reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  int answered = 0, slipped = 0;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;  // drained: the rest were dropped
    auto response =
        dns::DecodeMessage({buffer, static_cast<std::size_t>(got)});
    if (!response.ok()) continue;
    if (response->header.tc &&
        response->header.rcode == dns::RCode::kRefused) {
      ++slipped;
    } else {
      ++answered;
    }
  }
  ::close(fd);
  std::printf("rootlessd: flood probe sent=%d answered=%d slipped=%d "
              "dropped>=%d\n",
              count, answered, slipped, count - answered - slipped);
  return answered < count && slipped > 0;
}

// One blocking round trip of a raw wire query; empty on timeout.
util::Bytes UdpExchange(std::uint16_t port, const util::Bytes& query) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return {};
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ::sendto(fd, query.data(), query.size(), 0,
           reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  std::uint8_t buffer[8192];
  const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
  ::close(fd);
  if (got <= 0) return {};
  return util::Bytes(buffer, buffer + got);
}

// Selfcheck stage: a fresh single-worker frontend must serve exactly what a
// detached AuthServer with the worker's options answers in process
// (AnswerDatagram, the pipeline alone), for a spread of query shapes — each
// asked twice, so the second round is served by the fast lane from the
// answer cache. RRL is off here, so the client id the reference is given
// does not matter.
bool ReferenceParityCheck(net::SnapshotSource& source, bool dnssec) {
  net::FrontendOptions options;
  options.enable_tcp = false;
  options.include_dnssec = dnssec;
  net::DnsFrontend frontend(source, options);
  if (!frontend.Start().ok()) return false;
  obs::Registry registry;
  rootsrv::AuthServer::Options reference_options =
      net::WorkerAuthOptions(options);
  reference_options.registry = &registry;
  rootsrv::AuthServer reference(nullptr, source.Get(), reference_options);

  std::vector<util::Bytes> corpus;
  std::uint16_t id = 0x4000;
  auto add = [&](std::string_view qname, dns::RRType type,
                 std::uint16_t edns_payload) {
    auto name = dns::Name::Parse(qname);
    if (!name.ok()) return;
    auto query = dns::MakeQuery(id++, *name, type);
    if (edns_payload > 0) {
      query.additional.push_back({dns::Name(), dns::RRType::kOPT,
                                  static_cast<dns::RRClass>(edns_payload), 0,
                                  dns::RawData{}});
    }
    corpus.push_back(dns::EncodeMessage(query));
  };
  add(".", dns::RRType::kNS, 1232);     // priming
  add(".", dns::RRType::kDNSKEY, 4096); // apex key material
  add(".", dns::RRType::kSOA, 0);
  add("com.", dns::RRType::kNS, 0);     // >512 signed referral: TC
  add("com.", dns::RRType::kNS, 1232);
  add("www.org.", dns::RRType::kA, 0);
  add("www.no-such-tld-zz.", dns::RRType::kA, 512);  // NXDOMAIN
  add(".", dns::RRType::kAXFR, 0);      // REFUSED over UDP

  bool ok = true;
  for (int round = 0; round < 2 && ok; ++round) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const util::Bytes served = UdpExchange(frontend.udp_port(), corpus[i]);
      const util::Bytes expected = reference.AnswerDatagram(corpus[i], 0);
      if (served.empty() || served != expected) {
        std::fprintf(stderr,
                     "rootlessd: frontend/reference mismatch on query %zu "
                     "round %d (%zu vs %zu bytes)\n",
                     i, round, served.size(), expected.size());
        ok = false;
      }
    }
  }
  frontend.Stop();
  if (ok && frontend.fast_lane_stats().hits == 0) {
    std::fprintf(stderr,
                 "rootlessd: parity check never hit the fast lane\n");
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  int workers = 1;
  int batch = 0;  // 0 = frontend default
  bool dnssec = true;
  int duration_s = 0;
  bool selfcheck = false;
  std::uint32_t rrl_rate = 0;
  std::uint32_t rrl_burst = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--port") port = static_cast<std::uint16_t>(std::atoi(next()));
    else if (arg == "--workers") workers = std::atoi(next());
    else if (arg == "--batch") batch = std::atoi(next());
    else if (arg == "--no-dnssec") dnssec = false;
    else if (arg == "--duration") duration_s = std::atoi(next());
    else if (arg == "--rrl") rrl_rate = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--quota") rrl_burst = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--selfcheck") selfcheck = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // The model root zone the whole repo reproduces experiments against,
  // signed like the real thing when DNSSEC is on.
  const zone::RootZoneModel model;
  zone::Zone root = model.Snapshot({2019, 6, 7});
  if (dnssec) {
    util::Rng rng(0xD15EC);
    const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
    root = zone::SignZone(root, zsk, {0, 0xFFFFFFFF});
  }
  net::SnapshotSource source(zone::ZoneSnapshot::Build(root));

  // Selfcheck arms a tight limiter even without --rrl so the flood probe
  // exercises the defense stage end-to-end through real sockets.
  if (selfcheck && rrl_rate == 0) rrl_rate = 25;

  net::FrontendOptions options;
  options.port = port;
  options.udp_workers = workers;
  options.include_dnssec = dnssec;
  if (batch > 0) options.batch = static_cast<std::size_t>(batch);
  if (rrl_rate > 0) {
    options.rrl = {.enabled = true, .rate = rrl_rate, .burst = rrl_burst,
                   .slip = 2, .buckets = 4096};
  }
  net::DnsFrontend frontend(source, options);
  if (auto status = frontend.Start(); !status.ok()) {
    std::fprintf(stderr, "rootlessd: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("rootlessd: serving %s root zone (serial %u, %zu RRsets)\n",
              dnssec ? "signed" : "unsigned", root.Serial(),
              root.rrset_count());
  std::printf("rootlessd: udp 127.0.0.1:%u  tcp 127.0.0.1:%u  workers %d  "
              "batch %zu\n",
              frontend.udp_port(), frontend.tcp_port(), workers,
              options.batch);
  std::printf("rootlessd: try  dig @127.0.0.1 -p %u com NS\n",
              frontend.udp_port());
  if (rrl_rate > 0) {
    std::printf("rootlessd: rrl %u responses/s per client (burst %u)\n",
                rrl_rate, rrl_rate == 0 ? 0
                          : (rrl_burst ? rrl_burst : 2 * rrl_rate));
  }
  std::fflush(stdout);

  if (selfcheck) {
    bool ok = UdpSelfQuery(frontend.udp_port());
    if (!ok) std::fprintf(stderr, "rootlessd: UDP selfcheck failed\n");
    auto fetched = net::FetchZoneTcp("127.0.0.1", frontend.tcp_port(), {});
    if (!fetched.ok()) {
      std::fprintf(stderr, "rootlessd: AXFR selfcheck failed: %s\n",
                   fetched.error().message().c_str());
      ok = false;
    } else if (!(*fetched)->SameContent(*source.Get())) {
      std::fprintf(stderr, "rootlessd: AXFR selfcheck content mismatch\n");
      ok = false;
    }
    // Reference parity: what the sockets serve must be answer-
    // indistinguishable from the pipeline run in process.
    if (!ReferenceParityCheck(source, dnssec)) {
      std::fprintf(stderr, "rootlessd: reference parity selfcheck failed\n");
      ok = false;
    }
    // Flood probe: well past rate+burst from a single client identity, so
    // the limiter must slip (TC|REFUSED) and drop part of the batch.
    if (!UdpFloodProbe(frontend.udp_port(), 200)) {
      std::fprintf(stderr, "rootlessd: RRL flood selfcheck failed "
                           "(limiter never tripped)\n");
      ok = false;
    }
    frontend.Stop();
    const auto stats = frontend.stats();
    const auto pstats = frontend.pipeline_stats();
    if (pstats.rrl_dropped == 0) {
      std::fprintf(stderr, "rootlessd: RRL selfcheck saw no drops\n");
      ok = false;
    }
    std::printf("rootlessd: selfcheck %s (queries=%lu answers+referrals=%lu "
                "rrl allowed=%lu slipped=%lu dropped=%lu)\n",
                ok ? "passed" : "FAILED",
                static_cast<unsigned long>(stats.queries),
                static_cast<unsigned long>(stats.answers + stats.referrals),
                static_cast<unsigned long>(pstats.rrl_checked -
                                           pstats.rrl_slipped -
                                           pstats.rrl_dropped),
                static_cast<unsigned long>(pstats.rrl_slipped),
                static_cast<unsigned long>(pstats.rrl_dropped));
    return ok ? 0 : 1;
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (duration_s > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(duration_s)) {
      break;
    }
  }
  frontend.Stop();
  const auto stats = frontend.stats();
  std::printf("rootlessd: served %lu queries (%lu referrals, %lu answers, "
              "%lu nxdomain, %lu malformed)\n",
              static_cast<unsigned long>(stats.queries),
              static_cast<unsigned long>(stats.referrals),
              static_cast<unsigned long>(stats.answers),
              static_cast<unsigned long>(stats.nxdomain),
              static_cast<unsigned long>(stats.malformed));
  return 0;
}
