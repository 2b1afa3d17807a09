#include "fixtures.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "dns/message.h"
#include "obs/export.h"
#include "dns/name.h"
#include "zone/sign.h"

namespace perfbench {

using namespace rootless;

namespace {

// Common junk suffixes seen at the root (search-list leaks and appliance
// defaults); the rest of the vocabulary is random from the seed.
const char* const kJunkWords[] = {
    "local", "home", "lan", "corp", "localdomain", "internal", "belkin",
    "dlink", "domain", "workgroup", "intranet", "router", "gateway", "localnet",
    "private", "office", "ad", "dhcp", "modem", "wpad", "invalid", "example"};

constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";

std::string RandomLabel(util::Rng& rng, std::size_t min_len,
                        std::size_t max_len) {
  const std::size_t len =
      min_len + static_cast<std::size_t>(rng.Below(max_len - min_len + 1));
  std::string s;
  for (std::size_t i = 0; i < len; ++i) s += kAlphabet[rng.Below(36)];
  return s;
}

// 0x20 mixed case: every letter flips case with probability 1/2.
void MixCase(util::Rng& rng, std::string& s) {
  for (char& c : s) {
    if (c >= 'a' && c <= 'z' && rng.Chance(0.5)) c = static_cast<char>(c - 32);
  }
}

util::Bytes Encode(const std::string& name, dns::RRType type,
                   std::uint16_t edns) {
  auto qname = dns::Name::Parse(name);
  dns::Message query = dns::MakeQuery(0, qname.ok() ? *qname : dns::Name(), type);
  if (edns != 0) {
    query.additional.push_back({dns::Name(), dns::RRType::kOPT,
                                static_cast<dns::RRClass>(edns), 0,
                                dns::RawData{}});
  }
  return dns::EncodeMessage(query);
}

// EDNS payload sizes (0 = no OPT record), assigned in rotation rather than
// drawn, so every seed gets exactly the same mix of sizes; the seed varies
// the names and the send order.
std::uint16_t EdnsFor(std::size_t i) {
  static const std::uint16_t kSizes[] = {0, 512, 1232, 4096};
  return kSizes[i % 4];
}

}  // namespace

ZoneKeys::ZoneKeys() {
  util::Rng rng(0xD15EC);
  zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  store.AddKey(zsk);
}

const crypto::KeyStore& ZoneKeys::Untrusted() {
  static const crypto::KeyStore empty;
  return empty;
}

zone::Zone SignedZone(const zone::RootZoneModel& model,
                      const util::CivilDate& date, const ZoneKeys& keys) {
  return zone::SignZone(model.Snapshot(date), keys.zsk, {0, 0xFFFFFFFF});
}

std::vector<std::string> ActiveTlds(const zone::RootZoneModel& model,
                                    const util::CivilDate& date) {
  std::vector<std::string> labels;
  for (const auto* tld : model.ActiveTlds(date)) labels.push_back(tld->label);
  return labels;
}

rootsrv::AuthServer::Options ReferenceOptions(
    const net::FrontendOptions& frontend) {
  rootsrv::AuthServer::Options options;
  options.include_dnssec = frontend.include_dnssec;
  options.edns = frontend.edns;
  options.respond_formerr_to_garbage = true;
  options.answer_cache_entries = 0;
  return options;
}

net::FrontendOptions SocketFrontendOptions(bool tcp) {
  net::FrontendOptions options;
  options.udp_workers = 1;
  options.enable_tcp = tcp;
  return options;
}

Served SetUpServer(const ZoneKeys& keys, const util::CivilDate& date,
                   const net::FrontendOptions& options, int core) {
  Served s;
  s.model = std::make_unique<zone::RootZoneModel>();
  s.snapshot = zone::ZoneSnapshot::Build(SignedZone(*s.model, date, keys));
  s.source = std::make_unique<net::SnapshotSource>(s.snapshot);
  const std::vector<int> before = ThreadIds();
  s.frontend = std::make_unique<net::DnsFrontend>(*s.source, options);
  if (!s.frontend->Start().ok()) {
    s.frontend.reset();
    return s;
  }
  s.tids = PinNewThreads(before, core);
  return s;
}

HotMix MakeHotMix(const std::vector<std::string>& tlds, std::uint64_t seed,
                  std::size_t bogus_names, std::size_t order_length) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  HotMix mix;
  for (std::size_t i = 0; i < tlds.size(); ++i) {
    mix.pool.Add(Encode("www." + tlds[i] + ".", dns::RRType::kA, EdnsFor(i)));
  }
  const std::size_t real = mix.pool.size();  // pool[real..] are bogus
  for (std::size_t i = 0; i < bogus_names; ++i) {
    std::string name;
    const std::size_t words = std::size(kJunkWords);
    if (i < words) {
      name = std::string(kJunkWords[i]) + ".";
    } else if (rng.Chance(0.5)) {
      // Chromium-style probe labels and other one-label junk.
      name = RandomLabel(rng, 7, 15) + ".";
    } else {
      name = RandomLabel(rng, 3, 10) + "." + kJunkWords[rng.Below(words)] + ".";
    }
    const dns::RRType type = i % 4 == 3 ? dns::RRType::kAAAA : dns::RRType::kA;
    mix.pool.Add(Encode(name, type, EdnsFor(i / 4)));
  }
  // Every send is an independent draw from the 61% bogus / 39% real mix.
  mix.order.reserve(order_length);
  while (mix.order.size() < order_length) {
    const bool is_bogus = rng.Chance(0.61);
    mix.order.push_back(static_cast<std::uint32_t>(
        is_bogus ? real + rng.Below(mix.pool.size() - real) : rng.Below(real)));
  }
  return mix;
}

ColdSource::ColdSource(const std::vector<std::string>& tlds, std::uint64_t seed)
    : tlds_(tlds), rng_(seed * 0xC2B2AE3D27D4EB4FULL + 7) {}

QueryPool ColdSource::Next(std::size_t count) {
  QueryPool pool;
  pool.wire.reserve(count);
  while (pool.size() < count) {
    // The label is random and ends in a fixed-width counter, so no name
    // ever repeats. Shapes in a fixed rotation of 20 queries: 9 under no
    // TLD, 3 under a junk word, 8 under a real TLD; EDNS and type rotate
    // across the rounds of that rotation.
    const std::uint64_t i = counter_++;
    const std::uint64_t shape = i % 20;
    std::string parent = ".";  // random TLD: signed NXDOMAIN
    if (shape >= 12) {
      parent = "." + tlds_[rng_.Below(tlds_.size())] + ".";  // referral
    } else if (shape >= 9) {
      parent = std::string(".") + kJunkWords[rng_.Below(std::size(kJunkWords))] + ".";
    }
    const dns::RRType type =
        (i / 20) % 5 == 4 ? dns::RRType::kAAAA : dns::RRType::kA;
    const std::uint16_t edns = EdnsFor(i / 20 + i);
    std::string label = RandomLabel(rng_, 2, 10);
    for (std::uint64_t n = i, digit = 0; digit < 6; ++digit, n /= 36) {
      label += kAlphabet[n % 36];
    }
    MixCase(rng_, label);
    pool.Add(Encode(label + parent, type, edns));
  }
  return pool;
}

void ComputeReferences(QueryPool& pool,
                       const std::vector<zone::SnapshotPtr>& versions,
                       const rootsrv::AuthServer::Options& options,
                       int threads) {
  pool.refs.assign(versions.size(),
                   std::vector<std::uint64_t>(pool.size(), 0));
  if (threads < 1) threads = 1;
  const auto work = [&](int t) {
    const ScopedPin pin(HelperCore(t));
    // A private registry per thread: the default one is not thread-safe.
    obs::Registry registry;
    rootsrv::AuthServer::Options private_options = options;
    private_options.registry = &registry;
    for (std::size_t v = 0; v < versions.size(); ++v) {
      rootsrv::AuthServer reference(nullptr, versions[v], private_options);
      for (std::size_t i = static_cast<std::size_t>(t); i < pool.size();
           i += static_cast<std::size_t>(threads)) {
        pool.refs[v][i] = ResponseHash(reference.AnswerDatagram(pool.wire[i], 0));
      }
    }
  };
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(work, t);
  work(0);
  for (std::thread& h : helpers) h.join();
}

void CorruptReferences(QueryPool& pool) {
  for (auto& version : pool.refs) {
    for (std::uint64_t& h : version) h = ~h;
  }
}

traffic::ReplayOptions ReplayOptionsFor(std::uint64_t seed, double scale) {
  traffic::ReplayOptions options;
  options.workload.seed = seed;
  options.workload.scale = scale;
  options.stack_seed = seed;
  options.num_shards = 8;
  options.num_threads = std::min(Cores(), 4);
  return options;
}

void CheckMix(const traffic::ReplayOutcome& outcome, bool corrupt,
              Tally& tally) {
  const traffic::TrafficMixReport mix = outcome.mix();
  // §2.2 targets with room for sampling noise; the corrupted reference
  // moves the bogus target by 10 points.
  const double bogus_target = corrupt ? 0.71 : 0.61;
  tally.Check(std::abs(mix.bogus_fraction() - bogus_target) < 0.03,
              "replay: bogus share off 61.0%");
  tally.Check(mix.valid_ideal_fraction() > 0.003 &&
                  mix.valid_ideal_fraction() < 0.008,
              "replay: ideal-cache valid share off ~0.5%");
  tally.Check(mix.valid_budget_fraction() > 0.025 &&
                  mix.valid_budget_fraction() < 0.042,
              "replay: budget-model valid share off ~3.3%");
  tally.Check(outcome.replayed == outcome.tally.total_queries,
              "replay: not every generated query was replayed");
}

std::string ReplayFingerprint(const traffic::ReplayOutcome& o) {
  std::string out;
  for (const std::uint64_t v :
       {o.tally.total_queries, o.tally.bogus_tld_queries,
        o.tally.cache_spurious_ideal, o.tally.valid_ideal,
        o.tally.cache_spurious_budget, o.tally.valid_budget,
        o.tally.new_tld_queries,
        static_cast<std::uint64_t>(o.tally.resolvers_total),
        static_cast<std::uint64_t>(o.tally.resolvers_bogus_only),
        o.resolver.resolutions, o.resolver.answered_from_cache,
        o.resolver.root_transactions, o.resolver.local_root_lookups,
        o.resolver.tld_transactions, o.resolver.nxdomain,
        o.resolver.negative_hits, o.resolver.failures, o.replayed,
        o.cache_hits, o.cache_lookups}) {
    out += std::to_string(v);
    out += ' ';
  }
  out += '\n';
  out += obs::RenderMetricsTable(*o.metrics, /*aggregate_instances=*/false);
  return out;
}

int ConnectUdp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr))) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint32_t SoaSerial(int fd, std::uint16_t id) {
  const util::Bytes wire =
      dns::EncodeMessage(dns::MakeQuery(id, dns::Name(), dns::RRType::kSOA));
  if (::send(fd, wire.data(), wire.size(), 0) < 0) return 0;
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, 100) <= 0) return 0;
  std::uint8_t buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  if (n <= 0) return 0;
  auto msg = dns::DecodeMessage({buf, static_cast<std::size_t>(n)});
  if (!msg.ok()) return 0;
  for (const auto& rr : msg->answers) {
    if (const auto* soa = std::get_if<dns::SoaData>(&rr.rdata)) return soa->serial;
  }
  return 0;
}

std::vector<std::uint32_t> Sequential(std::size_t n) {
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

}  // namespace perfbench
