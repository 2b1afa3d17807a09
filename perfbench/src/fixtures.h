// Inputs of the benchmark: the signed root zone the servers load and the
// query pools the generator sends, all made from the workload seed, plus
// the reference answers every response is checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/dnssec.h"
#include "bench_util.h"
#include "loadgen.h"
#include "net/frontend.h"
#include "rootsrv/auth_server.h"
#include "traffic/replay.h"
#include "util/civil_time.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/zone.h"
#include "zone/zone_snapshot.h"

namespace perfbench {

// The DITL collection day; the socket workloads serve the zone of this day.
inline constexpr rootless::util::CivilDate kDay{2018, 4, 11};

// Offered rates of the socket workloads' fixed-rate windows, well under
// one worker's capacity for the many-client datagram shape on a shared
// 4-core VM (udp-hot saturated at 190-470k qps, udp-cold at 55-150k, as
// the host's load changed): a host stall of a few tens of milliseconds
// then still fits in the server's receive buffer, so a window does not
// lose queries to a slow host. The overload rates cap the total offer of a saturation step, which
// is otherwise set from the generator's ceiling (see workloads.cc).
inline constexpr double kHotRate = 50'000;
inline constexpr double kColdRate = 25'000;
inline constexpr double kRefreshRate = 20'000;
inline constexpr double kHotOverload = 2'000'000;
inline constexpr double kColdOverload = 300'000;

// The zone signing key every version is signed with, and the trust anchor
// a validating refresh checks against.
struct ZoneKeys {
  rootless::crypto::SigningKey zsk;
  rootless::crypto::KeyStore store;
  ZoneKeys();
  // A trust anchor that knows no key: validation against it must fail.
  static const rootless::crypto::KeyStore& Untrusted();
};

// Materializes, signs and indexes the model's root zone for `date`.
rootless::zone::Zone SignedZone(const rootless::zone::RootZoneModel& model,
                                const rootless::util::CivilDate& date,
                                const ZoneKeys& keys);

// Real TLD labels active on `date`.
std::vector<std::string> ActiveTlds(const rootless::zone::RootZoneModel& model,
                                    const rootless::util::CivilDate& date);

// The AuthServer configuration a net::DnsFrontend gives its workers, with
// the answer cache off: the reference every socket response must match.
rootless::rootsrv::AuthServer::Options ReferenceOptions(
    const rootless::net::FrontendOptions& frontend);

// The frontend shape every socket workload hosts: one UDP worker, fast
// lane and GSO/GRO on (the defaults), TCP only where AXFR is served.
rootless::net::FrontendOptions SocketFrontendOptions(bool tcp);

// A model, the signed zone of one date, and a frontend serving it.
struct Served {
  std::unique_ptr<rootless::zone::RootZoneModel> model;
  rootless::zone::SnapshotPtr snapshot;
  std::unique_ptr<rootless::net::SnapshotSource> source;
  std::unique_ptr<rootless::net::DnsFrontend> frontend;
  std::vector<int> tids;  // the frontend's worker threads
  bool ok() const { return frontend != nullptr; }
  // Stops the frontend before anything it reads goes away.
  void Reset() {
    frontend.reset();
    source.reset();
    snapshot.reset();
    model.reset();
  }
};
// The set-up of a socket workload: builds the model, signs and indexes the
// zone of `date` and starts a frontend on it, its worker pinned to `core`.
Served SetUpServer(const ZoneKeys& keys, const rootless::util::CivilDate& date,
                   const rootless::net::FrontendOptions& options, int core);

// udp-hot: www.<tld>. A for every real TLD plus a fixed vocabulary of
// bogus-TLD names (`bogus_names` of them, 25% AAAA), EDNS sizes
// none/512/1232/4096 in equal shares.
// `order` draws 61% of sends from the bogus vocabulary (§2.2).
struct HotMix {
  QueryPool pool;
  std::vector<std::uint32_t> order;
};
HotMix MakeHotMix(const std::vector<std::string>& tlds, std::uint64_t seed,
                  std::size_t bogus_names = 1024,
                  std::size_t order_length = 1 << 20);

// udp-cold: `count` queries whose first label is random and never repeated
// (a counter is part of it), mixed case, under no TLD (45%), a junk word
// (15%) or a real TLD (40%), with EDNS sizes none/512/1232/4096 in equal
// shares and 20% AAAA.
class ColdSource {
 public:
  ColdSource(const std::vector<std::string>& tlds, std::uint64_t seed);
  QueryPool Next(std::size_t count);
  std::uint64_t issued() const { return counter_; }

 private:
  std::vector<std::string> tlds_;
  rootless::util::Rng rng_;
  std::uint64_t counter_ = 0;
};

// Fills pool.refs with one reference version per snapshot, computed with
// `threads` threads.
void ComputeReferences(QueryPool& pool,
                       const std::vector<rootless::zone::SnapshotPtr>& versions,
                       const rootless::rootsrv::AuthServer::Options& options,
                       int threads);

// Replaces every reference with a wrong one (gate self-test).
void CorruptReferences(QueryPool& pool);

// ditl-replay at `scale`: 8 shards on min(nproc, 4) threads.
rootless::traffic::ReplayOptions ReplayOptionsFor(std::uint64_t seed,
                                                  double scale);
// The §2.2 gates on one replay outcome: 61.0% bogus, ~0.5% ideal-cache
// valid, ~3.3% budget valid, every query replayed. `corrupt` checks against
// a deliberately wrong reference mix instead.
void CheckMix(const rootless::traffic::ReplayOutcome& outcome, bool corrupt,
              Tally& tally);
// Everything of an outcome that must repeat exactly: tallies, resolver
// counters and the merged per-instance metrics.
std::string ReplayFingerprint(const rootless::traffic::ReplayOutcome& outcome);

// A UDP socket connected to 127.0.0.1:port (-1 on failure).
int ConnectUdp(std::uint16_t port);
// Sends an SOA query for the root on a connected UDP socket and returns the
// serial of the answer (0 on a timeout or a malformed answer).
std::uint32_t SoaSerial(int fd, std::uint16_t id);

// Identity order 0..n-1.
std::vector<std::uint32_t> Sequential(std::size_t n);

}  // namespace perfbench
