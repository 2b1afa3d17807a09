// The traced pass: the per-layer ledger.
//
// Every number here is timed from this file, around calls into one
// module's public entry points; nothing inside the program is
// instrumented. Each layer reports its work as a count, its time, and
// where the layer can waste work, the share of attempts that were useful.
// The two ledger gaps compare the summed layer cost per query with the
// end-to-end CPU per query measured in the same pass without tracing:
//
//   socket path: syscall floor + (fast-lane hit | shallow probe + pipeline
//                miss), weighted by the fast-lane hit ratio the frontend saw;
//   replay path: trace generation + classification (NextChunk), Resolve,
//                the event loop's own time, and the shard merge.
//
// A layer's self time excludes the spans nested in it (sim.run excludes
// the Resolve calls the event loop makes). The clock reads that bracket a
// span are calibrated and subtracted.
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "dns/message.h"
#include "dns/wire_probe.h"
#include "fixtures.h"
#include "net/axfr_client.h"
#include "obs/metrics.h"
#include "resolver/recursive.h"
#include "rootsrv/tld_farm.h"
#include "sim/network.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "traffic/replay.h"
#include "traffic/shard.h"
#include "workloads.h"
#include "zone/sign.h"
#include "zone/zone_diff.h"

namespace perfbench {

using namespace rootless;

namespace {

// Cost of the two clock reads that bracket one span.
double TimerOverheadNs() {
  constexpr int kReads = 200'000;
  const std::int64_t t0 = NowNs();
  std::int64_t sink = 0;
  for (int i = 0; i < kReads; ++i) sink += NowNs();
  const double per_read = static_cast<double>(NowNs() - t0) / kReads;
  return sink == 0 ? 0 : per_read;
}

// Calls `body` over `items` round-robin until `min_seconds` have passed and
// returns the mean ns per call.
template <typename Body>
double NsPerCall(std::size_t items, double min_seconds, Body&& body) {
  std::uint64_t calls = 0;
  const std::int64_t t0 = NowNs();
  const auto budget = static_cast<std::int64_t>(min_seconds * 1e9);
  std::int64_t elapsed = 0;
  do {
    for (std::size_t i = 0; i < items; ++i) body(i);
    calls += items;
    elapsed = NowNs() - t0;
  } while (elapsed < budget);
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

double MsOf(const std::function<void()>& fn, int repeats) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const std::int64_t t0 = NowNs();
    fn();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(ms);
}

// ---- zone + crypto --------------------------------------------------------

struct ZoneLayer {
  zone::Zone day0;
  zone::Zone day1;
  zone::SnapshotPtr snap0;
  zone::SnapshotPtr snap1;
};

ZoneLayer LedgerZone(const ZoneKeys& keys, bool smoke, Metrics& m,
                     Tally& tally) {
  ZoneLayer z;
  const int reps = smoke ? 1 : 3;
  m.Set("zone.model_build_ms", MsOf([] {
          const zone::RootZoneModel model;
          (void)model.Snapshot(kDay);
        }, reps), "ms");
  const zone::RootZoneModel model;
  z.day0 = SignedZone(model, kDay, keys);
  z.day1 = SignedZone(model, util::AddDays(kDay, 1), keys);
  m.Set("zone.snapshot_build_ms",
        MsOf([&] { z.snap0 = zone::ZoneSnapshot::Build(z.day0); }, reps), "ms");
  z.snap1 = zone::ZoneSnapshot::Build(z.day1);
  zone::ZoneDiff diff;
  m.Set("zone.diff_ms",
        MsOf([&] { diff = zone::DiffSnapshots(*z.snap0, *z.snap1); }, reps),
        "ms");
  m.Set("zone.diff_bytes",
        static_cast<double>(zone::SerializeDiff(diff).size()), "bytes");
  bool valid = true;
  m.Set("crypto.validate_ms", MsOf([&] {
          valid = zone::ValidateSignedZone(z.day1, keys.zsk.dnskey, keys.store,
                                           1000)
                      .ok();
        }, smoke ? 1 : 2), "ms");
  tally.Check(valid, "ledger: signed zone does not validate");
  const std::vector<dns::RRset> rrsets = z.snap1->AllRRsets();
  m.Set("crypto.zone_digest_ms",
        MsOf([&] { (void)crypto::ZoneDigest(rrsets); }, reps), "ms");
  return z;
}

// ---- refresh path over sockets ------------------------------------------

void LedgerRefresh(const ZoneLayer& z, bool smoke, Metrics& m, Tally& tally) {
  const int reps = smoke ? 1 : 3;
  {
    net::SnapshotSource source(z.snap1);
    net::DnsFrontend upstream(source, SocketFrontendOptions(true));
    const bool up = upstream.Start().ok();
    tally.Check(up, "ledger: upstream frontend failed to start");
    if (up) {
      zone::SnapshotPtr fetched;
      m.Set("net.axfr_fetch_ms", MsOf([&] {
              auto r = net::FetchZoneTcp("127.0.0.1", upstream.tcp_port(), {});
              fetched = r.ok() ? *r : nullptr;
            }, reps), "ms");
      tally.Check(fetched && fetched->SameContent(*z.snap1),
                  "ledger: AXFR copy differs from the upstream");
    }
  }
  {
    net::SnapshotSource source(z.snap0);
    net::DnsFrontend serving(source, SocketFrontendOptions(false));
    const bool up = serving.Start().ok();
    tally.Check(up, "ledger: serving frontend failed to start");
    if (!up) return;
    const int fd = ConnectUdp(serving.udp_port());
    std::vector<double> visible_us;
    std::uint16_t id = 0;
    for (int swap = 0; swap < (smoke ? 2 : 8); ++swap) {
      const zone::SnapshotPtr& next = swap % 2 ? z.snap0 : z.snap1;
      const std::int64_t t0 = NowNs();
      source.Publish(next);
      bool seen = false;
      for (int tries = 0; tries < 200 && !seen; ++tries) {
        seen = SoaSerial(fd, ++id) == next->Serial();
      }
      tally.Check(seen, "ledger: swapped serial never visible");
      visible_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    ::close(fd);
    m.Set("net.swap_visible_us", Median(visible_us), "us");
  }
}

// ---- socket path ----------------------------------------------------------

void LedgerSocket(const RunConfig& c, const ZoneLayer& z, Metrics& m,
                  Tally& tally) {
  const ScopedPin pin(HelperCore(0));
  const int gen_core = GeneratorCore();
  const zone::RootZoneModel model;
  const std::vector<std::string> tlds = ActiveTlds(model, kDay);
  const net::FrontendOptions options = SocketFrontendOptions(false);
  obs::Registry bench_registry;  // for the in-process AuthServers below
  auto ref_options = ReferenceOptions(options);
  ref_options.registry = &bench_registry;
  const int ref_threads = std::max(1, Cores() - 2);
  const double seconds = c.smoke ? 0.2 : 2.0;

  // The pool and rate of the workload being traced (udp-hot's for
  // ditl-replay, which has no socket path of its own).
  struct {
    QueryPool pool;
    std::vector<std::uint32_t> order;
    double rate = 0;
    bool cold = false;
  } sp;
  sp.cold = c.workload == "udp-cold";
  sp.rate = c.workload == "udp-cold" ? kColdRate
            : c.workload == "zone-refresh" ? kRefreshRate : kHotRate;
  ColdSource cold(tlds, c.seed);
  HotMix hot = MakeHotMix(tlds, c.seed, c.smoke ? 64 : 1024,
                          c.smoke ? 4096 : 1 << 20);
  if (sp.cold) {
    sp.pool = cold.Next(static_cast<std::size_t>(sp.rate * seconds));
    sp.order = Sequential(sp.pool.size());
  } else {
    sp.pool = hot.pool;
    sp.order = hot.order;
  }
  ComputeReferences(sp.pool, {z.snap0}, ref_options, ref_threads);

  // Kernel floor: the null echo server at the workload's rate.
  {
    QueryPool echo = sp.pool;
    echo.refs.assign(1, {});
    for (const util::Bytes& q : echo.wire) echo.refs[0].push_back(ResponseHash(q));
    EchoServer server(ServerCore());
    LoadGenerator gen(server.port(), gen_core);
    std::size_t cursor = 0;
    const std::int64_t cpu0 = server.cpu_ns();
    const std::uint64_t n0 = server.echoed();
    const StepResult r = gen.Run(echo, sp.order, cursor, sp.rate, seconds / 2);
    const double echoed = static_cast<double>(server.echoed() - n0);
    m.Set("kernel.udp_echo_cpu_ns",
          echoed > 0 ? static_cast<double>(server.cpu_ns() - cpu0) / echoed : 0,
          "ns");
    tally.Add(r.sent, r.lost + r.wrong, "ledger: echo floor lost datagrams");
  }
  m.Set("loadgen.ceiling_qps",
        GeneratorCeiling(hot.pool, hot.order, gen_core, c.smoke ? 0.05 : 0.3),
        "1/s");

  // The frontend at the workload's rate, untraced: the end-to-end CPU per
  // query and the net/rootsrv counters the ledger divides by.
  obs::Registry registry;
  net::FrontendOptions fo = options;
  fo.registry = &registry;
  net::SnapshotSource source(z.snap0);
  const std::vector<int> before = ThreadIds();
  net::DnsFrontend frontend(source, fo);
  if (!frontend.Start().ok()) {
    tally.Check(false, "ledger: frontend failed to start");
    return;
  }
  PinNewThreads(before, ServerCore());
  LoadGenerator gen(frontend.udp_port(), gen_core);
  if (!sp.cold) gen.Warm(sp.pool);
  std::size_t cursor = 0;
  const StepResult r = gen.Run(sp.pool, sp.order, cursor, sp.rate, seconds);
  frontend.Stop();
  tally.Add(r.sent, r.lost + r.wrong,
            "ledger: socket run unanswered or wrong responses");
  const double e2e = r.server_cpu_ns_per_query();
  m.Set("socket.cpu_ns_per_query", e2e, "ns");
  m.Set("loadgen.late_us_p99", r.late_us_p99, "us");
  m.Set("loadgen.cpu_share",
        r.process_cpu_ns ? static_cast<double>(r.gen_cpu_ns) /
                               static_cast<double>(r.process_cpu_ns)
                         : 0,
        "fraction");

  std::uint64_t rx = 0, rx_batches = 0, tx = 0, tx_batches = 0, drops = 0;
  for (const obs::Sample& s : registry.Snapshot()) {
    if (s.name == "net.udp.rx_datagrams") rx += s.counter;
    if (s.name == "net.udp.rx_batches") rx_batches += s.counter;
    if (s.name == "net.udp.tx_datagrams") tx += s.counter;
    if (s.name == "net.udp.tx_batches") tx_batches += s.counter;
    if (s.name == "net.udp.dropped") drops += s.counter;
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  m.Set("net.udp.rx_per_syscall", ratio(rx, rx_batches), "count");
  m.Set("net.udp.tx_per_syscall", ratio(tx, tx_batches), "count");
  m.Set("net.udp.server_drops", static_cast<double>(drops), "count");
  const rootsrv::FastLaneStats fl = frontend.fast_lane_stats();
  const double fl_attempts = static_cast<double>(
      fl.hits + fl.parse_fallbacks + fl.cache_misses + fl.slips + fl.drops);
  const double fl_hit = ratio(static_cast<double>(fl.hits), fl_attempts);
  m.Set("rootsrv.fastlane_hit_ratio", fl_hit, "fraction");
  const rootsrv::AuthServerStats st = frontend.stats();
  const rootsrv::PipelineStats ps = frontend.pipeline_stats();
  m.Set("rootsrv.answer_cache_hit_ratio",
        ratio(static_cast<double>(st.cache_hits), static_cast<double>(st.queries)),
        "fraction");
  m.Set("rootsrv.answer_cache_evictions_per_query",
        ratio(static_cast<double>(ps.cache_evictions),
              static_cast<double>(st.queries)),
        "count");

  // In-process layer costs over the same pool.
  const double budget = c.smoke ? 0.02 : 0.25;
  const std::size_t n = sp.pool.size();
  dns::WireProbe probe;
  std::size_t parsed = 0;
  m.Set("dns.wire_probe_ns", NsPerCall(n, budget, [&](std::size_t i) {
          parsed += dns::ShallowParseQuery(sp.pool.wire[i], probe);
        }), "ns");
  std::size_t decoded = 0;
  m.Set("dns.decode_ns", NsPerCall(n, budget, [&](std::size_t i) {
          decoded += dns::DecodeMessage(sp.pool.wire[i]).ok();
        }), "ns");
  tally.Check(parsed > 0 && decoded > 0, "ledger: pool does not parse");

  // Hits: the hot pool's warm keys (they fit the answer cache).
  rootsrv::AuthServer::Options cached = ref_options;
  cached.answer_cache_entries = rootsrv::AuthServer::Options{}.answer_cache_entries;
  rootsrv::AuthServer warm(nullptr, z.snap0, cached);
  for (const util::Bytes& q : hot.pool.wire) (void)warm.AnswerDatagram(q, 0);
  std::vector<std::uint8_t> out(65536);
  std::size_t out_size = 0;
  std::size_t fast = 0;
  m.Set("rootsrv.fastlane_ns", NsPerCall(hot.pool.size(), budget, [&](std::size_t i) {
          fast += warm.TryFastLane(hot.pool.wire[i], 0, out.data(), out.size(),
                                   out_size) != net::FastVerdict::kMiss;
        }), "ns");
  tally.Check(fast > 0, "ledger: the fast lane answered nothing");
  m.Set("rootsrv.answer_hit_ns", NsPerCall(hot.pool.size(), budget, [&](std::size_t i) {
          (void)warm.AnswerDatagram(hot.pool.wire[i], 0);
        }), "ns");
  // Misses: unseen keys every call (a fresh cold batch, cache on).
  const QueryPool unseen = cold.Next(c.smoke ? 2000 : 60'000);
  rootsrv::AuthServer missing(nullptr, z.snap0, cached);
  const double miss_ns = NsPerCall(unseen.size(), 0, [&](std::size_t i) {
    (void)missing.AnswerDatagram(unseen.wire[i], 0);
  });
  m.Set("rootsrv.answer_miss_ns", miss_ns, "ns");
  rootsrv::AuthServer uncached(nullptr, z.snap0, ref_options);
  m.Set("rootsrv.snapshot_answer_ns", NsPerCall(n, budget, [&](std::size_t i) {
          (void)uncached.AnswerDatagram(sp.pool.wire[i], 0);
        }), "ns");

  // A hit is one TryFastLane (its shallow probe included); a miss is the
  // probe that found nothing, then the pipeline from raw bytes.
  const double sum = m.Get("kernel.udp_echo_cpu_ns") +
                     fl_hit * m.Get("rootsrv.fastlane_ns") +
                     (1 - fl_hit) * (m.Get("dns.wire_probe_ns") + miss_ns);
  m.Set("socket.layer_sum_ns", sum, "ns");
  m.Set("socket.ledger_gap_frac", e2e > 0 ? 1 - sum / e2e : 0, "fraction");
}

// ---- replay path ----------------------------------------------------------

// Per-shard spans of the traced shard runner.
struct ShardTrace {
  traffic::ShardTally tally;
  resolver::ResolverStats stats;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t events = 0;
  std::uint64_t resolve_calls = 0;
  std::int64_t chunk_ns = 0;    // inside NextChunk
  std::int64_t resolve_ns = 0;  // inside Resolve
  std::int64_t run_ns = 0;      // inside Simulator::Run (Resolve included)
  std::int64_t cpu_ns = 0;      // the shard's thread CPU
  std::unique_ptr<obs::Registry> registry;
};

// Issues each chunk event at its trace second, like the replay engine's
// own pump, with a span around every Resolve call.
struct TracedPump {
  struct State {
    sim::Simulator* sim;
    resolver::RecursiveResolver* r;
    const std::vector<traffic::QueryEvent>* events;
    const std::vector<dns::Name>* qnames;
    std::uint32_t compression;
    std::size_t next;
    const resolver::RecursiveResolver::ResolveCallback* on_done;
    ShardTrace* trace;
  };
  State* s;

  void operator()() const {
    const auto& events = *s->events;
    const std::uint32_t now_sec = events[s->next].time_sec;
    while (s->next < events.size() && events[s->next].time_sec == now_sec) {
      const std::int64_t t0 = NowNs();
      s->r->Resolve((*s->qnames)[events[s->next].tld], dns::RRType::kA,
                    *s->on_done);
      s->trace->resolve_ns += NowNs() - t0;
      ++s->trace->resolve_calls;
      ++s->next;
    }
    if (s->next < events.size()) {
      const sim::SimTime when = static_cast<sim::SimTime>(
                                    events[s->next].time_sec) *
                                sim::kSecond / s->compression;
      s->sim->ScheduleAt(when > s->sim->now() ? when : s->sim->now(), *this);
    }
  }
};

// One shard's stack, built the way traffic::RunShardedReplay builds it
// (same seeds), so the traced run replays exactly the same day.
ShardTrace TraceShard(const traffic::ReplayOptions& options,
                      const traffic::ShardPlan& plan, int shard,
                      const traffic::ShardLabelSpace& labels,
                      const std::vector<dns::Name>& qnames,
                      std::size_t real_tld_count,
                      const zone::SnapshotPtr& snapshot) {
  const std::int64_t cpu0 = ThreadCpuNs();
  ShardTrace t;
  t.registry = std::make_unique<obs::Registry>();
  t.registry->set_instance_namespace("s" + std::to_string(shard) + ".");
  t.registry->Reserve(16 * real_tld_count + 64);
  const std::uint64_t salt = static_cast<std::uint64_t>(shard) + 1;
  sim::Simulator sim(sim::QueuePolicy::kCalendar);
  sim.ReserveEvents(4096);
  sim::Network net(sim, options.stack_seed ^ (salt * 0x9E3779B97F4A7C15ULL),
                   t.registry.get());
  topo::Topology geo(topo::TopologyOptions{});
  net.set_latency_fn(geo.LatencyFn());
  rootsrv::TldFarm farm(net, geo, *snapshot,
                        options.stack_seed ^ (salt * 0xC2B2AE3D27D4EB4FULL));
  resolver::ResolverConfig rconfig;
  rconfig.mode = options.mode;
  rconfig.seed = options.stack_seed ^ (salt * 0xD6E8FEB86659FD93ULL);
  resolver::RecursiveResolver r(sim, net,
                                {rconfig, topo::GeoPoint{48.85, 2.35},
                                 t.registry.get(), &geo});
  r.SetTldFarm(&farm);
  r.SetLocalZone(snapshot);
  traffic::ShardTraceGenerator gen(options.workload, plan, shard, labels);

  std::uint64_t done = 0;
  const resolver::RecursiveResolver::ResolveCallback on_done =
      [&done](const resolver::ResolutionResult&) { ++done; };
  traffic::ShardChunk chunk;
  for (;;) {
    const std::int64_t c0 = NowNs();
    const bool more = gen.NextChunk(chunk);
    t.chunk_ns += NowNs() - c0;
    if (!more) break;
    if (chunk.events.empty()) continue;
    TracedPump::State state{&sim, &r, &chunk.events, &qnames,
                            options.time_compression, 0, &on_done, &t};
    const sim::SimTime first =
        static_cast<sim::SimTime>(chunk.events.front().time_sec) *
        sim::kSecond / options.time_compression;
    sim.ScheduleAt(first > sim.now() ? first : sim.now(), TracedPump{&state});
    const std::int64_t r0 = NowNs();
    sim.Run();
    t.run_ns += NowNs() - r0;
  }
  t.tally = gen.tally();
  t.stats = r.stats();
  t.events = sim.events_executed();
  const resolver::CacheStats cache = r.cache().stats();
  t.cache_hits = cache.hits;
  t.cache_lookups = cache.hits + cache.misses + cache.expired;
  t.cpu_ns = ThreadCpuNs() - cpu0;
  return t;
}

void LedgerReplay(const RunConfig& c, double timer_ns, Metrics& m,
                  Tally& tally) {
  const traffic::ReplayOptions options =
      ReplayOptionsFor(c.seed, c.smoke ? 0.0005 : 0.002);

  // End to end at the same scale, untraced.
  const std::int64_t cpu0 = ProcessCpuNs();
  const traffic::ReplayOutcome e2e = traffic::RunShardedReplay(options);
  const double e2e_ns = static_cast<double>(ProcessCpuNs() - cpu0) /
                        static_cast<double>(e2e.tally.total_queries);
  m.Set("replay.cpu_ns_per_query", e2e_ns, "ns");
  CheckMix(e2e, false, tally);

  const zone::RootZoneModel model;
  const std::vector<std::string> tlds = ActiveTlds(model, kDay);
  const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(model.Snapshot(kDay));
  const traffic::ShardPlan plan =
      traffic::MakeShardPlan(options.workload, options.num_shards);
  std::unique_ptr<traffic::ShardLabelSpace> labels;
  m.Set("traffic.label_space_ms", MsOf([&] {
          labels = std::make_unique<traffic::ShardLabelSpace>(options.workload,
                                                              tlds);
        }, c.smoke ? 1 : 3), "ms");
  std::vector<dns::Name> qnames;
  for (std::size_t id = 0; id < labels->tlds().size(); ++id) {
    auto n = dns::Name::Parse(
        "www." + labels->tlds().LabelOf(static_cast<traffic::TldId>(id)) + ".");
    qnames.push_back(n.ok() ? *n : dns::Name());
    qnames.back().Hash();
  }

  std::vector<ShardTrace> shards(static_cast<std::size_t>(options.num_shards));
  sim::RunShards(options.num_shards, options.num_threads, [&](int s) {
    shards[static_cast<std::size_t>(s)] = TraceShard(
        options, plan, s, *labels, qnames, tlds.size(), snapshot);
  });

  obs::Registry merged;
  const std::int64_t m0 = NowNs();
  for (const ShardTrace& s : shards) s.registry->MergeInto(merged);
  const double merge_ns = static_cast<double>(NowNs() - m0);
  m.Set("obs.merge_ms", merge_ns / 1e6, "ms");

  traffic::ShardTally tally_sum;
  double queries = 0, chunk = 0, resolve = 0, run = 0, events = 0;
  double hits = 0, lookups = 0, negative = 0, resolutions = 0, tld_tx = 0;
  double answered = 0;
  double cpu_max = 0, cpu_sum = 0;
  for (const ShardTrace& s : shards) {
    tally_sum.MergeFrom(s.tally);
    queries += static_cast<double>(s.tally.total_queries);
    // Each Resolve span costs about one clock read inside itself and one
    // inside the enclosing Run span; take both out.
    const double spans = static_cast<double>(s.resolve_calls) * timer_ns;
    chunk += static_cast<double>(s.chunk_ns);
    resolve += static_cast<double>(s.resolve_ns) - spans;
    run += static_cast<double>(s.run_ns) - static_cast<double>(s.resolve_ns) -
           spans;
    events += static_cast<double>(s.events);
    hits += static_cast<double>(s.cache_hits);
    lookups += static_cast<double>(s.cache_lookups);
    negative += static_cast<double>(s.stats.negative_hits);
    resolutions += static_cast<double>(s.stats.resolutions);
    tld_tx += static_cast<double>(s.stats.tld_transactions);
    answered += static_cast<double>(s.stats.answered_from_cache);
    cpu_max = std::max(cpu_max, static_cast<double>(s.cpu_ns));
    cpu_sum += static_cast<double>(s.cpu_ns);
  }
  // The traced shards must replay the same day through the same stacks as
  // RunShardedReplay: its generator tally and its resolver outcome.
  tally.Check(tally_sum.total_queries == e2e.tally.total_queries &&
                  tally_sum.bogus_tld_queries == e2e.tally.bogus_tld_queries &&
                  tally_sum.valid_budget == e2e.tally.valid_budget,
              "ledger: traced replay generated a different day");
  tally.Check(resolutions == static_cast<double>(e2e.resolver.resolutions) &&
                  tld_tx == static_cast<double>(e2e.resolver.tld_transactions) &&
                  negative == static_cast<double>(e2e.resolver.negative_hits) &&
                  answered == static_cast<double>(e2e.resolver.answered_from_cache) &&
                  hits == static_cast<double>(e2e.cache_hits) &&
                  lookups == static_cast<double>(e2e.cache_lookups),
              "ledger: traced shard stacks resolved differently from "
              "RunShardedReplay");
  const auto per = [&](double v) { return queries > 0 ? v / queries : 0; };
  m.Set("traffic.chunk_ns_per_query", per(chunk), "ns");
  m.Set("resolver.resolve_ns_per_query", per(resolve), "ns");
  m.Set("resolver.cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
        "fraction");
  m.Set("resolver.negative_hit_ratio",
        resolutions > 0 ? negative / resolutions : 0, "fraction");
  m.Set("resolver.tld_transactions_per_kquery", per(tld_tx) * 1000, "count");
  m.Set("sim.run_ns_per_query", per(run), "ns");
  m.Set("sim.events_per_query", per(events), "count");
  m.Set("replay.shard_imbalance",
        cpu_sum > 0 ? cpu_max / (cpu_sum / static_cast<double>(shards.size()))
                    : 0,
        "ratio");
  const double sum = per(chunk) + per(resolve) + per(run) + per(merge_ns);
  m.Set("replay.layer_sum_ns", sum, "ns");
  m.Set("replay.ledger_gap_frac", e2e_ns > 0 ? 1 - sum / e2e_ns : 0,
        "fraction");
}

}  // namespace

RunOutput RunLedger(const RunConfig& config) {
  RunOutput out;
  const ZoneKeys keys;
  const double timer_ns = TimerOverheadNs();
  out.layers.Set("trace.timer_overhead_ns", timer_ns, "ns");
  const ZoneLayer z = LedgerZone(keys, config.smoke, out.layers, out.tally);
  LedgerRefresh(z, config.smoke, out.layers, out.tally);
  LedgerSocket(config, z, out.layers, out.tally);
  LedgerReplay(config, timer_ns, out.layers, out.tally);
  out.detail = out.layers;
  return out;
}

}  // namespace perfbench
