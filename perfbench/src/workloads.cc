#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "fixtures.h"
#include "net/axfr_client.h"
#include "traffic/replay.h"
#include "traffic/shard.h"
#include "zone/sign.h"

namespace perfbench {

using namespace rootless;

namespace {

// Set-ups per run, half before the measurement and half after it (the
// host's speed drifts within a run); setup_s is their median.
constexpr int kSetups = 12;
// A saturation step offers at most this multiple of the one-thread
// generator ceiling, spread over its generator threads.
constexpr double kOverloadOfCeiling = 1.5;
// Attempts at one fixed-rate sub-window (see FixedWindow). In the host's
// busy phases on a shared 4-core Xeon VM, the generator fell behind in up
// to a third of a run's attempts, for up to 2 s in a row.
constexpr int kWindowAttempts = 5;

// ---- the socket workloads -------------------------------------------------

// One timed set-up of a socket workload into `served` (its frontend on the
// server core); false if the frontend did not start.
bool TimedSetUp(const ZoneKeys& keys, const net::FrontendOptions& options,
                Served& served, std::vector<double>& setups) {
  served.Reset();
  const std::int64_t t0 = NowNs();
  served = SetUpServer(keys, kDay, options, ServerCore());
  setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  std::fprintf(stderr, "  setup    %.4f s\n", setups.back());
  return served.ok();
}

struct SocketPlan {
  double fixed_rate = 0;     // offered qps of the fixed-rate window
  double overload_rate = 0;  // offered qps of a saturation step
  double fixed_seconds = 0;
  int fixed_parts = 0;       // sub-windows the fixed-rate window runs as
  double step_seconds = 0;   // one capacity-search step
  int search_steps = 0;
  double overload_seconds = 0;  // one saturation step
  int overload_steps = 0;
};

SocketPlan PlanFor(const RunConfig& c, double fixed_rate, double overload_rate) {
  SocketPlan p;
  p.fixed_rate = fixed_rate;
  p.overload_rate = overload_rate;
  if (c.smoke) {
    p.fixed_seconds = 0.2;
    p.fixed_parts = 4;
    p.step_seconds = 0.05;
    p.search_steps = 2;
    p.overload_seconds = 0.1;
    p.overload_steps = 5;
    return p;
  }
  // The host's noise moves latency and CPU per query from one half second
  // to the next (sub-windows of one run ranged 25-38 us at the same load),
  // so the fixed-rate window runs as many short sub-windows.
  p.fixed_seconds = 0.45 * c.seconds;
  p.fixed_parts = std::max(7, static_cast<int>(p.fixed_seconds / 0.25));
  p.step_seconds = 0.25;
  p.search_steps = std::max(4, static_cast<int>(0.1 * c.seconds / 0.25));
  p.overload_seconds = 0.15;
  p.overload_steps = std::max(10, static_cast<int>(0.3 * c.seconds / 0.15));
  return p;
}

// Runs one fixed-rate sub-window, running it again when its generator fell
// behind (a descheduled generator says nothing about the server) or it lost
// queries (a pause of the host's server core overflows the server's receive
// buffer; a server too slow for the rate loses queries on every attempt),
// after a pause that lets a short burst of the host's own work pass.
// Returns the attempt it keeps: the first on schedule without losses, else
// the last if that is on schedule (its losses are failed operations,
// ReportSocketWindow). When the last attempt's generator fell behind too,
// the sub-window is invalid and not reported (nothing is returned; under
// half valid sub-windows is a failed operation, RunSocket). The wrong
// answers of every attempt are failed operations; the latency and losses
// of an attempt it does not keep are discarded.
std::optional<StepResult> FixedWindow(const std::function<StepResult()>& run,
                                      Tally& tally) {
  for (int attempt = 1;; ++attempt) {
    const StepResult r = run();
    std::fprintf(stderr,
                 "  window   %9.0f qps: p50 %7.1f us  cpu %8.0f ns/query  "
                 "late_p99 %7.1f us  lost %llu\n",
                 r.offered_qps, r.p50_us, r.server_cpu_ns_per_query(),
                 r.late_us_p99, static_cast<unsigned long long>(r.lost));
    const bool valid = StepValid(r, StepRules{});
    if (valid && (r.lost == 0 || attempt == kWindowAttempts)) return r;
    tally.Add(r.sent, r.wrong,
              "fixed-rate window (not kept): responses that match no "
              "reference");
    if (attempt == kWindowAttempts) return std::nullopt;
    ::usleep(100'000);
  }
}

// Reports the fixed-rate window from the sub-windows it kept, `parts`:
// latency and CPU per query are medians across the sub-windows (a burst of
// host noise spoils one of them, not the figure), counts add up, and the
// generator's lateness is the worst sub-window's.
void ReportSocketWindow(const std::vector<StepResult>& parts, double setup_s,
                        RunOutput& out) {
  const auto median = [&](auto of) {
    std::vector<double> values;
    for (const StepResult& r : parts) values.push_back(of(r));
    return Median(values);
  };
  std::uint64_t sent = 0, answered = 0, wrong = 0, lost = 0, coalesced = 0;
  double late = 0;
  for (const StepResult& r : parts) {
    sent += r.sent;
    answered += r.answered;
    wrong += r.wrong;
    lost += r.lost;
    coalesced += r.coalesced;
    late = std::max(late, r.late_us_p99);
  }
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0;
  };
  out.detail.Set("udp_p50_us", median([](const StepResult& r) { return r.p50_us; }), "us");
  out.detail.Set("udp_p99_us", median([](const StepResult& r) { return r.p99_us; }), "us");
  out.detail.Set("udp_p99_pooled_us",
                 median([](const StepResult& r) { return r.pooled_p99_us; }), "us");
  out.detail.Set("udp_p99_median_window_us",
                 median([](const StepResult& r) { return r.p99_median_window_us; }),
                 "us");
  out.detail.Set("host.stolen_window_frac",
                 median([](const StepResult& r) { return r.stolen_window_frac; }),
                 "fraction");
  out.detail.Set("udp_cpu_ns_per_query",
                 median([](const StepResult& r) { return r.server_cpu_ns_per_query(); }),
                 "ns");
  out.detail.Set("udp_loss_frac", ratio(lost + wrong, sent), "fraction");
  out.detail.Set("udp_wrong_responses", static_cast<double>(wrong), "count");
  out.detail.Set("udp_response_train_frac", ratio(coalesced, answered), "fraction");
  out.detail.Set("udp_fixed_rate_qps", parts.empty() ? 0 : parts.front().offered_qps,
                 "1/s");
  out.detail.Set("udp_fixed_windows", static_cast<double>(parts.size()), "count");
  out.detail.Set("udp_fixed_latency_samples", static_cast<double>(answered),
                 "count");
  out.detail.Set("loadgen.late_us_p99", late, "us");
  out.detail.Set("loadgen.cpu_share", median([](const StepResult& r) {
                   return r.process_cpu_ns ? static_cast<double>(r.gen_cpu_ns) /
                                                 static_cast<double>(r.process_cpu_ns)
                                           : 0;
                 }), "fraction");
  out.detail.Set("setup_s", setup_s, "s");
  out.tally.Add(sent, lost + wrong,
                "fixed-rate window: unanswered or wrong responses");
}

RunOutput RunSocket(const RunConfig& c, bool cold) {
  RunOutput out;
  const ScopedPin pin(HelperCore(0));
  const ZoneKeys keys;
  const int gen_core = GeneratorCore();
  net::FrontendOptions options = SocketFrontendOptions(false);
  obs::Registry registry;
  options.registry = &registry;

  std::vector<double> setups;
  Served served;
  for (int i = 0; i < (c.smoke ? 1 : kSetups / 2); ++i) {
    if (!TimedSetUp(keys, options, served, setups)) {
      out.tally.Check(false, "frontend failed to start");
      return out;
    }
  }
  const auto ref_options = ReferenceOptions(options);
  const int ref_threads = std::max(1, Cores() - 2);
  const std::vector<std::string> tlds = ActiveTlds(*served.model, kDay);

  const SocketPlan plan = cold ? PlanFor(c, kColdRate, kColdOverload)
                               : PlanFor(c, kHotRate, kHotOverload);
  StepRules rules;

  // The generator's own ceiling, against the null echo server.
  HotMix hot = MakeHotMix(tlds, c.seed, c.smoke ? 64 : 1024,
                          c.smoke ? 4096 : 1 << 20);
  const double ceiling = GeneratorCeiling(hot.pool, hot.order, gen_core, c.smoke ? 0.1 : 0.3);
  out.detail.Set("loadgen.ceiling_qps", ceiling, "1/s");

  LoadGenerator gen(served.frontend->udp_port(), gen_core);
  ColdSource source(tlds, c.seed);
  if (!cold) {
    ComputeReferences(hot.pool, {served.snapshot}, ref_options, ref_threads);
    if (c.corrupt == "socket") CorruptReferences(hot.pool);
    gen.Warm(hot.pool);
  }
  // One step: the hot mix cycles through its order; the cold source issues
  // fresh queries, references computed before the step starts.
  std::size_t cursor = 0;
  const auto step = [&](double rate, double seconds) {
    if (!cold) return gen.Run(hot.pool, hot.order, cursor, rate, seconds);
    QueryPool pool = source.Next(static_cast<std::size_t>(rate * seconds));
    ComputeReferences(pool, {served.snapshot}, ref_options, ref_threads);
    if (c.corrupt == "socket") CorruptReferences(pool);
    std::size_t from = 0;
    return gen.Run(pool, Sequential(pool.size()), from, rate, seconds);
  };
  std::uint64_t search_sent = 0;
  std::uint64_t search_wrong = 0;
  const auto account = [&](StepResult r) {
    search_sent += r.sent;
    search_wrong += r.wrong;
    return r;
  };

  // Saturation: offered past what one worker can take, the rate the server
  // drains its queue at (losses are expected here; wrong answers are not);
  // the median over the steps. On loopback the sender pays for delivering
  // each datagram, so one generator thread costs about what one server
  // worker does per query and cannot outrun it: a saturation step runs one
  // generator on every core the server does not use, each from its own
  // client block, together offering kOverloadOfCeiling times the
  // one-thread ceiling (at most the workload's cap). A step counts only if
  // it is valid and lost at least 1% of its queries (else it did not
  // saturate the server and measured the offer). Valid here means no
  // generator's sends ran more than a tenth of the step behind schedule
  // (p99): with every core busy, the host's own work delays sends by up to
  // several milliseconds, which leaves the offer, and so the saturation,
  // intact. Fewer than half such steps is a failed operation: the
  // generators, not the server, set the rate.
  std::vector<std::unique_ptr<LoadGenerator>> spare;
  for (int core = 0; core < Cores(); ++core) {
    if (core == ServerCore() || core == gen_core) continue;
    spare.push_back(std::make_unique<LoadGenerator>(
        served.frontend->udp_port(), core, static_cast<int>(spare.size()) + 2));
  }
  const double generators = static_cast<double>(spare.size() + 1);
  const double overload = std::min(kOverloadOfCeiling * ceiling, plan.overload_rate);
  const auto overload_step = [&](double rate, double seconds) {
    const double each = rate / generators;
    QueryPool fresh;
    std::vector<std::uint32_t> fresh_order;
    if (cold) {
      fresh = source.Next(static_cast<std::size_t>(rate * seconds));
      ComputeReferences(fresh, {served.snapshot}, ref_options, ref_threads);
      if (c.corrupt == "socket") CorruptReferences(fresh);
      fresh_order = Sequential(fresh.size());
    }
    const QueryPool& pool = cold ? fresh : hot.pool;
    const std::vector<std::uint32_t>& order = cold ? fresh_order : hot.order;
    // Spare generator j starts (j+1)/generators of the way into the order.
    std::size_t from = cold ? 0 : cursor;
    std::vector<StepResult> results(spare.size());
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < spare.size(); ++j) {
      const std::size_t start =
          from + (j + 1) * order.size() / (spare.size() + 1);
      threads.emplace_back([&, j, start] {
        std::size_t at = start;
        results[j] = spare[j]->Run(pool, order, at, each, seconds);
      });
    }
    StepResult r = gen.Run(pool, order, from, each, seconds);
    if (!cold) cursor = from;
    for (std::size_t j = 0; j < threads.size(); ++j) {
      threads[j].join();
      r = Combine(r, results[j]);
    }
    return r;
  };
  StepRules overload_rules = rules;
  overload_rules.late_limit_us = 0.1 * plan.overload_seconds * 1e6;
  std::vector<double> saturated;
  int late_steps = 0;
  const auto saturation_step = [&] {
    const StepResult r =
        account(overload_step(overload, plan.overload_seconds));
    std::fprintf(stderr,
                 "  overload %9.0f qps: served %9.0f qps  loss %.4f  "
                 "late_p99 %7.1f us\n",
                 overload, r.served_qps, r.loss_frac(), r.late_us_p99);
    if (!StepValid(r, overload_rules)) {
      ++late_steps;
    } else if (r.lost * 100 >= r.sent) {
      saturated.push_back(r.served_qps);
    }
  };

  // The fixed-rate sub-windows and the saturation steps take turns, so
  // that each figure's median samples the whole run: the host's speed
  // changes over seconds (on a shared 4-core VM, the saturation steps of
  // one udp-cold run ranged 50-110k qps), and a figure taken in one block
  // of the run carries the phase that block fell in.
  std::vector<StepResult> fixed;
  int overload_done = 0;
  for (int part = 0; part < plan.fixed_parts; ++part) {
    const std::optional<StepResult> r = FixedWindow(
        [&] {
          return step(plan.fixed_rate, plan.fixed_seconds / plan.fixed_parts);
        },
        out.tally);
    if (r) fixed.push_back(*r);
    const int until = (part + 1) * plan.overload_steps / plan.fixed_parts;
    if (overload_done == until) continue;
    for (; overload_done < until; ++overload_done) saturation_step();
    ::usleep(20'000);  // the server drains the overload's queue
  }
  const CapacityResult capacity = SearchCapacity(
      [&](double rate) { return account(step(rate, plan.step_seconds)); },
      rules, plan.fixed_rate, ceiling, 1.5, plan.search_steps);
  out.tally.Check(2 * fixed.size() >= static_cast<std::size_t>(plan.fixed_parts),
                  "fixed-rate window: under half the sub-windows had the "
                  "generator on schedule");
  out.tally.Check(2 * saturated.size() >= static_cast<std::size_t>(plan.overload_steps),
                  "saturation: under half the overload steps saturated the "
                  "server with the generator on schedule");
  const double saturation = Median(saturated);
  if (cold) {
    out.detail.Set("udp_cold_unique_queries",
                   static_cast<double>(source.issued()), "count");
  }
  served.frontend->Stop();
  for (int i = 0; i < (c.smoke ? 0 : kSetups / 2); ++i) {
    TimedSetUp(keys, options, served, setups);
  }
  const double setup_s = Median(setups);

  // Gates: every response of every window matches its reference; the
  // fixed-rate window must also lose nothing (ReportSocketWindow).
  out.tally.Add(search_sent, search_wrong,
                "capacity search and saturation: responses that match no "
                "reference");

  ReportSocketWindow(fixed, setup_s, out);
  out.detail.Set("udp_capacity_qps", capacity.capacity_qps, "1/s");
  out.detail.Set("udp_capacity_bound_by_loadgen", capacity.bound_by_ceiling,
                 "bool");
  out.detail.Set("udp_capacity_steps", capacity.steps, "count");
  out.detail.Set("udp_capacity_invalid_steps", capacity.invalid_steps, "count");
  out.detail.Set("udp_saturation_qps", saturation, "1/s");
  out.detail.Set("udp_overload_offered_qps", overload, "1/s");
  out.detail.Set("udp_saturated_steps", static_cast<double>(saturated.size()),
                 "count");
  out.detail.Set("udp_overload_late_steps", late_steps, "count");
  out.detail.Set("peak_rss_mb", PeakRssMb(), "MB");

  out.e2e.Set("throughput_qps", saturation, "1/s");
  out.e2e.Set("cpu_ns_per_query", out.detail.Get("udp_cpu_ns_per_query"), "ns");
  out.e2e.Set("p50_us", out.detail.Get("udp_p50_us"), "us");
  out.e2e.Set("setup_s", setup_s, "s");
  out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

// ---- zone-refresh ---------------------------------------------------------

RunOutput RunZoneRefresh(const RunConfig& c) {
  RunOutput out;
  const ScopedPin pin(HelperCore(0));  // the refresh cycles run here
  const ZoneKeys keys;
  const int gen_core = GeneratorCore();
  obs::Registry serving_registry;
  obs::Registry upstream_registry;
  net::FrontendOptions serving_options = SocketFrontendOptions(false);
  serving_options.registry = &serving_registry;

  std::vector<double> setups;
  Served served;
  for (int i = 0; i < (c.smoke ? 1 : kSetups / 2); ++i) {
    if (!TimedSetUp(keys, serving_options, served, setups)) {
      out.tally.Check(false, "serving frontend failed to start");
      return out;
    }
  }

  // The upstream's consecutive daily versions, signed before the window.
  // A fixed number of cycles per run (one per 4 s of run, at least 3),
  // spread over the serving window, so the refresh CPU is amortized over a
  // fixed number of served queries.
  const int cycles = c.smoke ? 1 : std::max(3, static_cast<int>(c.seconds / 4));
  std::vector<zone::SnapshotPtr> versions{served.snapshot};
  for (int d = 1; d <= cycles; ++d) {
    versions.push_back(zone::ZoneSnapshot::Build(
        SignedZone(*served.model, util::AddDays(kDay, d), keys)));
  }
  net::SnapshotSource upstream_source(versions[0]);
  net::FrontendOptions upstream_options = SocketFrontendOptions(true);
  upstream_options.registry = &upstream_registry;
  const std::vector<int> before = ThreadIds();
  net::DnsFrontend upstream(upstream_source, upstream_options);
  if (!upstream.Start().ok()) {
    out.tally.Check(false, "upstream frontend failed to start");
    return out;
  }
  PinNewThreads(before, UpstreamCore());

  HotMix hot = MakeHotMix(ActiveTlds(*served.model, kDay), c.seed,
                          c.smoke ? 64 : 1024, c.smoke ? 4096 : 1 << 20);
  ComputeReferences(hot.pool, versions, ReferenceOptions(serving_options),
                    std::max(1, Cores() - 2));
  if (c.corrupt == "socket") CorruptReferences(hot.pool);
  LoadGenerator gen(served.frontend->udp_port(), gen_core);
  gen.Warm(hot.pool);

  const double rate = kRefreshRate;
  const double window = c.smoke ? 0.5 : 0.85 * c.seconds;
  const double period = window / (cycles + 1);
  std::atomic<int> live_version{0};
  StepResult fixed;
  const std::int64_t serving_cpu0 = ThreadsCpuNs(served.tids);
  std::thread load([&] {  // pins itself to the generator core in Run
    std::size_t cursor = 0;
    fixed = gen.Run(hot.pool, hot.order, cursor, rate, window, &live_version);
  });

  // The refresh cycles, on this thread, beside the load.
  std::vector<double> refresh_ms;
  std::vector<double> fetch_ms;
  zone::SnapshotPtr held = versions[0];
  const int probe_fd = ConnectUdp(served.frontend->udp_port());
  const std::int64_t window_start = NowNs();
  const std::int64_t refresh_cpu0 = ThreadCpuNs();
  for (int k = 1; k <= cycles; ++k) {
    const auto wake = window_start + static_cast<std::int64_t>(k * period * 1e9);
    while (NowNs() < wake) ::usleep(1000);
    upstream_source.Publish(versions[static_cast<std::size_t>(k)]);
    const std::int64_t t0 = NowNs();
    net::AxfrFetchOptions fetch;
    fetch.have_serial = held->Serial();
    auto fetched = net::FetchZoneTcp("127.0.0.1", upstream.tcp_port(), fetch);
    const std::int64_t t_fetch = NowNs();
    const bool got = fetched.ok() && *fetched != nullptr;
    out.tally.Check(got, "refresh: AXFR fetch failed");
    if (!got) continue;
    const zone::SnapshotPtr& copy = *fetched;
    // Gates: the copy equals the upstream's version and its signatures
    // validate against the trust anchor.
    const zone::SnapshotPtr& expected =
        c.corrupt == "refresh" ? versions[static_cast<std::size_t>(k - 1)]
                               : versions[static_cast<std::size_t>(k)];
    out.tally.Check(copy->SameContent(*expected),
                    "refresh: fetched copy differs from the upstream");
    const auto valid = zone::ValidateSignedZone(
        copy->ToZone(), keys.zsk.dnskey,
        c.corrupt == "refresh" ? ZoneKeys::Untrusted() : keys.store, 1000);
    out.tally.Check(valid.ok(), "refresh: signatures do not validate");
    (void)zone::DiffSnapshots(*held, *copy);
    served.source->Publish(copy);
    live_version.store(k, std::memory_order_release);
    const std::uint32_t serial = copy->Serial();
    bool visible = false;
    for (int tries = 0; tries < 200 && !visible; ++tries) {
      visible = SoaSerial(probe_fd, static_cast<std::uint16_t>(tries)) == serial;
    }
    out.tally.Check(visible, "refresh: new serial never visible over UDP");
    refresh_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    fetch_ms.push_back(static_cast<double>(t_fetch - t0) / 1e6);
    held = copy;
  }
  const std::int64_t refresh_cpu = ThreadCpuNs() - refresh_cpu0;
  ::close(probe_fd);
  load.join();
  const std::int64_t serving_cpu = ThreadsCpuNs(served.tids) - serving_cpu0;
  upstream.Stop();
  served.frontend->Stop();
  for (int i = 0; i < (c.smoke ? 0 : kSetups / 2); ++i) {
    TimedSetUp(keys, serving_options, served, setups);
  }
  const double setup_s = Median(setups);

  out.tally.Check(StepValid(fixed, StepRules{}),
                  "serving beside refresh: generator fell behind its schedule");

  std::uint64_t tcp_bytes = 0;
  for (const obs::Sample& s : upstream_registry.Snapshot()) {
    if (s.name == "net.tcp.bytes_in" || s.name == "net.tcp.bytes_out") {
      tcp_bytes += s.counter;
    }
  }
  // The resolver's CPU: its serving worker plus the refresh cycles (the
  // upstream stands in for the distribution network and is left out).
  const double answered = fixed.answered ? static_cast<double>(fixed.answered) : 1;
  const double cpu_per_query =
      static_cast<double>(serving_cpu + refresh_cpu) / answered;
  ReportSocketWindow({fixed}, setup_s, out);
  out.detail.Set("udp_cpu_ns_per_query",
                 static_cast<double>(serving_cpu) / answered, "ns");
  out.detail.Set("refresh_cpu_ms",
                 static_cast<double>(refresh_cpu) / 1e6 / cycles, "ms");
  out.detail.Set("refresh_ms", Median(refresh_ms), "ms");
  out.detail.Set("refresh_fetch_ms", Median(fetch_ms), "ms");
  out.detail.Set("refresh_wire_bytes",
                 refresh_ms.empty() ? 0
                                    : static_cast<double>(tcp_bytes) /
                                          static_cast<double>(refresh_ms.size()),
                 "bytes");
  out.detail.Set("refresh_cycles", static_cast<double>(refresh_ms.size()), "count");
  out.detail.Set("udp_answered_qps", fixed.answered_qps(), "1/s");
  out.detail.Set("peak_rss_mb", PeakRssMb(), "MB");

  // Refreshes per second of refresh wall time (fetch start until the new
  // serial is visible over UDP): the refresh latency, as a rate.
  double refresh_s = 0;
  for (const double ms : refresh_ms) refresh_s += ms / 1e3;
  out.e2e.Set("throughput_qps",
              refresh_s > 0 ? static_cast<double>(refresh_ms.size()) / refresh_s
                            : 0,
              "1/s");
  out.e2e.Set("cpu_ns_per_query", cpu_per_query, "ns");
  out.e2e.Set("p50_us", fixed.p50_us, "us");
  out.e2e.Set("setup_s", setup_s, "s");
  out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

// ---- ditl-replay ----------------------------------------------------------

RunOutput RunDitlReplay(const RunConfig& c) {
  RunOutput out;
  traffic::ReplayOptions options = ReplayOptionsFor(c.seed, c.smoke ? 0.0005 : 0.01);

  // Set-up: the shared immutable state a replay builds before its shards
  // start (zone model, snapshot, label space), timed from here.
  std::vector<double> setups;
  const auto set_up = [&] {
    const std::int64_t t0 = NowNs();
    const zone::RootZoneModel model;
    const zone::SnapshotPtr snapshot =
        zone::ZoneSnapshot::Build(model.Snapshot(kDay));
    const traffic::ShardLabelSpace labels(options.workload, ActiveTlds(model, kDay));
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    std::fprintf(stderr, "  setup    %.4f s\n", setups.back());
  };
  for (int i = 0; i < (c.smoke ? 1 : kSetups / 2); ++i) set_up();

  std::vector<double> qps;
  std::vector<double> cpu_per_query;
  std::vector<double> wall_us;
  std::string reference;
  const std::int64_t start = NowNs();
  for (int pass = 0; pass < 6; ++pass) {
    const std::int64_t cpu0 = ProcessCpuNs();
    const std::int64_t t0 = NowNs();
    const traffic::ReplayOutcome outcome = traffic::RunShardedReplay(options);
    const double wall = static_cast<double>(NowNs() - t0);
    const double cpu = static_cast<double>(ProcessCpuNs() - cpu0);
    const double queries = static_cast<double>(outcome.tally.total_queries);
    qps.push_back(queries * 1e9 / wall);
    cpu_per_query.push_back(cpu / queries);
    wall_us.push_back(wall / 1e3);

    // Gates: the §2.2 mix, every query replayed, and the same outcome
    // fingerprint on every pass.
    CheckMix(outcome, c.corrupt == "replay", out.tally);
    std::string fp = ReplayFingerprint(outcome);
    if (reference.empty()) {
      reference = c.corrupt == "replay" ? fp + "corrupted" : fp;
    } else {
      out.tally.Check(fp == reference, "replay: outcome fingerprint changed");
    }
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (pass >= 1 && elapsed + wall / 1e9 > c.seconds) break;
  }
  for (int i = 0; i < (c.smoke ? 0 : kSetups / 2); ++i) set_up();

  const double setup_s = Median(setups);
  out.detail.Set("replay_qps", Median(qps), "1/s");
  out.detail.Set("replay_cpu_ns_per_query", Median(cpu_per_query), "ns");
  out.detail.Set("replay_passes", static_cast<double>(qps.size()), "count");
  out.detail.Set("replay_threads", options.num_threads, "count");
  out.detail.Set("setup_s", setup_s, "s");
  out.detail.Set("peak_rss_mb", PeakRssMb(), "MB");

  out.e2e.Set("throughput_qps", Median(qps), "1/s");
  out.e2e.Set("cpu_ns_per_query", Median(cpu_per_query), "ns");
  out.e2e.Set("p50_us", Median(wall_us), "us");
  out.e2e.Set("setup_s", setup_s, "s");
  out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "udp-hot" || name == "udp-cold" || name == "zone-refresh" ||
         name == "ditl-replay";
}

RunOutput RunWorkload(const RunConfig& config) {
  if (config.workload == "udp-hot") return RunSocket(config, false);
  if (config.workload == "udp-cold") return RunSocket(config, true);
  if (config.workload == "zone-refresh") return RunZoneRefresh(config);
  return RunDitlReplay(config);
}

}  // namespace perfbench
