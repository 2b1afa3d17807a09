// Open-loop UDP load generation on loopback.
//
// One generator thread, pinned to its own core, sends queries on a fixed
// schedule (query k is due at start + k/rate, evenly spaced) whatever the
// server does, and drains responses between sends. Queries are shaped like
// root traffic, which comes from many resolvers: every query is its own
// datagram (no UDP GSO trains, so the server's receive side never gets
// them coalesced) and consecutive queries come from distinct client
// addresses (127.b.0.0 + k mod 4096 for client block b, set per datagram
// with IP_PKTINFO on one socket), so the server's responses never share a
// destination within a transmit batch. The share of responses that still arrived inside a GSO
// train is measured (StepResult::coalesced). Each query's latency is
// timed from when it was due, not from when it left, so a server stall is
// charged to every query scheduled behind it. The generator also records
// how late its own sends ran; a step whose sends fell behind is invalid.
//
// Latency and lateness percentiles are taken in 50 ms windows of the
// schedule. p50 is the median across windows. p99 is taken over the pooled
// latencies of the calmest fifth of the windows, those with the lowest
// p99s: the tail the server makes itself. On a shared virtual machine the
// neighbours' bursts reached up to four fifths of the windows in busy
// periods (the p99 of the median window then moves by 10x from run to
// run), but they only ever add latency and leave some windows alone. The pooled p99
// over the whole step, the median window's p99 and the share of windows in
// which the host stole the server's or the generator's core (steal time in
// /proc/stat, sampled at every window boundary) are reported beside it.
//
// Every response is checked against reference answers computed before the
// step: its bytes (id excluded) must hash to one of the reference hashes
// of the query it answers. A wrong response is a failure, an unanswered
// query is a loss; neither is skipped.
//
// EchoServer is the kernel floor: a null recvmmsg/sendmmsg server with
// GSO/GRO that returns every datagram unchanged. Driving the generator
// against it gives the generator's own ceiling and the syscall cost per
// query with no DNS work at all.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/bytes.h"

namespace perfbench {

namespace util = rootless::util;

// Queries with their reference answers. refs[v][i] is the hash of the
// response query i must get from zone version v (one version for a static
// zone). A response is accepted under versions v-1..v+1 of the version that
// was live when it was sent, since a swap can land between send and answer.
struct QueryPool {
  std::vector<util::Bytes> wire;          // id bytes zero
  std::vector<std::uint16_t> question;    // question section length
  std::vector<std::vector<std::uint64_t>> refs;
  void Add(util::Bytes query);
  std::size_t size() const { return wire.size(); }
};

struct StepResult {
  double offered_qps = 0;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;  // correct responses
  std::uint64_t wrong = 0;     // responses that matched no reference
  std::uint64_t lost = 0;      // never answered within the grace period
  std::uint64_t send_stalls = 0;  // sendmmsg calls refused by the kernel
  std::uint64_t coalesced = 0;  // correct responses that came in a GSO train
  double p50_us = 0;
  double p99_us = 0;
  double pooled_p99_us = 0;
  double p99_median_window_us = 0;  // p99 of the median window
  // Share of windows in which the host stole the server's or the
  // generator's core (a virtual machine's neighbours at work).
  double stolen_window_frac = 0;  // over the whole step, stalls included
  double late_us_p99 = 0;  // how far sends ran behind schedule
  double early_p50_us = 0;  // median latency, first quarter of the schedule
  double final_p50_us = 0;  // median latency, last quarter of the schedule
  std::int64_t gen_cpu_ns = 0;      // generator thread CPU
  std::int64_t process_cpu_ns = 0;  // whole process CPU over the step
  std::int64_t wall_ns = 0;
  // Correct answers per second from the first due send to the last answer:
  // under overload, the rate the server drains its queue at.
  double served_qps = 0;

  double loss_frac() const {
    return sent ? static_cast<double>(lost + wrong) / static_cast<double>(sent)
                : 0;
  }
  // Process CPU minus the generator thread, per answered query.
  double server_cpu_ns_per_query() const {
    return answered ? static_cast<double>(process_cpu_ns - gen_cpu_ns) /
                          static_cast<double>(answered)
                    : 0;
  }
  double answered_qps() const {
    return wall_ns ? static_cast<double>(answered) * 1e9 /
                         static_cast<double>(wall_ns)
                   : 0;
  }
};

// Validity and pass rules of one step (see BENCHMARK notes in METRICS.md).
struct StepRules {
  double p99_limit_us = 1000;   // latency limit on p99
  double loss_limit = 0.001;    // (lost + wrong) / sent
  double late_limit_us = 100;   // generator lateness p99 beyond this: invalid
};
bool StepValid(const StepResult& r, const StepRules& rules);
bool StepPasses(const StepResult& r, const StepRules& rules);

class LoadGenerator {
 public:
  // Sends to 127.0.0.1:port from client block 127.<client_block>.0.0/20;
  // the generator thread runs on `core`.
  LoadGenerator(std::uint16_t port, int core, int client_block = 1);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;
  bool ok() const { return fd_ >= 0; }

  // Sends `rate * seconds` queries drawn from `pool` in `order` (cycled from
  // `cursor`, which advances), on schedule, and collects the answers. Runs
  // on the calling thread, pinned to the generator core for the duration.
  // `version`, when given, is read at every send to pick the reference set.
  StepResult Run(const QueryPool& pool, const std::vector<std::uint32_t>& order,
                 std::size_t& cursor, double rate, double seconds,
                 const std::atomic<int>* version = nullptr);

  // Sends every pool query once, closed loop, so caches are warm.
  void Warm(const QueryPool& pool);

  // Off: Run keeps counts only, no per-query latency or lateness (the
  // ceiling probe, whose query count depends on the machine's speed and
  // would otherwise make the peak RSS vary with it).
  void set_recording(bool on) { recording_ = on; }

 private:
  int fd_ = -1;
  int core_ = 0;
  std::uint32_t client_base_ = 0;
  sockaddr_in server_{};
  bool recording_ = true;
};

class EchoServer {
 public:
  // The echo thread runs on `core` (the serving worker's core).
  explicit EchoServer(int core);
  ~EchoServer();
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;
  bool ok() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }
  // CPU time of the echo thread so far, and datagrams echoed.
  std::int64_t cpu_ns() const { return cpu_ns_.load(); }
  std::uint64_t echoed() const { return echoed_.load(); }

 private:
  void Loop(int core);
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> cpu_ns_{0};
  std::atomic<std::uint64_t> echoed_{0};
  std::thread thread_;
};

// Two generators' steps run side by side, as one step: counts and rates
// add up, lateness is the worse of the two.
StepResult Combine(const StepResult& a, const StepResult& b);

// Highest rate the generator sustains against the echo server: answered
// qps while sending `pool` in `order` as fast as it can, the best of three
// probes of `seconds` / 3 each.
double GeneratorCeiling(const QueryPool& pool,
                        const std::vector<std::uint32_t>& order, int core,
                        double seconds);

// Capacity search: the highest offered rate whose step passes, with no
// valid step above it. `make_step` runs one step at a rate. The search
// starts from `start` (which must pass), climbs by `climb` until a step
// fails or `ceiling` is reached, then bisects in log space until
// `max_steps` steps have run. Steps above `ceiling` are never run.
struct CapacityResult {
  double capacity_qps = 0;
  bool bound_by_ceiling = false;
  int steps = 0;
  int invalid_steps = 0;
};
CapacityResult SearchCapacity(
    const std::function<StepResult(double rate)>& make_step,
    const StepRules& rules, double start, double ceiling, double climb,
    int max_steps);

}  // namespace perfbench
