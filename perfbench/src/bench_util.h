// Small shared helpers of the benchmark program: clocks, CPU time, sample
// statistics, response hashing, core pinning and the result document.
#pragma once

#include <cstdint>
#include <sched.h>

#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// CLOCK_MONOTONIC in nanoseconds.
std::int64_t NowNs();
// CPU time of the whole process / of the calling thread, in nanoseconds.
std::int64_t ProcessCpuNs();
std::int64_t ThreadCpuNs();
// Peak resident set of the process so far, in MiB.
double PeakRssMb();

// Nearest-rank percentile (p in [0,100]) of `values`; sorts a copy.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// FNV-1a over `bytes`, with the two DNS id bytes treated as zero so a
// response hashes the same whatever id it was sent with.
std::uint64_t ResponseHash(std::span<const std::uint8_t> bytes);

// Pins the calling thread to one core.
void PinToCore(int core);
// Pins the calling thread to `core` for the object's lifetime.
class ScopedPin {
 public:
  explicit ScopedPin(int core);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;
};
// Thread ids of the process (from /proc/self/task).
std::vector<int> ThreadIds();
// Pins every thread of the process not in `known` to `core` and returns
// their ids (how the frontend's worker threads get their core).
std::vector<int> PinNewThreads(const std::vector<int>& known, int core);
int Cores();
// The core plan: the load generator owns the last core, the serving
// worker core 1 and an upstream server (zone-refresh) core 2; core 0 is
// left to the kernel's housekeeping and the main thread. Pinning keeps the
// server from migrating mid-window, which otherwise dominates the spread.
int GeneratorCore();
int ServerCore();
int UpstreamCore();
// Where the main thread and the benchmark's helper threads run while a
// server is up: cores 0 and 2, away from the server and the generator.
int HelperCore(int index);
// Summed CPU time of the given threads of this process (from schedstat).
std::int64_t ThreadsCpuNs(const std::vector<int>& tids);

// Steal time of some CPUs, from /proc/stat in clock ticks: time the host
// ran something else while these virtual CPUs wanted to run. Reads 0
// forever where the kernel accounts no steal (bare metal).
class StealClock {
 public:
  explicit StealClock(std::vector<int> cores);
  ~StealClock();
  StealClock(const StealClock&) = delete;
  StealClock& operator=(const StealClock&) = delete;
  std::int64_t Read();

 private:
  int fd_ = -1;
  std::vector<int> cores_;
  std::vector<char> buf_;
};

// Whether the kernel accepts UDP_SEGMENT / UDP_GRO on a UDP socket.
bool UdpOffloadAvailable();

// Machine and build facts recorded with every result; two results are only
// comparable when these match (see run.py compare).
std::map<std::string, std::string> Provenance();

// Ordered name -> (value, unit) list that becomes the result's "metrics".
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Correctness accounting: every checked operation is attempted; a failed
// check is a failed operation, never a skipped one.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // first few failure descriptions

  void Check(bool ok, const std::string& what, std::uint64_t weight = 1);
  void Add(std::uint64_t attempted_ops, std::uint64_t failed_ops,
           const std::string& what);
};

std::string JsonEscape(const std::string& s);
// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace perfbench
