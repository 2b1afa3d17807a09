#include "bench_util.h"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

namespace perfbench {
namespace {

std::int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
std::int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t ResponseHash(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    h ^= i < 2 ? 0 : bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h ^ bytes.size();
}

void PinToCore(int core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

ScopedPin::ScopedPin(int core) {
  sched_getaffinity(0, sizeof(saved_), &saved_);
  PinToCore(core);
}

ScopedPin::~ScopedPin() { sched_setaffinity(0, sizeof(saved_), &saved_); }

std::vector<int> ThreadIds() {
  std::vector<int> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ids.push_back(std::atoi(entry->d_name));
    }
    closedir(dir);
  }
  return ids;
}

std::vector<int> PinNewThreads(const std::vector<int>& known, int core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  std::vector<int> pinned;
  for (const int tid : ThreadIds()) {
    if (std::find(known.begin(), known.end(), tid) == known.end()) {
      sched_setaffinity(tid, sizeof(set), &set);
      pinned.push_back(tid);
    }
  }
  return pinned;
}

int Cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<int>(n);
}

int GeneratorCore() { return Cores() - 1; }
int ServerCore() { return Cores() >= 3 ? 1 : 0; }
int UpstreamCore() { return Cores() >= 4 ? 2 : 0; }
int HelperCore(int index) { return Cores() >= 4 && index % 2 ? 2 : 0; }

std::int64_t ThreadsCpuNs(const std::vector<int>& tids) {
  std::int64_t total = 0;
  for (const int tid : tids) {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
    std::int64_t ns = 0;
    if (in >> ns) total += ns;
  }
  return total;
}

StealClock::StealClock(std::vector<int> cores)
    : fd_(::open("/proc/stat", O_RDONLY | O_CLOEXEC)),
      cores_(std::move(cores)),
      buf_(1 << 16) {}

StealClock::~StealClock() {
  if (fd_ >= 0) ::close(fd_);
}

std::int64_t StealClock::Read() {
  if (fd_ < 0) return 0;
  const ssize_t n = ::pread(fd_, buf_.data(), buf_.size() - 1, 0);
  if (n <= 0) return 0;
  buf_[static_cast<std::size_t>(n)] = '\0';
  std::int64_t total = 0;
  for (const int core : cores_) {
    const std::string tag = "\ncpu" + std::to_string(core) + " ";
    const char* line = std::strstr(buf_.data(), tag.c_str());
    if (line == nullptr) continue;
    // user nice system idle iowait irq softirq steal
    char* p = const_cast<char*>(line) + tag.size();
    for (int field = 0; field < 7; ++field) std::strtoll(p, &p, 10);
    total += std::strtoll(p, nullptr, 10);
  }
  return total;
}

bool UdpOffloadAvailable() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return false;
  const int zero = 0;
  const int one = 1;
  const bool gso =
      ::setsockopt(fd, SOL_UDP, UDP_SEGMENT, &zero, sizeof(zero)) == 0;
  const bool gro = ::setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof(one)) == 0;
  ::close(fd);
  return gso && gro;
}

std::map<std::string, std::string> Provenance() {
  std::map<std::string, std::string> p;
  p["nproc"] = std::to_string(Cores());
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  p["cpu_model"] = cpu;
  p["compiler"] = PERFBENCH_COMPILER;
  p["flags"] = PERFBENCH_FLAGS;
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  utsname uts{};
  uname(&uts);
  p["kernel"] = std::string(uts.sysname) + " " + uts.release;
  p["udp_gso_gro"] = UdpOffloadAvailable() ? "on" : "off";
  p["network"] = "loopback";
  return p;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double Metrics::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void Tally::Check(bool ok, const std::string& what, std::uint64_t weight) {
  attempted += weight;
  if (ok) return;
  failed += weight;
  if (notes.size() < 8) notes.push_back(what);
}

void Tally::Add(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops > 0 && notes.size() < 8) {
    notes.push_back(what + ": " + std::to_string(failed_ops) + " of " +
                    std::to_string(attempted_ops));
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    out << (i ? ", " : "") << '"' << JsonEscape(metrics[i].name)
        << "\": {\"value\": " << v << ", \"unit\": \""
        << JsonEscape(metrics[i].unit) << "\"}";
  }
  out << '}';
  return out.str();
}

}  // namespace perfbench
