#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench_util.h"

#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

namespace perfbench {
namespace {

constexpr std::size_t kTxBatch = 64;
constexpr std::size_t kTxSlot = 512;  // largest query the pools build
constexpr std::size_t kRxBatch = 64;
constexpr std::size_t kRxBuffer = 65536;  // a GRO train is at most 64 KiB
constexpr std::int64_t kGraceNs = 50'000'000;  // wait for stragglers
// A gap this long between two turns of the generator's loop (which polls
// for at most 1 ms) means the generator did not run: the host paused it.
// Such gaps are not grace, up to kMaxPausesNs in all.
constexpr std::int64_t kPauseNs = 5'000'000;
constexpr std::int64_t kMaxPausesNs = 1'000'000'000;
// Arrivals are released in ticks, the way a NIC's interrupt moderation
// hands them to the kernel: every query due within a tick is due at its
// start, so one tick's queries leave together (one sendmmsg).
constexpr std::int64_t kTickNs = 50'000;
// Percentiles are taken per window of this length (see loadgen.h).
constexpr double kWindowNs = 50e6;
constexpr std::size_t kCtrlSpace = CMSG_SPACE(sizeof(std::uint16_t));
constexpr std::size_t kPktinfoSpace = CMSG_SPACE(sizeof(in_pktinfo));
// Client addresses the queries come from, in rotation (see loadgen.h):
// more than the server's deepest transmit flush, so no two responses of
// one flush share a destination.
constexpr std::uint32_t kClients = 4096;

int OpenUdp() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int size = 8 << 20;
  // FORCE needs CAP_NET_ADMIN; fall back to the capped request.
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUFFORCE, &size, sizeof(size)) != 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
  }
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUFFORCE, &size, sizeof(size)) != 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof(one));
  return fd;
}

sockaddr_in Loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return addr;
}

// Segment size of a GRO-coalesced receive (the whole datagram otherwise).
std::size_t SegmentOf(msghdr& mh, std::size_t bytes) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&mh); c != nullptr; c = CMSG_NXTHDR(&mh, c)) {
    if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
      int seg = 0;
      std::memcpy(&seg, CMSG_DATA(c), sizeof(seg));
      if (seg > 0) return static_cast<std::size_t>(seg);
    }
  }
  return bytes;
}

struct RxRing {
  std::vector<mmsghdr> msgs{kRxBatch};
  std::vector<iovec> iovs{kRxBatch};
  std::vector<std::uint8_t> buffers = std::vector<std::uint8_t>(kRxBatch * kRxBuffer);
  std::vector<std::uint8_t> ctrl = std::vector<std::uint8_t>(kRxBatch * 64);

  RxRing() {
    for (std::size_t i = 0; i < kRxBatch; ++i) {
      iovs[i].iov_base = buffers.data() + i * kRxBuffer;
      iovs[i].iov_len = kRxBuffer;
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
  }
  void Reset() {
    for (std::size_t i = 0; i < kRxBatch; ++i) {
      msgs[i].msg_hdr.msg_control = ctrl.data() + i * 64;
      msgs[i].msg_hdr.msg_controllen = 64;
      msgs[i].msg_hdr.msg_flags = 0;
    }
  }
  const std::uint8_t* data(std::size_t i) const {
    return buffers.data() + i * kRxBuffer;
  }
};

std::uint16_t QuestionLength(const util::Bytes& q) {
  std::size_t pos = 12;
  while (pos < q.size() && q[pos] != 0) pos += 1 + q[pos];
  return static_cast<std::uint16_t>(std::min(q.size(), pos + 5) - 12);
}

}  // namespace

void QueryPool::Add(util::Bytes query) {
  query[0] = query[1] = 0;
  question.push_back(QuestionLength(query));
  wire.push_back(std::move(query));
}

bool StepValid(const StepResult& r, const StepRules& rules) {
  return r.late_us_p99 <= rules.late_limit_us && r.sent > 0;
}

bool StepPasses(const StepResult& r, const StepRules& rules) {
  const bool backlog_growing =
      r.final_p50_us > 2 * r.early_p50_us + 50;  // queue still building
  return StepValid(r, rules) && r.p99_us <= rules.p99_limit_us &&
         r.loss_frac() <= rules.loss_limit && !backlog_growing;
}

LoadGenerator::LoadGenerator(std::uint16_t port, int core, int client_block)
    : core_(core),
      client_base_(0x7F000000u | static_cast<std::uint32_t>(client_block) << 16),
      server_(Loopback(port)) {
  fd_ = OpenUdp();
  if (fd_ < 0) return;
  // Bound to every address, so the responses to all its client addresses
  // land on this one socket.
  sockaddr_in any{};
  any.sin_family = AF_INET;
  any.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&any), sizeof(any))) {
    ::close(fd_);
    fd_ = -1;
  }
}

LoadGenerator::~LoadGenerator() {
  if (fd_ >= 0) ::close(fd_);
}

void LoadGenerator::Warm(const QueryPool& pool) {
  std::vector<std::uint32_t> order(pool.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::size_t cursor = 0;
  // Gentle rate: every query is answered once and memoized.
  Run(pool, order, cursor, 50'000,
      static_cast<double>(pool.size()) / 50'000.0 + 0.01);
}

StepResult LoadGenerator::Run(const QueryPool& pool,
                              const std::vector<std::uint32_t>& order,
                              std::size_t& cursor, double rate, double seconds,
                              const std::atomic<int>* version) {
  StepResult result;
  result.offered_qps = rate;
  const auto total = static_cast<std::uint64_t>(rate * seconds);
  if (fd_ < 0 || total == 0 || order.empty()) return result;

  const ScopedPin pin(core_);
  const std::int64_t cpu0 = ProcessCpuNs();
  const std::int64_t wall0 = NowNs();
  {
    const std::int64_t gen_cpu0 = ThreadCpuNs();
    // In-flight slots by DNS id (wraps every 65536 sends).
    std::vector<std::int64_t> due(65536, 0);
    std::vector<std::uint32_t> query(65536, 0);
    std::vector<std::uint64_t> seq(65536, 0);
    std::vector<std::int8_t> sent_version(65536, 0);
    std::vector<std::uint8_t> open(65536, 0);
    std::vector<double> latency;  // by answer, with the send sequence
    std::vector<std::uint64_t> latency_seq;
    std::vector<double> late;
    const std::size_t expect =
        recording_ ? std::min<std::uint64_t>(total, 1u << 22) : 0;
    latency.reserve(expect);
    latency_seq.reserve(expect);
    late.reserve(expect);

    std::vector<std::uint8_t> tx(kTxBatch * kTxSlot);
    std::vector<mmsghdr> tx_msgs(kTxBatch);
    std::vector<iovec> tx_iovs(kTxBatch);
    std::vector<std::uint8_t> tx_ctrl(kTxBatch * kPktinfoSpace);
    RxRing rx;
    const double ns_per_query = 1e9 / rate;
    std::uint64_t next = 0;
    std::uint64_t outstanding = 0;
    const std::int64_t start = NowNs() + 1'000'000;  // 1 ms to settle
    const auto due_at = [&](std::uint64_t k) {
      const auto offset =
          static_cast<std::int64_t>(static_cast<double>(k) * ns_per_query);
      return start + offset / kTickNs * kTickNs;
    };
    const std::int64_t send_end = due_at(total);
    // Stragglers are waited for until kGraceNs of the generator's own
    // running time after the schedule's end: a host pause of the whole
    // machine near the end would otherwise turn the few queries in flight
    // into losses before the server ran again.
    std::int64_t grace_end = send_end + kGraceNs;
    std::int64_t last_turn = NowNs();
    std::int64_t last_answer = start;
    // Host steal on the server's and the generator's cores, sampled at
    // every window boundary of the schedule.
    const std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds * 1e9 / kWindowNs + 0.5));
    StealClock steal({ServerCore(), core_});
    std::vector<std::int64_t> steal_at;
    steal_at.reserve(windows + 1);

    // Takes one batch of responses; true when it came back full.
    const auto receive_batch = [&](std::int64_t now) {
      rx.Reset();
      const int got = ::recvmmsg(fd_, rx.msgs.data(), kRxBatch, MSG_DONTWAIT,
                                 nullptr);
      for (int i = 0; i < got; ++i) {
        const std::size_t bytes = rx.msgs[i].msg_len;
        const std::size_t seg = SegmentOf(rx.msgs[i].msg_hdr, bytes);
        for (std::size_t off = 0; off + 2 <= bytes; off += seg) {
          const std::uint8_t* p = rx.data(i) + off;
          const std::size_t len = std::min(seg, bytes - off);
          const bool in_train = seg < bytes;
          const std::uint16_t id = static_cast<std::uint16_t>((p[0] << 8) | p[1]);
          if (!open[id]) continue;  // duplicate or long-lost answer
          const std::uint32_t q = query[id];
          const util::Bytes& wire = pool.wire[q];
          const std::size_t qlen = pool.question[q];
          if (len < 12 + qlen || std::memcmp(p + 12, wire.data() + 12, qlen)) {
            continue;  // answers an older query that used this id
          }
          open[id] = 0;
          --outstanding;
          const std::uint64_t h = ResponseHash({p, len});
          bool ok = false;
          const int v = sent_version[id];
          for (int dv = -1; dv <= 1 && !ok; ++dv) {
            const int vv = v + dv;
            if (vv < 0 || vv >= static_cast<int>(pool.refs.size())) continue;
            ok = pool.refs[static_cast<std::size_t>(vv)][q] == h;
          }
          if (!ok) {
            ++result.wrong;
            continue;
          }
          ++result.answered;
          result.coalesced += in_train;
          last_answer = now;
          if (recording_) {
            latency.push_back(static_cast<double>(now - due[id]) / 1e3);
            latency_seq.push_back(seq[id]);
          }
        }
      }
      return got == static_cast<int>(kRxBatch);
    };
    // Drains up to four batches; true when any response came.
    const auto receive = [&](std::int64_t now) {
      const std::uint64_t before = result.answered + result.wrong;
      for (int b = 0; b < 4 && receive_batch(now); ++b) {
      }
      return result.answered + result.wrong > before;
    };

    for (;;) {
      const std::int64_t now = NowNs();
      if (now - last_turn > kPauseNs && now > send_end) {
        grace_end = std::min(grace_end + (now - last_turn),
                             send_end + kGraceNs + kMaxPausesNs);
      }
      last_turn = now;
      if (recording_ && steal_at.size() <= windows &&
          now >= start + static_cast<std::int64_t>(steal_at.size() * kWindowNs)) {
        steal_at.push_back(steal.Read());
      }
      if (next < total && now >= due_at(next)) {
        // Gather the due queries, one datagram each, each from the next
        // client address.
        const int v = version ? version->load(std::memory_order_acquire) : 0;
        std::size_t n = 0;
        while (n < kTxBatch && next + n < total && due_at(next + n) <= now) {
          const std::uint64_t k = next + n;
          const util::Bytes& wire = pool.wire[order[(cursor + k) % order.size()]];
          std::uint8_t* slot = tx.data() + n * kTxSlot;
          std::memcpy(slot, wire.data(), wire.size());
          const auto id = static_cast<std::uint16_t>(k & 0xFFFF);
          slot[0] = static_cast<std::uint8_t>(id >> 8);
          slot[1] = static_cast<std::uint8_t>(id);
          tx_iovs[n] = {slot, wire.size()};
          std::memset(&tx_msgs[n], 0, sizeof(tx_msgs[n]));
          msghdr& mh = tx_msgs[n].msg_hdr;
          mh.msg_name = &server_;
          mh.msg_namelen = sizeof(server_);
          mh.msg_iov = &tx_iovs[n];
          mh.msg_iovlen = 1;
          mh.msg_control = tx_ctrl.data() + n * kPktinfoSpace;
          mh.msg_controllen = kPktinfoSpace;
          cmsghdr* cm = CMSG_FIRSTHDR(&mh);
          cm->cmsg_level = IPPROTO_IP;
          cm->cmsg_type = IP_PKTINFO;
          cm->cmsg_len = CMSG_LEN(sizeof(in_pktinfo));
          in_pktinfo info{};
          info.ipi_spec_dst.s_addr =
              htonl(client_base_ + static_cast<std::uint32_t>(k % kClients));
          std::memcpy(CMSG_DATA(cm), &info, sizeof(info));
          ++n;
        }
        const int done = ::sendmmsg(fd_, tx_msgs.data(),
                                    static_cast<unsigned>(n), MSG_DONTWAIT);
        if (done <= 0) {
          ++result.send_stalls;
        } else {
          const auto queries = static_cast<std::size_t>(done);
          const std::int64_t sent_at = NowNs();
          for (std::size_t j = 0; j < queries; ++j) {
            const std::uint64_t k = next + j;
            const auto id = static_cast<std::uint16_t>(k & 0xFFFF);
            if (open[id]) {
              ++result.lost;  // still unanswered 65536 sends later
              --outstanding;
            }
            open[id] = 1;
            ++outstanding;
            due[id] = due_at(k);
            query[id] = order[(cursor + k) % order.size()];
            seq[id] = k;
            sent_version[id] = static_cast<std::int8_t>(v);
            if (recording_) {
              late.push_back(static_cast<double>(sent_at - due[id]) / 1e3);
            }
          }
          next += queries;
        }
      }
      const bool got = receive(NowNs());
      if (next < total && now > grace_end) {
        // The schedule ran away from the generator: stop sending and let
        // the lateness of the first unsent query invalidate the step.
        late.push_back(static_cast<double>(now - due_at(next)) / 1e3);
        break;
      }
      if (next >= total) {
        if (outstanding == 0 || NowNs() > grace_end) break;
        if (!got) {
          pollfd pfd{fd_, POLLIN, 0};
          ::poll(&pfd, 1, 1);
        }
      }
    }
    result.lost += outstanding;
    for (std::size_t id = 0; id < open.size(); ++id) open[id] = 0;
    result.sent = next;
    result.pooled_p99_us = Percentile(latency, 99);
    // Per-window percentiles; p50 is the median across windows, p99 is
    // taken over the pooled latencies of the calmest fifth of the windows
    // (those with the lowest p99s; see header).
    std::vector<std::vector<double>> lat_w(windows);
    std::vector<std::vector<double>> late_w(windows);
    for (std::size_t i = 0; i < latency.size(); ++i) {
      lat_w[latency_seq[i] * windows / total].push_back(latency[i]);
    }
    for (std::size_t k = 0; k < late.size(); ++k) {
      late_w[std::min(windows - 1, k * windows / total)].push_back(late[k]);
    }
    std::vector<double> p50s, lates;
    std::vector<std::pair<double, std::size_t>> p99s;  // (p99, window)
    for (std::size_t w = 0; w < windows; ++w) {
      if (!lat_w[w].empty()) {
        p50s.push_back(Percentile(lat_w[w], 50));
        p99s.emplace_back(Percentile(lat_w[w], 99), w);
      }
      if (!late_w[w].empty()) lates.push_back(Percentile(late_w[w], 99));
    }
    std::sort(p99s.begin(), p99s.end());
    std::vector<double> calm;
    for (std::size_t i = 0; i < (p99s.size() + 4) / 5; ++i) {
      const auto& window = lat_w[p99s[i].second];
      calm.insert(calm.end(), window.begin(), window.end());
    }
    steal_at.resize(windows + 1, steal_at.empty() ? 0 : steal_at.back());
    std::size_t stolen = 0;
    for (std::size_t w = 0; w < windows; ++w) stolen += steal_at[w + 1] != steal_at[w];
    result.stolen_window_frac =
        static_cast<double>(stolen) / static_cast<double>(windows);
    result.p50_us = Median(p50s);
    result.p99_us = Percentile(calm, 99);
    result.p99_median_window_us =
        p99s.empty() ? 0 : p99s[(p99s.size() - 1) / 2].first;
    result.late_us_p99 = Median(lates);
    if (next < total) {  // the schedule ran away: always invalid
      result.late_us_p99 = std::max(result.late_us_p99, late.back());
    }
    std::vector<double> early;
    std::vector<double> final;
    for (std::size_t i = 0; i < latency.size(); ++i) {
      if (latency_seq[i] < total / 4) early.push_back(latency[i]);
      if (latency_seq[i] >= total - total / 4) final.push_back(latency[i]);
    }
    result.early_p50_us = Median(early);
    result.final_p50_us = Median(final);
    if (last_answer > start) {
      result.served_qps = static_cast<double>(result.answered) * 1e9 /
                          static_cast<double>(last_answer - start);
    }
    result.gen_cpu_ns = ThreadCpuNs() - gen_cpu0;
  }
  result.process_cpu_ns = ProcessCpuNs() - cpu0;
  result.wall_ns = NowNs() - wall0;
  cursor = (cursor + total) % order.size();
  // Drain anything that arrived after the grace period.
  std::uint8_t sink[2048];
  while (::recv(fd_, sink, sizeof(sink), MSG_DONTWAIT) > 0) {
  }
  return result;
}

EchoServer::EchoServer(int core) {
  fd_ = OpenUdp();
  if (fd_ < 0) return;
  const int zero = 0;
  ::setsockopt(fd_, SOL_UDP, UDP_SEGMENT, &zero, sizeof(zero));
  sockaddr_in addr = Loopback(0);
  socklen_t len = sizeof(addr);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ||
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len)) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this, core] { Loop(core); });
}

EchoServer::~EchoServer() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

void EchoServer::Loop(int core) {
  PinToCore(core);
  RxRing rx;
  std::vector<sockaddr_in> peers(kRxBatch);
  std::vector<mmsghdr> tx(kRxBatch);
  std::vector<std::uint8_t> tx_ctrl(kRxBatch * kCtrlSpace);
  const std::int64_t cpu0 = ThreadCpuNs();
  bool full = false;  // the last batch came back full: skip the poll
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_, POLLIN, 0};
    if (!full && ::poll(&pfd, 1, 5) <= 0) continue;
    rx.Reset();
    for (std::size_t i = 0; i < kRxBatch; ++i) {
      rx.msgs[i].msg_hdr.msg_name = &peers[i];
      rx.msgs[i].msg_hdr.msg_namelen = sizeof(peers[i]);
    }
    const int got =
        ::recvmmsg(fd_, rx.msgs.data(), kRxBatch, MSG_DONTWAIT, nullptr);
    full = got == static_cast<int>(kRxBatch);
    if (got <= 0) continue;
    std::uint64_t datagrams = 0;
    for (int i = 0; i < got; ++i) {
      const std::size_t bytes = rx.msgs[i].msg_len;
      const std::size_t seg = SegmentOf(rx.msgs[i].msg_hdr, bytes);
      datagrams += seg ? (bytes + seg - 1) / seg : 1;
      std::memset(&tx[i], 0, sizeof(tx[i]));
      msghdr& mh = tx[i].msg_hdr;
      mh.msg_name = &peers[i];
      mh.msg_namelen = sizeof(peers[i]);
      mh.msg_iov = &rx.iovs[i];
      rx.iovs[i].iov_len = bytes;
      mh.msg_iovlen = 1;
      if (seg < bytes) {  // re-segment the train the way it arrived
        mh.msg_control = tx_ctrl.data() + i * kCtrlSpace;
        mh.msg_controllen = kCtrlSpace;
        cmsghdr* cm = CMSG_FIRSTHDR(&mh);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        const auto seg16 = static_cast<std::uint16_t>(seg);
        std::memcpy(CMSG_DATA(cm), &seg16, sizeof(seg16));
      }
    }
    ::sendmmsg(fd_, tx.data(), static_cast<unsigned>(got), 0);
    for (std::size_t i = 0; i < kRxBatch; ++i) rx.iovs[i].iov_len = kRxBuffer;
    echoed_.fetch_add(datagrams, std::memory_order_relaxed);
    cpu_ns_.store(ThreadCpuNs() - cpu0, std::memory_order_relaxed);
  }
}

StepResult Combine(const StepResult& a, const StepResult& b) {
  StepResult r;
  r.offered_qps = a.offered_qps + b.offered_qps;
  r.sent = a.sent + b.sent;
  r.answered = a.answered + b.answered;
  r.wrong = a.wrong + b.wrong;
  r.lost = a.lost + b.lost;
  r.send_stalls = a.send_stalls + b.send_stalls;
  r.coalesced = a.coalesced + b.coalesced;
  r.late_us_p99 = std::max(a.late_us_p99, b.late_us_p99);
  r.served_qps = a.served_qps + b.served_qps;
  r.gen_cpu_ns = a.gen_cpu_ns + b.gen_cpu_ns;
  r.wall_ns = std::max(a.wall_ns, b.wall_ns);
  return r;
}

double GeneratorCeiling(const QueryPool& pool,
                        const std::vector<std::uint32_t>& order, int core,
                        double seconds) {
  QueryPool echo;
  echo.wire = pool.wire;
  echo.question = pool.question;
  echo.refs.emplace_back();
  for (const util::Bytes& q : echo.wire) echo.refs[0].push_back(ResponseHash(q));
  EchoServer server(ServerCore());
  if (!server.ok()) return 0;
  LoadGenerator gen(server.port(), core);
  gen.set_recording(false);
  std::size_t cursor = 0;
  // An unreachable schedule: the generator sends as fast as it can, until
  // the schedule runs away from it; the rate is answers per second of
  // that span. A host pause only ever lowers one probe, so the ceiling is
  // the best of three.
  double best = 0;
  for (int probe = 0; probe < 3; ++probe) {
    best = std::max(best, gen.Run(echo, order, cursor, 20e6, seconds / 3).served_qps);
  }
  return best;
}

CapacityResult SearchCapacity(
    const std::function<StepResult(double rate)>& make_step,
    const StepRules& rules, double start, double ceiling, double climb,
    int max_steps) {
  CapacityResult out;
  double pass = start;
  double fail = 0;  // 0 = no failing rate seen yet
  while (out.steps < max_steps) {
    double rate = fail > 0 ? std::sqrt(pass * fail) : pass * climb;
    if (fail == 0 && rate >= ceiling) {
      rate = ceiling;
      if (pass >= ceiling) break;
    }
    const StepResult r = make_step(rate);
    ++out.steps;
    std::fprintf(stderr,
                 "  step %9.0f qps: p50 %7.1f us  p99 %8.1f us  loss %.5f  "
                 "late_p99 %7.1f us  %s\n",
                 rate, r.p50_us, r.p99_us, r.loss_frac(), r.late_us_p99,
                 !StepValid(r, rules) ? "invalid"
                 : StepPasses(r, rules) ? "pass" : "fail");
    if (!StepValid(r, rules)) ++out.invalid_steps;
    if (StepPasses(r, rules)) {
      pass = rate;
      if (rate >= ceiling) {
        out.bound_by_ceiling = true;
        break;
      }
    } else {
      fail = rate;
    }
  }
  out.capacity_qps = pass;
  return out;
}

}  // namespace perfbench
