#include "net/frontend.h"

#include <algorithm>
#include <utility>

#include "distrib/axfr_stream.h"
#include "dns/message.h"

namespace rootless::net {

rootsrv::AuthServer::Options WorkerAuthOptions(const FrontendOptions& options) {
  rootsrv::AuthServer::Options auth_options;
  auth_options.include_dnssec = options.include_dnssec;
  auth_options.edns = options.edns;
  // Real wire: answer garbage with FORMERR (the sim default stays drop).
  auth_options.respond_formerr_to_garbage = true;
  auth_options.rrl = options.rrl;
  return auth_options;
}

DnsFrontend::DnsFrontend(SnapshotSource& source, FrontendOptions options)
    : source_(source), options_(std::move(options)) {}

DnsFrontend::~DnsFrontend() { Stop(); }

util::Status DnsFrontend::Start() {
  if (!workers_.empty()) {
    return util::Error(ErrorCode::kProtocol, "frontend: already started");
  }
  zone::SnapshotPtr snapshot = source_.Get();
  if (!snapshot) {
    return util::Error(ErrorCode::kUnavailable,
                       "frontend: snapshot source is empty");
  }
  const std::uint64_t generation = source_.generation();
  const int worker_count = options_.udp_workers < 1 ? 1 : options_.udp_workers;

  rootsrv::AuthServer::Options auth_options = WorkerAuthOptions(options_);
  if (options_.rrl.enabled) {
    rrl_ = std::make_unique<rootsrv::ResponseRateLimiter>(options_.rrl);
    // Shared across workers; the pipeline's rate-limit stage only charges
    // UDP queries, so handing it to the TCP AuthServer too is harmless.
    auth_options.shared_rrl = rrl_.get();
  }

  // Bind everything up front (ports are known before any thread runs), then
  // start the threads.
  for (int i = 0; i < worker_count; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->registry = std::make_unique<obs::Registry>();
    worker->registry->set_instance_namespace("w" + std::to_string(i) + ".");
    worker->loop = std::make_unique<EventLoop>();
    if (!worker->loop->ok()) {
      return util::Error(ErrorCode::kUnavailable,
                         "frontend: event loop setup failed");
    }

    UdpServer::Options udp_options;
    udp_options.bind_address = options_.bind_address;
    // Worker 0 establishes the port; the rest join it via SO_REUSEPORT.
    udp_options.port = i == 0 ? options_.port : udp_port_;
    udp_options.reuse_port = worker_count > 1;
    udp_options.batch = options_.batch;
    // A transmit-ring slot must hold the largest response the EDNS policy
    // lets a UDP answer grow to.
    udp_options.rx_buffer =
        std::max({udp_options.rx_buffer, options_.edns.max_udp_payload,
                  options_.edns.default_udp_payload});
    udp_options.segmentation_offload = options_.segmentation_offload;
    udp_options.registry = worker->registry.get();
    // The handler runs only once the worker thread polls, by which time the
    // AuthServer below exists.
    Worker* w = worker.get();
    auto udp = UdpServer::Bind(
        *worker->loop, udp_options,
        [w](std::span<const std::uint8_t> datagram, std::uint64_t client,
            std::uint8_t* out, std::size_t capacity) {
          return w->auth->AnswerUdp(datagram, client, out, capacity);
        });
    if (!udp.ok()) return udp.error();
    worker->udp = std::move(*udp);
    if (i == 0) udp_port_ = worker->udp->port();

    auth_options.registry = worker->registry.get();
    worker->auth =
        std::make_unique<rootsrv::AuthServer>(nullptr, snapshot, auth_options);

    if (i == 0 && options_.enable_tcp) {
      TcpServer::Options tcp_options;
      tcp_options.bind_address = options_.bind_address;
      tcp_options.port = options_.port;  // 0 = its own ephemeral port
      tcp_options.registry = worker->registry.get();
      auto tcp = TcpServer::Listen(*worker->loop, tcp_options);
      if (!tcp.ok()) return tcp.error();
      worker->tcp = std::move(*tcp);
      tcp_port_ = worker->tcp->port();

      worker->tcp_auth = std::make_unique<rootsrv::AuthServer>(
          worker->tcp.get(), snapshot, auth_options);
      // Interpose on the TCP message path: AXFR queries answer with a
      // message stream; everything else goes to the AuthServer in kTcp mode
      // (64KB limit, no TC truncation).
      worker->tcp->SetHandler(worker->tcp_auth->node(),
                              [this, w](const Packet& packet) {
                                HandleTcpPacket(*w, packet);
                              });
      const obs::Labels labels{
          worker->registry->NextInstance("net.frontend"), "", ""};
      axfr_transfers_ = worker->registry->counter(
          "net.frontend.axfr_transfers", labels);
    }

    worker->seen_generation = generation;
    workers_.push_back(std::move(worker));
  }

  stop_.store(false, std::memory_order_relaxed);
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { RunWorker(*w); });
  }
  return util::Status::Ok();
}

void DnsFrontend::RunWorker(Worker& worker) {
  while (!stop_.load(std::memory_order_relaxed)) {
    worker.loop->PollOnce(20);
    // Zone refresh: swap between epoll batches, on this thread, so no query
    // ever sees a half-switched zone and old snapshots drain by refcount.
    const std::uint64_t generation = source_.generation();
    if (generation != worker.seen_generation) {
      worker.seen_generation = generation;
      zone::SnapshotPtr snapshot = source_.Get();
      if (snapshot) {
        worker.auth->SetZone(snapshot);
        if (worker.tcp_auth) worker.tcp_auth->SetZone(std::move(snapshot));
      }
    }
  }
}

void DnsFrontend::HandleTcpPacket(Worker& worker, const Packet& packet) {
  auto query = dns::DecodeMessage(packet.payload);
  if (query.ok() && !query->header.qr && query->questions.size() == 1 &&
      query->questions.front().type == dns::RRType::kAXFR) {
    auto stream = distrib::BuildAxfrStream(*worker.tcp_auth->snapshot(),
                                           *query,
                                           options_.axfr_records_per_message);
    if (stream.empty()) {
      worker.tcp->Send(0, packet.src,
                       dns::EncodeMessage(
                           dns::MakeResponse(*query, dns::RCode::kServFail)));
      return;
    }
    axfr_transfers_.Inc();
    for (auto& message : stream) {
      worker.tcp->Send(0, packet.src, std::move(message));
    }
    return;
  }
  worker.tcp_auth->HandleDatagram(packet, rootsrv::Channel::kTcp);
}

void DnsFrontend::Stop() {
  if (!stop_.exchange(true, std::memory_order_relaxed)) {
    for (auto& worker : workers_) worker->loop->Stop();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
  if (!merged_ && !workers_.empty()) {
    merged_ = true;
    obs::Registry& target =
        options_.registry ? *options_.registry : obs::Registry::Default();
    // Worker order keeps merged dumps deterministic (same rule as the
    // parallel replay engine's shard merge).
    for (auto& worker : workers_) worker->registry->MergeInto(target);
  }
}

rootsrv::AuthServerStats DnsFrontend::stats() const {
  rootsrv::AuthServerStats total;
  for (const auto& worker : workers_) {
    for (const rootsrv::AuthServer* auth :
         {worker->auth.get(), worker->tcp_auth.get()}) {
      if (auth == nullptr) continue;
      const rootsrv::AuthServerStats s = auth->stats();
      total.queries += s.queries;
      total.answers += s.answers;
      total.referrals += s.referrals;
      total.nxdomain += s.nxdomain;
      total.nodata += s.nodata;
      total.refused += s.refused;
      total.malformed += s.malformed;
      total.truncated += s.truncated;
      total.edns_queries += s.edns_queries;
      total.cache_hits += s.cache_hits;
      total.bytes_in += s.bytes_in;
      total.bytes_out += s.bytes_out;
    }
  }
  return total;
}

rootsrv::FastLaneStats DnsFrontend::fast_lane_stats() const {
  rootsrv::FastLaneStats total;
  for (const auto& worker : workers_) {
    if (worker->auth == nullptr) continue;
    const rootsrv::FastLaneStats s = worker->auth->fast_lane_stats();
    total.hits += s.hits;
    total.parse_fallbacks += s.parse_fallbacks;
    total.cache_misses += s.cache_misses;
    total.slips += s.slips;
    total.drops += s.drops;
  }
  return total;
}

rootsrv::PipelineStats DnsFrontend::pipeline_stats() const {
  rootsrv::PipelineStats total;
  for (const auto& worker : workers_) {
    for (const rootsrv::AuthServer* auth :
         {worker->auth.get(), worker->tcp_auth.get()}) {
      if (auth == nullptr) continue;
      const rootsrv::PipelineStats s = auth->pipeline_stats();
      total.screen_diverted += s.screen_diverted;
      total.rrl_checked += s.rrl_checked;
      total.rrl_dropped += s.rrl_dropped;
      total.rrl_slipped += s.rrl_slipped;
      total.cache_probes += s.cache_probes;
      total.cache_insertions += s.cache_insertions;
      total.cache_evictions += s.cache_evictions;
      total.snapshot_answers += s.snapshot_answers;
    }
  }
  return total;
}

}  // namespace rootless::net
