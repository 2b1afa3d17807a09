// Batched UDP datagram server: one non-blocking IPv4 socket on an EventLoop,
// draining with recvmmsg and answering with sendmmsg.
//
// One datagram path: every received datagram goes to the single handler
// given at Bind(), together with a stable client id (peer address + port)
// and a free transmit-ring slot. The handler writes its response straight
// into the slot and returns the size, or 0 for silence; a non-zero size
// queues the slot for the peer. rootsrv::AuthServer::AnswerUdp is the
// serving handler.
//
// Buffer ownership: all receive storage (mmsghdr/iovec arrays, one
// contiguous datagram buffer block, the source-address array) and the
// transmit ring (2 × flush threshold slots of rx_buffer bytes) are
// allocated once at Bind() and reused for every batch — the steady-state
// datagram path performs no allocation and no copy beyond what the handler
// writes. Queued responses leave in sendmmsg batches: at the flush
// threshold, at the end of each receive batch (so a request batch's
// responses depart as one syscall), and on EPOLLOUT once the socket signals
// backpressure. The slot free-list is the one backpressure bound: with no
// free slot after one flush attempt, the datagram is dropped unanswered and
// counted in net.udp.dropped — a full socket buffer never grows the heap.
//
// Several UdpServers may Bind() the same port with `reuse_port` — the
// kernel then spreads flows across them (multi-worker SO_REUSEPORT
// serving).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/result.h"

struct mmsghdr;  // <sys/socket.h>

namespace rootless::net {

// The client id UdpServer hands its handler for a datagram from `peer`:
// IPv4 address and port as they arrive (network order), so NATed resolvers
// stay distinct.
inline std::uint64_t ClientId(const sockaddr_in& peer) {
  return (static_cast<std::uint64_t>(peer.sin_addr.s_addr) << 16) |
         peer.sin_port;
}

class UdpServer final {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
    // Allow multiple sockets on the port (SO_REUSEPORT worker fleets).
    bool reuse_port = false;
    std::size_t batch = 64;        // datagrams per recvmmsg/sendmmsg (max)
    // Per-datagram receive capacity, and the size of each transmit-ring
    // slot: the largest response the handler can write.
    std::size_t rx_buffer = 4096;
    // UDP GSO/GRO (Linux ≥4.18): receive coalesced same-size datagram
    // trains in one ring entry (UDP_GRO) and transmit same-destination,
    // same-size response runs as one segmented send (UDP_SEGMENT cmsg) —
    // one kernel traversal per train instead of per datagram, which is
    // where a single-core loopback serving path spends ~90% of its cycles.
    // Probed at Bind(); silently degrades to plain datagrams when the
    // kernel refuses the socket options. Wire-transparent either way: the
    // peer sees ordinary UDP datagrams.
    bool segmentation_offload = true;
    obs::Registry* registry = nullptr;  // nullptr = process default
  };

  // Answers one datagram: writes the response into `out` (a transmit-ring
  // slot of `capacity` bytes) and returns its size, or returns 0 for
  // silence. `client` is the peer's ClientId, for rate limiting.
  using DatagramHandler = std::function<std::size_t(
      std::span<const std::uint8_t> datagram, std::uint64_t client,
      std::uint8_t* out, std::size_t capacity)>;

  // Creates the socket, binds, registers on the loop. The loop must outlive
  // the server; the handler runs on the loop's thread.
  static util::Result<std::unique_ptr<UdpServer>> Bind(EventLoop& loop,
                                                       Options options,
                                                       DatagramHandler handler);
  ~UdpServer();

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

 private:
  UdpServer(EventLoop& loop, Options options, DatagramHandler handler);

  // Sizes every ring; called from Bind() after the GSO/GRO socket-option
  // probe (GRO entries need 64KB buffers, plain ones only rx_buffer).
  void InitRings();

  void OnReadable();
  void OnWritable();
  void HandleEvents(std::uint32_t events);
  // Sends as much of the tx queue as the socket accepts; arms/disarms
  // EPOLLOUT as needed.
  void FlushTx();
  void UpdateInterest(bool want_writable);

  // Feeds one wire datagram (either a whole ring entry or one GRO segment)
  // to the handler and queues its response.
  void DeliverDatagram(const std::uint8_t* data, std::size_t size,
                       const sockaddr_in& src);

  EventLoop& loop_;
  Options options_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  DatagramHandler handler_;

  // Receive rings (sized options_.batch at Bind).
  std::vector<struct ::mmsghdr> rx_msgs_;
  std::vector<struct ::iovec> rx_iovs_;
  std::vector<sockaddr_in> rx_addrs_;
  util::Bytes rx_buffers_;  // batch × rx_buffer contiguous block
  util::Bytes rx_ctrl_;     // batch × kCtrlBytes cmsg space (UDP_GRO size)
  bool gro_on_ = false;     // UDP_GRO accepted at Bind
  bool gso_on_ = false;     // UDP_SEGMENT accepted at Bind
  static constexpr std::size_t kCtrlBytes = 64;
  // Adaptive receive batch: recvmmsg asks for this many (≤ options_.batch).
  // Doubles when a batch comes back full, halves when one comes back nearly
  // empty — light load keeps the per-batch bookkeeping proportional to the
  // traffic, floods get the full ring.
  std::size_t rx_batch_now_ = 0;
  static constexpr std::size_t kMinRxBatch = 8;

  // Transmit queue + scatter arrays for sendmmsg. Each entry is a response
  // the handler wrote into transmit-ring slot `slot` (the ring byte block is
  // tx_slots_); the queue owns the slot until sendmmsg takes the entry.
  struct TxEntry {
    sockaddr_in addr;
    std::uint32_t slot = 0;
    std::uint32_t len = 0;
  };
  // Queued responses per sendmmsg flush. batch without GSO; deeper with it,
  // because the size sort inside FlushTx builds longer trains from a larger
  // pending window (the whole window still leaves in one syscall round).
  std::size_t flush_threshold_ = 0;
  std::vector<TxEntry> tx_queue_;
  std::size_t tx_head_ = 0;  // already-sent prefix
  std::vector<struct ::mmsghdr> tx_msgs_;
  std::vector<struct ::iovec> tx_iovs_;
  bool want_writable_ = false;
  // Per-train control space for the UDP_SEGMENT cmsg (batch trains max).
  util::Bytes tx_ctrl_;
  // Entry count of each train built by the current FlushTx round.
  std::vector<std::uint32_t> train_sizes_;
  // Transmit ring: tx_slot_count_ preallocated response buffers of
  // rx_buffer bytes each, managed as a free-list stack — the GSO flush path
  // reorders entries within a batch, so release order is arbitrary.
  util::Bytes tx_slots_;
  std::size_t tx_slot_count_ = 0;
  std::size_t tx_slot_bytes_ = 0;
  std::vector<std::uint32_t> tx_free_slots_;

  struct Counters {
    obs::Counter rx_datagrams;
    obs::Counter tx_datagrams;
    obs::Counter rx_batches;
    obs::Counter tx_batches;
    obs::Counter bytes_in;
    obs::Counter bytes_out;
    obs::Counter dropped;
    obs::Histogram batch_size;
  };
  Counters c_;
};

}  // namespace rootless::net
