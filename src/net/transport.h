// The transport seam: one send/receive contract with two implementations —
// the simulated datagram network (sim::Network) and the TCP socket server
// (net::TcpServer).
//
// A Transport hosts endpoints. Local endpoints are registered with AddNode()
// and receive every packet addressed to them; Send() emits a packet from one
// endpoint to another. How a packet travels is the implementation's
// business: the simulator schedules a latency-delayed delivery event, the
// TCP server frames it onto a connection.
//
// The UDP socket server is deliberately NOT a Transport: it hands each raw
// datagram to one zero-copy handler that writes the response straight into
// a transmit-ring slot (rootsrv::AuthServer::AnswerUdp), so there is no
// Packet copy and no reply-address bookkeeping on the datagram path. Both
// shapes end in the same AuthServer decode path, FORMERR policy, truncation
// logic and counters; the loopback parity test (tests/netserver_test.cc)
// holds the socket path byte-identical to the simulator.
//
// This header is intentionally dependency-free (util only) so that sim can
// include it without linking the socket module: sim sits *below* net in the
// link graph, and only the compiled socket servers live in rootless_net.
#pragma once

#include <cstdint>
#include <functional>

#include "util/bytes.h"

namespace rootless::net {

// Endpoint identity within one Transport. Socket transports tag remote
// peers with kRemoteEndpointBit; the simulated network never does.
using EndpointId = std::uint32_t;

// Set on ids that name a remote socket peer (a TCP connection slot) rather
// than a locally registered endpoint.
inline constexpr EndpointId kRemoteEndpointBit = 0x8000'0000u;

// Outcome of a fast-lane attempt on one raw datagram (see
// rootsrv::AuthServer::TryFastLane). kMiss means the attempt had no side
// effects and the datagram must take the full pipeline; the other two are
// final.
enum class FastVerdict {
  kMiss,       // not provably servable: fall back to the full pipeline
  kResponded,  // response written into the caller's buffer
  kDropped,    // deliberate silence (rate-limit drop)
};

// One unit of delivery: a datagram on UDP / the simulator, one
// length-prefixed DNS message on TCP.
// The receiver attributes a packet to its `src` for defense accounting
// (response rate limiting); the simulator keeps `src` stable per sender.
struct Packet {
  EndpointId src = 0;
  EndpointId dst = 0;
  util::Bytes payload;
};

class Transport {
 public:
  using ReceiveHandler = std::function<void(const Packet&)>;

  virtual ~Transport() = default;

  // Registers a local endpoint; the handler is invoked for every packet
  // addressed to it. Returns the endpoint's id.
  virtual EndpointId AddNode(ReceiveHandler handler) = 0;

  // Replaces an endpoint's handler (wiring objects constructed after their
  // endpoint id is needed).
  virtual void SetHandler(EndpointId endpoint, ReceiveHandler handler) = 0;

  // Sends a packet from `src` to `dst`. Delivery semantics (latency, loss,
  // batching, framing) belong to the implementation. Implementations accept
  // Send() from within a receive handler — that is the universal
  // request/response shape.
  virtual void Send(EndpointId src, EndpointId dst, util::Bytes payload) = 0;
};

}  // namespace rootless::net
