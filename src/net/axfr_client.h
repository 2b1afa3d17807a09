// Blocking AXFR-over-TCP client: the socket-backed variant of the zone
// distribution channel (the simulator's loss-tolerant UDP variant is
// distrib::AxfrClient).
//
// FetchZoneTcp first asks the server for its SOA; if the serial matches
// `have_serial` the fetch returns a null SnapshotPtr (the caller keeps its
// copy — the cheap steady-state poll), and if it is older (RFC 1982 serial
// arithmetic) the fetch fails kStale without transferring. Otherwise it
// issues an AXFR query, decodes each frame once, moves its records onto
// one vector and hands that to distrib::AssembleAxfrStream, which checks
// the SOA bracket and builds the snapshot with ZoneSnapshot::Builder — no
// zone::Zone on the way. A transfer is capped at kMaxAxfrBytes on the wire.
//
// Blocking by design: refresh runs on its own cadence (minutes), not on the
// serving loop. The whole fetch — connect, SOA probe and transfer — runs
// against one deadline, so a server that trickles its stream cannot hold a
// fetch open past it. Error codes follow the shared vocabulary:
// kUnreachable (connect), kTimeout (deadline), kStale (server behind us),
// kCorrupted/kTruncated/kProtocol (stream, including the size cap).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::net {

// Most wire bytes (length prefixes included) one transfer may move: about
// 27x the signed model root zone (2.36 MB). A longer stream fails kProtocol.
inline constexpr std::size_t kMaxAxfrBytes = std::size_t{64} << 20;

struct AxfrFetchOptions {
  std::uint32_t have_serial = 0;  // 0 = always transfer
  // Deadline of the whole fetch; each socket wait gets only the time left.
  // A loopback fetch of the signed model root takes 65–134 ms.
  int timeout_ms = 5000;
};

// Returns the transferred snapshot, or a null SnapshotPtr when the server's
// serial equals `options.have_serial`.
util::Result<zone::SnapshotPtr> FetchZoneTcp(const std::string& host,
                                             std::uint16_t port,
                                             const AxfrFetchOptions& options);

}  // namespace rootless::net
