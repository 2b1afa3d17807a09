// AXFR-over-TCP message stream (RFC 5936 shape).
//
// A zone transfer answer is a sequence of ordinary DNS messages on one TCP
// connection: the first begins with the zone's SOA, then every record of the
// zone follows (batched into messages), and the stream ends with the SOA
// repeated. BuildAxfrStream produces that sequence straight from a
// zone::ZoneSnapshot; AssembleAxfrStream validates the SOA bracket and
// rebuilds a snapshot on the receiving side.
//
// This is the *standard-protocol* transfer path served by the socket
// front-end (net::DnsFrontend) and consumed by net::FetchZoneTcp — any stock
// DNS client can speak it. The chunked distrib::AxfrServer protocol remains
// the simulator's loss-tolerant UDP channel; both move the same snapshot.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/message.h"
#include "util/bytes.h"
#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {

// Encodes the transfer as framed-ready DNS messages (no length prefixes —
// the TCP server frames each). `query` supplies the message id and the
// question echoed in the first message. Returns an empty vector if the
// snapshot has no SOA (not transferable).
std::vector<util::Bytes> BuildAxfrStream(const zone::ZoneSnapshot& snapshot,
                                         const dns::Message& query,
                                         std::size_t records_per_message = 100);

// Validates a decoded transfer stream: every message must carry rcode
// NOERROR, the record sequence must open and close with the same SOA
// (serial included). Returns the rebuilt snapshot. Error code: kProtocol
// for a broken SOA bracket or an error rcode. The receiver decodes each
// frame once (it must, to see the closing SOA) and hands the messages over
// by value, so their records are moved, not copied.
util::Result<zone::SnapshotPtr> AssembleAxfrStream(
    std::vector<dns::Message> messages);

}  // namespace rootless::distrib
