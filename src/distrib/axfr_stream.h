// AXFR-over-TCP message stream (RFC 5936 shape).
//
// A zone transfer answer is a sequence of ordinary DNS messages on one TCP
// connection: the first begins with the zone's SOA, then every record of the
// zone follows (batched into messages), and the stream ends with the SOA
// repeated. The whole path stays in canonical order and never builds a
// zone::Zone:
//
//   sender    ZoneSnapshot views -> dns::MessageView -> frames
//   receiver  frames -> one record vector (AppendAxfrFrame)
//             -> SOA bracket check -> ZoneSnapshot::Builder
//
// This is the *standard-protocol* transfer path served by the socket
// front-end (net::DnsFrontend) and consumed by net::FetchZoneTcp — any stock
// DNS client can speak it. The chunked distrib::AxfrServer protocol remains
// the simulator's loss-tolerant UDP channel; both move the same snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dns/message.h"
#include "util/bytes.h"
#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {

// Encodes the transfer as framed-ready DNS messages (no length prefixes —
// the TCP server frames each), straight from the snapshot's RRset views:
// an RRset that crosses a message boundary is cut into rdata sub-spans, so
// no record is copied. `query` supplies the message id and the question
// echoed in the first message. Returns an empty vector if the snapshot has
// no SOA (not transferable).
std::vector<util::Bytes> BuildAxfrStream(const zone::ZoneSnapshot& snapshot,
                                         const dns::Message& query,
                                         std::size_t records_per_message = 100);

// Decodes one received frame and moves its answers onto `records`. Returns
// the number of SOA records it carried (the stream ends at the second).
// Errors: the decoder's for a malformed frame, kProtocol for a rcode other
// than NOERROR.
util::Result<std::size_t> AppendAxfrFrame(
    std::span<const std::uint8_t> frame,
    std::vector<dns::ResourceRecord>& records);

// Validates a transfer's records and builds the snapshot from them: the
// sequence must open and close with the same SOA (serial included), and
// every owner must lie under the SOA's owner. The records are moved into
// the snapshot, not copied. Error code: kProtocol ("axfr: ...") for a short
// or unbracketed stream, a bracket mismatch or an out-of-zone record.
util::Result<zone::SnapshotPtr> AssembleAxfrStream(
    std::vector<dns::ResourceRecord> records);

}  // namespace rootless::distrib
