// Binary zone snapshot format (AXFR-like) shared by the diff format and the
// distribution mechanisms: magic | apex | serial | rrset-count | rrsets,
// with each RRset as owner | type | class | ttl | rdata-count | (len rdata)*.
#pragma once

#include <span>

#include "dns/rr.h"
#include "util/bytes.h"
#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::zone {

// The one RRset codec of the snapshot and diff formats (no compression;
// rdata names uncompressed).
void WriteRRsetWire(const dns::RRset& rrset, util::ByteWriter& writer);
void WriteRRsetWire(const dns::RRsetView& rrset, util::ByteWriter& writer);
util::Result<dns::RRset> ReadRRsetWire(util::ByteReader& reader);

// Whole-zone snapshot. Deserializing hands the RRsets to
// ZoneSnapshot::Builder, which merges repeated keys like Zone::AddRRset.
util::Bytes SerializeSnapshot(const ZoneSnapshot& snapshot);
util::Result<SnapshotPtr> DeserializeSnapshot(
    std::span<const std::uint8_t> wire);

}  // namespace rootless::zone
