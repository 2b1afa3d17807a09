// The mutable form of a zone, filled before it is frozen into a snapshot.
//
// A Zone collects the RRsets of one zone cut (e.g. the root zone), keyed by
// (owner, type, class) in canonical order. It is what the zone model, the
// signer and the master-file reader fill; everything that serves or diffs a
// zone reads the immutable ZoneSnapshot built from it (zone_snapshot.h).
// The wire readers (AXFR streams, snapshot files) build a ZoneSnapshot
// directly with ZoneSnapshot::Builder and never fill a Zone.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dns/rr.h"
#include "util/result.h"

namespace rootless::zone {

class Zone {
 public:
  explicit Zone(dns::Name apex = dns::Name()) : apex_(std::move(apex)) {}

  const dns::Name& apex() const { return apex_; }

  // Adds a record, merging into the existing RRset (duplicates dropped, set
  // TTL = min). Fails if the owner is out of zone.
  util::Status AddRecord(const dns::ResourceRecord& record);
  // Same merge rules for a whole set. A set whose key sorts after every key
  // already present is moved in at the end without a search, so an
  // in-order fill (ZoneSnapshot::ToZone, a sorted list) costs one key
  // comparison per set.
  util::Status AddRRset(dns::RRset rrset);

  // Removes an entire RRset; returns false if absent.
  bool RemoveRRset(const dns::RRsetKey& key);
  void Clear();

  const dns::RRset* Find(const dns::Name& name, dns::RRType type) const;

  // The zone's SOA, if present.
  const dns::RRset* soa() const;
  // SOA serial, 0 if no SOA.
  std::uint32_t Serial() const;

  // All RRsets in canonical order.
  std::vector<dns::RRset> AllRRsets() const;
  // Flat record list in canonical order (the master-file writer's input).
  std::vector<dns::ResourceRecord> AllRecords() const;

  // Read-only view of the canonical (owner, type, class) → RRset map. Lets
  // ZoneSnapshot::Build fill its arena in one ordered pass without the
  // intermediate deep copy AllRRsets() would make.
  const std::map<dns::RRsetKey, dns::RRset>& rrset_map() const {
    return rrsets_;
  }

  std::size_t rrset_count() const { return rrsets_.size(); }
  std::size_t record_count() const;

  bool operator==(const Zone& other) const {
    return apex_ == other.apex_ && rrsets_ == other.rrsets_;
  }

 private:
  dns::Name apex_;
  std::map<dns::RRsetKey, dns::RRset> rrsets_;
};

}  // namespace rootless::zone
