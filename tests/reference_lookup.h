// Test-only reference lookup: the RFC 1034 §4.3.2 authoritative walk over a
// zone::Zone's canonical std::map, kept as the slow, independent oracle that
// ZoneSnapshot::Lookup (the one production lookup) is checked against.
#pragma once

#include <vector>

#include "dns/rr.h"
#include "zone/zone.h"
#include "zone/zone_snapshot.h"

namespace rootless::zone::reference {

// Owning lookup result: every section is a deep copy.
struct LookupResult {
  LookupDisposition disposition = LookupDisposition::kOutOfZone;
  // kAnswer: the matching RRset (plus covering RRSIG if the zone is signed).
  std::vector<dns::RRset> answers;
  // kReferral: delegation NS RRset; kNoData/kNxDomain: the SOA.
  std::vector<dns::RRset> authority;
  // Glue A/AAAA for referral nameservers that are in-zone.
  std::vector<dns::RRset> additional;
};

// Authoritative query logic over `zone`. `include_dnssec` attaches covering
// RRSIGs, the DS RRset at delegation points and the covering NSEC.
LookupResult Lookup(const Zone& zone, const dns::Name& qname,
                    dns::RRType qtype, bool include_dnssec = false);

// Deep copy of a snapshot lookup, for comparison against Lookup().
LookupResult Materialize(const LookupView& view);

}  // namespace rootless::zone::reference
