#include "reference_lookup.h"

namespace rootless::zone::reference {

using dns::Name;
using dns::NsData;
using dns::RRset;
using dns::RRsetKey;
using dns::RRType;

namespace {

bool HasName(const Zone& zone, const Name& name) {
  // Any type at this exact owner name?
  const auto& rrsets = zone.rrset_map();
  auto it = rrsets.lower_bound(
      RRsetKey{name, static_cast<RRType>(0), dns::RRClass::kIN});
  return it != rrsets.end() && it->first.name == name;
}

// Finds the closest delegation point at or above `name` (strictly below the
// apex). Returns nullptr if none.
const RRset* FindDelegation(const Zone& zone, const Name& name) {
  const Name& apex = zone.apex();
  if (!name.IsSubdomainOf(apex) || name == apex) return nullptr;
  // Walk from the name up to (but excluding) the apex looking for NS.
  Name current = name;
  const RRset* found = nullptr;
  while (current != apex) {
    const RRset* ns = zone.Find(current, RRType::kNS);
    // Keep the *highest* (closest-to-apex) delegation point below the apex:
    // a zone cut hides everything beneath it.
    if (ns != nullptr) found = ns;
    if (current.is_root()) break;
    current = current.Parent();
  }
  return found;
}

void AppendGlue(const Zone& zone, const RRset& ns_set, LookupResult& result) {
  for (const auto& rd : ns_set.rdatas) {
    const Name& target = std::get<NsData>(rd).nameserver;
    if (!target.IsSubdomainOf(zone.apex())) continue;
    if (const RRset* a = zone.Find(target, RRType::kA))
      result.additional.push_back(*a);
    if (const RRset* aaaa = zone.Find(target, RRType::kAAAA))
      result.additional.push_back(*aaaa);
  }
}

void AppendRrsig(const Zone& zone, const Name& name, RRType covered,
                 std::vector<RRset>& out) {
  const RRset* sigs = zone.Find(name, RRType::kRRSIG);
  if (sigs == nullptr) return;
  RRset matching;
  matching.name = sigs->name;
  matching.type = RRType::kRRSIG;
  matching.rrclass = sigs->rrclass;
  matching.ttl = sigs->ttl;
  for (const auto& rd : sigs->rdatas) {
    if (std::get<dns::RrsigData>(rd).type_covered == covered) {
      matching.rdatas.push_back(rd);
    }
  }
  if (!matching.empty()) out.push_back(std::move(matching));
}

// Finds the NSEC RRset covering a nonexistent name (nullptr if the zone
// carries no NSEC chain).
const RRset* FindCoveringNsec(const Zone& zone, const Name& qname) {
  // Walk backwards from the insertion point for (qname, NSEC) to the
  // nearest owner that carries an NSEC; the chain's canonical ordering
  // makes that the covering record (wrap-around handled by falling back to
  // the last NSEC in the zone).
  const auto& rrsets = zone.rrset_map();
  auto it = rrsets.lower_bound(
      RRsetKey{qname, RRType::kNSEC, dns::RRClass::kIN});
  while (it != rrsets.begin()) {
    --it;
    // Every key here sorts before (qname, NSEC); a nonexistent qname owns
    // no records, so the first NSEC encountered belongs to the greatest
    // owner preceding qname — the covering record.
    if (it->first.type == RRType::kNSEC) return &it->second;
  }
  // qname precedes every owner: the wrap-around NSEC (last in the chain)
  // covers it.
  const RRset* last_nsec = nullptr;
  for (const auto& [key, rrset] : rrsets) {
    if (key.type == RRType::kNSEC) last_nsec = &rrset;
  }
  return last_nsec;
}

}  // namespace

LookupResult Lookup(const Zone& zone, const Name& qname, RRType qtype,
                    bool include_dnssec) {
  const Name& apex = zone.apex();
  LookupResult result;
  if (!qname.IsSubdomainOf(apex)) {
    result.disposition = LookupDisposition::kOutOfZone;
    return result;
  }

  // Delegation check first: a zone cut takes precedence over data below it —
  // except at the cut point itself where a DS query is answered
  // authoritatively.
  const RRset* delegation = FindDelegation(zone, qname);
  const bool ds_at_cut = delegation != nullptr && qname == delegation->name &&
                         qtype == RRType::kDS;
  if (delegation != nullptr && !ds_at_cut) {
    result.disposition = LookupDisposition::kReferral;
    result.authority.push_back(*delegation);
    if (include_dnssec) {
      // DS proves (or its absence disproves) the child's chain of trust.
      if (const RRset* ds = zone.Find(delegation->name, RRType::kDS)) {
        result.authority.push_back(*ds);
        AppendRrsig(zone, delegation->name, RRType::kDS, result.authority);
      }
    }
    AppendGlue(zone, *delegation, result);
    return result;
  }

  if (const RRset* match = zone.Find(qname, qtype)) {
    result.disposition = LookupDisposition::kAnswer;
    result.answers.push_back(*match);
    if (include_dnssec) AppendRrsig(zone, qname, qtype, result.answers);
    return result;
  }

  // CNAME at the owner redirects any type (except CNAME itself, handled
  // above when qtype == kCNAME).
  if (const RRset* cname = zone.Find(qname, RRType::kCNAME)) {
    result.disposition = LookupDisposition::kAnswer;
    result.answers.push_back(*cname);
    if (include_dnssec) {
      AppendRrsig(zone, qname, RRType::kCNAME, result.answers);
    }
    return result;
  }

  result.disposition = HasName(zone, qname) ? LookupDisposition::kNoData
                                            : LookupDisposition::kNxDomain;
  if (const RRset* s = zone.soa()) {
    result.authority.push_back(*s);
    if (include_dnssec) AppendRrsig(zone, apex, RRType::kSOA, result.authority);
  }
  if (include_dnssec && result.disposition == LookupDisposition::kNxDomain) {
    // Authenticated denial: attach the covering NSEC and its signature.
    if (const RRset* nsec = FindCoveringNsec(zone, qname)) {
      result.authority.push_back(*nsec);
      AppendRrsig(zone, nsec->name, RRType::kNSEC, result.authority);
    }
  }
  return result;
}

LookupResult Materialize(const LookupView& view) {
  LookupResult out;
  out.disposition = view.disposition;
  for (const auto& v : view.answers) out.answers.push_back(v.Materialize());
  for (const auto& v : view.authority) out.authority.push_back(v.Materialize());
  for (const auto& v : view.additional) {
    out.additional.push_back(v.Materialize());
  }
  return out;
}

}  // namespace rootless::zone::reference
