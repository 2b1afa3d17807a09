#include "zone/zone_snapshot.h"

#include <algorithm>
#include <map>
#include <set>

namespace rootless::zone {

using dns::Name;
using dns::NsData;
using dns::RRset;
using dns::RRsetKey;
using dns::RRsetView;
using dns::RRType;
using util::Error;

namespace {

// Canonical (name, type, class) ordering shared with RRsetKey::operator<=>.
std::weak_ordering CompareKey(const Name& an, RRType at, dns::RRClass ac,
                              const Name& bn, RRType bt, dns::RRClass bc) {
  if (auto c = an <=> bn; c != 0) return c;
  if (auto c = at <=> bt; c != 0) return c;
  return ac <=> bc;
}

}  // namespace

LookupResult LookupView::Materialize() const {
  LookupResult out;
  out.disposition = disposition;
  out.answers.reserve(answers.size());
  for (const auto& v : answers) out.answers.push_back(v.Materialize());
  out.authority.reserve(authority.size());
  for (const auto& v : authority) out.authority.push_back(v.Materialize());
  out.additional.reserve(additional.size());
  for (const auto& v : additional) out.additional.push_back(v.Materialize());
  return out;
}

void ZoneSnapshot::StoreRRset(const RRset& set, Page& page) {
  StoredRRset s;
  s.name = set.name;
  s.type = set.type;
  s.rrclass = set.rrclass;
  s.ttl = set.ttl;
  s.rdata_offset = static_cast<std::uint32_t>(page.rdatas.size());
  s.rdata_count = static_cast<std::uint32_t>(set.rdatas.size());
  page.rdatas.insert(page.rdatas.end(), set.rdatas.begin(), set.rdatas.end());

  if (set.type == RRType::kRRSIG) {
    // Pre-split the signature set by type_covered so serving never filters.
    // Buckets keep first-seen order; members keep original rdata order.
    s.sig_offset = static_cast<std::uint32_t>(page.sig_groups.size());
    std::vector<std::pair<RRType, std::vector<std::uint32_t>>> buckets;
    for (std::uint32_t i = 0; i < s.rdata_count; ++i) {
      const RRType covered =
          std::get<dns::RrsigData>(set.rdatas[i]).type_covered;
      auto it = std::find_if(buckets.begin(), buckets.end(),
                             [&](const auto& b) { return b.first == covered; });
      if (it == buckets.end()) {
        buckets.emplace_back(covered, std::vector<std::uint32_t>{i});
      } else {
        it->second.push_back(i);
      }
    }
    for (const auto& [covered, members] : buckets) {
      SigGroup g;
      g.covered = covered;
      g.rdata_count = static_cast<std::uint32_t>(members.size());
      const bool contiguous =
          members.back() - members.front() + 1 == members.size();
      if (contiguous) {
        // Alias the parent set's run directly.
        g.rdata_offset = s.rdata_offset + members.front();
      } else {
        // Duplicate the scattered members into their own arena run.
        g.rdata_offset = static_cast<std::uint32_t>(page.rdatas.size());
        for (std::uint32_t m : members) {
          page.rdatas.push_back(page.rdatas[s.rdata_offset + m]);
        }
      }
      page.sig_groups.push_back(g);
    }
    s.sig_count =
        static_cast<std::uint32_t>(page.sig_groups.size()) - s.sig_offset;
  }

  page.rrsets.push_back(std::move(s));
}

ZoneSnapshot::Entry ZoneSnapshot::MakeEntry(const Page& page, std::size_t i) {
  const StoredRRset& s = page.rrsets[i];
  Entry e;
  e.set = &s;
  e.rdatas = page.rdatas.data() + s.rdata_offset;
  e.arena = page.rdatas.data();
  e.sig_groups = s.type == RRType::kRRSIG
                     ? page.sig_groups.data() + s.sig_offset
                     : nullptr;
  return e;
}

void ZoneSnapshot::FinishInit() {
  // An owner's RRsets are contiguous in canonical order: index each owner
  // once, at its first entry. The table is sized to the owner count.
  std::vector<std::uint32_t> runs;
  record_count_ = 0;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    record_count_ += index_[i].set->rdata_count;
    if (i == 0 || !(index_[i].set->name == index_[i - 1].set->name)) {
      runs.push_back(static_cast<std::uint32_t>(i));
    }
  }
  owners_.Reserve(runs.size());
  const auto hash_of = [this](std::uint32_t pos) {
    return index_[pos].set->name.Hash();
  };
  for (const std::uint32_t pos : runs) {
    owners_.Insert(hash_of(pos), pos, hash_of);
  }

  soa_ = FindEntry(apex_, RRType::kSOA);
  serial_ = soa_ != nullptr && soa_->set->rdata_count > 0
                ? std::get<dns::SoaData>(soa_->rdatas[0]).serial
                : 0;
  last_nsec_ = nullptr;
  for (auto it = index_.rbegin(); it != index_.rend(); ++it) {
    if (it->set->type == RRType::kNSEC) {
      last_nsec_ = &*it;
      break;
    }
  }
}

SnapshotPtr ZoneSnapshot::Build(const Zone& zone) {
  auto snap = std::make_shared<ZoneSnapshot>();
  snap->apex_ = zone.apex();
  auto page = std::make_shared<Page>();
  page->rrsets.reserve(zone.rrset_count());
  page->rdatas.reserve(zone.record_count());
  for (const auto& [key, set] : zone.rrset_map()) StoreRRset(set, *page);
  snap->index_.reserve(page->rrsets.size());
  for (std::size_t i = 0; i < page->rrsets.size(); ++i) {
    snap->index_.push_back(MakeEntry(*page, i));
  }
  snap->pages_.push_back(std::move(page));
  snap->FinishInit();
  return snap;
}

util::Result<SnapshotPtr> ZoneSnapshot::Apply(const SnapshotPtr& base,
                                              const ZoneDiff& diff) {
  if (base == nullptr) return Error("snapshot: apply on null base");
  const Name& apex = base->apex_;

  auto base_has = [&](const RRsetKey& key) {
    const Entry* e = base->FindEntry(key.name, key.type);
    return e != nullptr && e->set->rrclass == key.rrclass;
  };

  // Replays ApplyDiff's removed → changed → added order against a key-level
  // overlay: `erased` marks base keys deleted, `delta` holds new content.
  // The final index keeps a base entry iff its key is in neither.
  std::set<RRsetKey> erased;
  std::map<RRsetKey, RRset> delta;

  for (const auto& key : diff.removed) {
    if (!base_has(key) || erased.count(key) > 0 || delta.count(key) > 0) {
      return Error("diff: removed key not present: " + key.name.ToString());
    }
    erased.insert(key);
  }
  for (const auto& set : diff.changed) {
    const RRsetKey key = set.key();
    const bool present =
        delta.count(key) > 0 || (base_has(key) && erased.count(key) == 0);
    if (!present) {
      return Error("diff: changed key not present: " + set.name.ToString());
    }
    if (!set.name.IsSubdomainOf(apex)) {
      return Error("zone: owner " + set.name.ToString() + " out of zone " +
                   apex.ToString());
    }
    delta[key] = set;
  }
  for (const auto& set : diff.added) {
    const RRsetKey key = set.key();
    if (!set.name.IsSubdomainOf(apex)) {
      return Error("zone: owner " + set.name.ToString() + " out of zone " +
                   apex.ToString());
    }
    auto it = delta.find(key);
    if (it == delta.end() && base_has(key) && erased.count(key) == 0) {
      // Merging against live base content: lift it into the delta first.
      const Entry* e = base->FindEntry(key.name, key.type);
      it = delta.emplace(key, ViewOf(*e).Materialize()).first;
    }
    if (it == delta.end()) {
      erased.erase(key);
      delta.emplace(key, set);
      continue;
    }
    // AddRRset merge semantics: set TTL = min, append missing rdatas.
    RRset& existing = it->second;
    existing.ttl = std::min(existing.ttl, set.ttl);
    for (const auto& rd : set.rdatas) {
      if (std::find(existing.rdatas.begin(), existing.rdatas.end(), rd) ==
          existing.rdatas.end()) {
        existing.rdatas.push_back(rd);
      }
    }
  }

  auto snap = std::make_shared<ZoneSnapshot>();
  snap->apex_ = apex;

  // One delta page holds deep copies of only the added/changed RRsets —
  // everything else is shared with the parent by page refcount.
  auto page = std::make_shared<Page>();
  page->rrsets.reserve(delta.size());
  for (const auto& [key, set] : delta) StoreRRset(set, *page);
  std::vector<Entry> delta_entries;
  delta_entries.reserve(page->rrsets.size());
  for (std::size_t i = 0; i < page->rrsets.size(); ++i) {
    delta_entries.push_back(MakeEntry(*page, i));
  }

  // Sorted merge of the surviving parent entries with the delta entries.
  // O(index) pointer copies; the only data copied is the delta page above.
  snap->index_.reserve(base->index_.size() + delta_entries.size());
  auto bi = base->index_.begin();
  auto di = delta_entries.begin();
  auto entry_cmp = [](const Entry& a, const Entry& b) {
    return CompareKey(a.set->name, a.set->type, a.set->rrclass, b.set->name,
                      b.set->type, b.set->rrclass);
  };
  while (bi != base->index_.end() || di != delta_entries.end()) {
    if (bi == base->index_.end()) {
      snap->index_.push_back(*di++);
      continue;
    }
    if (di == delta_entries.end()) {
      const RRsetKey key{bi->set->name, bi->set->type, bi->set->rrclass};
      if (erased.count(key) == 0) snap->index_.push_back(*bi);
      ++bi;
      continue;
    }
    const auto c = entry_cmp(*bi, *di);
    if (c == 0) {
      snap->index_.push_back(*di++);  // delta overrides the parent entry
      ++bi;
    } else if (c < 0) {
      const RRsetKey key{bi->set->name, bi->set->type, bi->set->rrclass};
      if (erased.count(key) == 0) snap->index_.push_back(*bi);
      ++bi;
    } else {
      snap->index_.push_back(*di++);
    }
  }

  snap->pages_ = base->pages_;
  snap->pages_.push_back(std::move(page));
  snap->FinishInit();
  return SnapshotPtr(std::move(snap));
}

const ZoneSnapshot::Entry* ZoneSnapshot::FindOwner(const dns::NameView& name,
                                                   std::size_t hash) const {
  const std::uint32_t pos = owners_.Find(
      hash, [&](std::uint32_t p) { return index_[p].set->name == name; });
  return pos == util::FlatHashIndex::kNpos ? nullptr : &index_[pos];
}

const ZoneSnapshot::Entry* ZoneSnapshot::FindInRun(const Entry* run,
                                                   RRType type) const {
  // Scans forward from `run` through its owner's entries, which are sorted
  // by type, so the scan stops at the first type past the one wanted.
  if (run == nullptr) return nullptr;
  const Entry* const end = index_.data() + index_.size();
  for (const Entry* e = run;
       e != end && e->set->type <= type && e->set->name == run->set->name;
       ++e) {
    if (e->set->type == type && e->set->rrclass == dns::RRClass::kIN) {
      return e;
    }
  }
  return nullptr;
}

bool ZoneSnapshot::HasName(const Name& name) const {
  return FindOwner(name) != nullptr;
}

std::optional<RRsetView> ZoneSnapshot::Find(const Name& name,
                                            RRType type) const {
  const Entry* e = FindEntry(name, type);
  if (e == nullptr) return std::nullopt;
  return ViewOf(*e);
}

std::optional<RRsetView> ZoneSnapshot::soa() const {
  if (soa_ == nullptr) return std::nullopt;
  return ViewOf(*soa_);
}

const ZoneSnapshot::Entry* ZoneSnapshot::FindDelegation(
    const Name& name) const {
  if (!name.IsSubdomainOf(apex_) || name == apex_) return nullptr;
  // Probe each ancestor from just below the apex downward: the first NS
  // found is the *highest* delegation point, and a zone cut hides
  // everything beneath it.
  for (std::size_t n = apex_.label_count() + 1; n <= name.label_count();
       ++n) {
    const dns::NameView suffix = name.SuffixView(n);
    const std::size_t hash =
        n == name.label_count() ? name.Hash() : suffix.Hash();
    if (const Entry* ns = FindInRun(FindOwner(suffix, hash), RRType::kNS)) {
      return ns;
    }
  }
  return nullptr;
}

void ZoneSnapshot::AppendGlue(const RRsetView& ns_set, LookupView& out) const {
  for (const auto& rd : ns_set.rdatas) {
    const Name& target = std::get<NsData>(rd).nameserver;
    if (!target.IsSubdomainOf(apex_)) continue;
    const Entry* host = FindOwner(target);
    if (const Entry* a = FindInRun(host, RRType::kA)) {
      out.additional.push_back(ViewOf(*a));
    }
    if (const Entry* aaaa = FindInRun(host, RRType::kAAAA)) {
      out.additional.push_back(ViewOf(*aaaa));
    }
  }
}

void ZoneSnapshot::AppendRrsig(const Entry* run, RRType covered,
                               std::vector<RRsetView>& out) const {
  const Entry* sigs = FindInRun(run, RRType::kRRSIG);
  if (sigs == nullptr) return;
  for (std::uint32_t i = 0; i < sigs->set->sig_count; ++i) {
    const SigGroup& g = sigs->sig_groups[i];
    if (g.covered != covered) continue;
    out.push_back(RRsetView{
        &sigs->set->name, RRType::kRRSIG, sigs->set->rrclass, sigs->set->ttl,
        std::span<const dns::Rdata>(sigs->arena + g.rdata_offset,
                                    g.rdata_count)});
    return;
  }
}

void ZoneSnapshot::Lookup(const Name& qname, RRType qtype, bool include_dnssec,
                          LookupView& out) const {
  out.clear();
  if (!qname.IsSubdomainOf(apex_)) {
    out.disposition = LookupDisposition::kOutOfZone;
    return;
  }

  // Delegation check first: a zone cut takes precedence over data below it —
  // except at the cut point itself where a DS query is answered
  // authoritatively.
  const Entry* delegation = FindDelegation(qname);
  const bool ds_at_cut = delegation != nullptr &&
                         qname == delegation->set->name &&
                         qtype == RRType::kDS;
  if (delegation != nullptr && !ds_at_cut) {
    out.disposition = LookupDisposition::kReferral;
    out.authority.push_back(ViewOf(*delegation));
    if (include_dnssec) {
      // DS proves (or its absence disproves) the child's chain of trust.
      // DS and RRSIG sort after NS in the cut's owner run.
      if (const Entry* ds = FindInRun(delegation, RRType::kDS)) {
        out.authority.push_back(ViewOf(*ds));
        AppendRrsig(ds, RRType::kDS, out.authority);
      }
    }
    AppendGlue(out.authority.front(), out);
    return;
  }

  // One probe serves the answer, CNAME and NODATA checks below.
  const Entry* owner = FindOwner(qname);
  if (const Entry* match = FindInRun(owner, qtype)) {
    out.disposition = LookupDisposition::kAnswer;
    out.answers.push_back(ViewOf(*match));
    if (include_dnssec) AppendRrsig(owner, qtype, out.answers);
    return;
  }

  // CNAME at the owner redirects any type (except CNAME itself, handled
  // above when qtype == kCNAME).
  if (const Entry* cname = FindInRun(owner, RRType::kCNAME)) {
    out.disposition = LookupDisposition::kAnswer;
    out.answers.push_back(ViewOf(*cname));
    if (include_dnssec) AppendRrsig(owner, RRType::kCNAME, out.answers);
    return;
  }

  out.disposition = owner != nullptr ? LookupDisposition::kNoData
                                     : LookupDisposition::kNxDomain;
  if (soa_ != nullptr) {
    out.authority.push_back(ViewOf(*soa_));
    if (include_dnssec) AppendRrsig(soa_, RRType::kSOA, out.authority);
  }
  if (include_dnssec && out.disposition == LookupDisposition::kNxDomain) {
    // Authenticated denial: attach the covering NSEC and its signature.
    if (const Entry* nsec = FindCoveringNsec(qname)) {
      out.authority.push_back(ViewOf(*nsec));
      AppendRrsig(FindOwner(nsec->set->name), RRType::kNSEC, out.authority);
    }
  }
}

LookupView ZoneSnapshot::Lookup(const Name& qname, RRType qtype,
                                bool include_dnssec) const {
  LookupView out;
  Lookup(qname, qtype, include_dnssec, out);
  return out;
}

const ZoneSnapshot::Entry* ZoneSnapshot::FindCoveringNsec(
    const Name& qname) const {
  // Walk backwards from the insertion point for (qname, NSEC) to the
  // nearest owner that carries an NSEC; the chain's canonical ordering
  // makes that the covering record (wrap-around handled by falling back to
  // the last NSEC in the zone).
  auto it = std::lower_bound(
      index_.begin(), index_.end(), nullptr, [&](const Entry& e, std::nullptr_t) {
        return CompareKey(e.set->name, e.set->type, e.set->rrclass, qname,
                          RRType::kNSEC, dns::RRClass::kIN) < 0;
      });
  while (it != index_.begin()) {
    --it;
    if (it->set->type == RRType::kNSEC) return &*it;
  }
  // qname precedes every owner: the wrap-around NSEC (last in the chain)
  // covers it.
  return last_nsec_;
}

std::vector<Name> ZoneSnapshot::DelegatedChildren() const {
  std::vector<Name> out;
  for (const auto& e : index_) {
    if (e.set->type == RRType::kNS && !(e.set->name == apex_)) {
      out.push_back(e.set->name);
    }
  }
  return out;
}

void ZoneSnapshot::ForEachRRset(
    const std::function<void(const RRsetView&)>& fn) const {
  for (const auto& e : index_) fn(ViewOf(e));
}

std::vector<RRset> ZoneSnapshot::AllRRsets() const {
  std::vector<RRset> out;
  out.reserve(index_.size());
  for (const auto& e : index_) out.push_back(ViewOf(e).Materialize());
  return out;
}

Zone ZoneSnapshot::ToZone() const {
  Zone zone(apex_);
  for (const auto& e : index_) {
    (void)zone.AddRRset(ViewOf(e).Materialize());
  }
  return zone;
}

bool ZoneSnapshot::SameContent(const ZoneSnapshot& other) const {
  if (!(apex_ == other.apex_) || index_.size() != other.index_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const StoredRRset& a = *index_[i].set;
    const StoredRRset& b = *other.index_[i].set;
    if (!(a.name == b.name) || a.type != b.type || a.rrclass != b.rrclass ||
        a.ttl != b.ttl || a.rdata_count != b.rdata_count) {
      return false;
    }
    for (std::uint32_t j = 0; j < a.rdata_count; ++j) {
      if (!(index_[i].rdatas[j] == other.index_[i].rdatas[j])) return false;
    }
  }
  return true;
}

std::size_t ZoneSnapshot::newest_page_rrset_count() const {
  return pages_.empty() ? 0 : pages_.back()->rrsets.size();
}

std::size_t ZoneSnapshot::SharedPageCount(const ZoneSnapshot& other) const {
  std::size_t shared = 0;
  for (const auto& p : pages_) {
    for (const auto& q : other.pages_) {
      if (p == q) {
        ++shared;
        break;
      }
    }
  }
  return shared;
}

ZoneDiff DiffSnapshots(const ZoneSnapshot& old_snapshot,
                       const ZoneSnapshot& new_snapshot) {
  // Lockstep walk over the two canonical indexes — same output as DiffZones
  // on the equivalent Zones, without building key maps.
  ZoneDiff diff;
  const auto& oi = old_snapshot.index_;
  const auto& ni = new_snapshot.index_;
  std::size_t o = 0, n = 0;
  auto key_of = [](const ZoneSnapshot::Entry& e) {
    return RRsetKey{e.set->name, e.set->type, e.set->rrclass};
  };
  auto same_content = [](const ZoneSnapshot::Entry& a,
                         const ZoneSnapshot::Entry& b) {
    if (a.set->ttl != b.set->ttl || a.set->rdata_count != b.set->rdata_count) {
      return false;
    }
    for (std::uint32_t j = 0; j < a.set->rdata_count; ++j) {
      if (!(a.rdatas[j] == b.rdatas[j])) return false;
    }
    return true;
  };
  while (o < oi.size() || n < ni.size()) {
    if (o == oi.size()) {
      diff.added.push_back(ZoneSnapshot::ViewOf(ni[n]).Materialize());
      ++n;
      continue;
    }
    if (n == ni.size()) {
      diff.removed.push_back(key_of(oi[o]));
      ++o;
      continue;
    }
    const auto c = CompareKey(oi[o].set->name, oi[o].set->type,
                              oi[o].set->rrclass, ni[n].set->name,
                              ni[n].set->type, ni[n].set->rrclass);
    if (c == 0) {
      if (!same_content(oi[o], ni[n])) {
        diff.changed.push_back(ZoneSnapshot::ViewOf(ni[n]).Materialize());
      }
      ++o;
      ++n;
    } else if (c < 0) {
      diff.removed.push_back(key_of(oi[o]));
      ++o;
    } else {
      diff.added.push_back(ZoneSnapshot::ViewOf(ni[n]).Materialize());
      ++n;
    }
  }
  return diff;
}

}  // namespace rootless::zone
