// Immutable, arena-backed zone snapshot shared zero-copy across layers.
//
// A ZoneSnapshot is built once from a Zone (or derived from a parent snapshot
// plus a ZoneDiff) and then handed around as a cheap refcounted value
// (SnapshotPtr). All names and rdata live in contiguous per-page arenas; the
// snapshot's sorted index stores borrowed pointers into those pages, and every
// read API hands out dns::RRsetView spans over the same memory — consumers
// (resolver::ZoneDb, rootsrv::AuthServer, distrib) never copy an RRset on the
// serving path.
//
// Structural sharing: Apply() does not rebuild the arena. It allocates ONE new
// delta page holding deep copies of only the added/changed RRsets, shares
// every parent page by refcount, and merges the two sorted indexes — an
// O(index) pointer merge with O(changed-RRsets) data movement. That is what
// makes the paper's §5.2 every-two-days refresh cheap at population scale:
// a fleet of simulated resolvers swaps a pointer, not a zone copy.
//
// Exact-match lookups go through an owner-name hash index built next to the
// sorted index: one probe finds an owner's contiguous run of RRsets, so a
// lookup costs a handful of hash probes instead of binary searches over the
// whole zone. The sorted index stays the single source of canonical order
// (iteration, diffs, AXFR, the covering-NSEC search).
//
// Lookup() mirrors zone::Zone::Lookup decision-for-decision (answer /
// referral / NODATA / NXDOMAIN, DS-at-cut, CNAME, covering NSEC) so the two
// paths are behaviourally interchangeable; zone_snapshot_test checks parity.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dns/rr.h"
#include "util/flat_hash.h"
#include "util/result.h"
#include "zone/zone.h"
#include "zone/zone_diff.h"

namespace rootless::zone {

class ZoneSnapshot;
using SnapshotPtr = std::shared_ptr<const ZoneSnapshot>;

// Borrowed analogue of LookupResult: sections are views into the snapshot's
// arenas, valid while the snapshot is alive. Designed to be reused as
// per-server scratch (clear + refill, capacity retained).
struct LookupView {
  LookupDisposition disposition = LookupDisposition::kOutOfZone;
  std::vector<dns::RRsetView> answers;
  std::vector<dns::RRsetView> authority;
  std::vector<dns::RRsetView> additional;

  void clear() {
    disposition = LookupDisposition::kOutOfZone;
    answers.clear();
    authority.clear();
    additional.clear();
  }

  // Deep copy into the owning LookupResult form (tests, loopback compat).
  LookupResult Materialize() const;
};

class ZoneSnapshot {
 public:
  // Builds a snapshot from a Zone: one pass over the canonical map into a
  // single new page. O(zone size).
  static SnapshotPtr Build(const Zone& zone);

  // Derives a new snapshot from `base` by applying `diff`. Parent pages are
  // shared by refcount; only added/changed RRsets are deep-copied into one
  // new delta page. Same semantics (and failure cases) as zone::ApplyDiff:
  // removed/changed keys must exist, added RRsets merge (min TTL, append
  // missing rdatas) if the key already exists.
  static util::Result<SnapshotPtr> Apply(const SnapshotPtr& base,
                                         const ZoneDiff& diff);

  const dns::Name& apex() const { return apex_; }
  std::uint32_t Serial() const { return serial_; }

  std::size_t rrset_count() const { return index_.size(); }
  std::size_t record_count() const { return record_count_; }

  // Exact-match lookup; the view borrows from this snapshot's arena.
  std::optional<dns::RRsetView> Find(const dns::Name& name,
                                     dns::RRType type) const;
  bool HasName(const dns::Name& name) const;
  std::optional<dns::RRsetView> soa() const;

  // Authoritative query logic, identical to Zone::Lookup but emitting views.
  // `out` is caller-owned scratch (cleared first).
  void Lookup(const dns::Name& qname, dns::RRType qtype, bool include_dnssec,
              LookupView& out) const;
  LookupView Lookup(const dns::Name& qname, dns::RRType qtype,
                    bool include_dnssec = false) const;

  // Names owning an NS RRset strictly below the apex, canonical order.
  std::vector<dns::Name> DelegatedChildren() const;

  // Visits every RRset in canonical order as a borrowed view.
  void ForEachRRset(
      const std::function<void(const dns::RRsetView&)>& fn) const;

  // Materialized copies, canonical order — cold paths only (zone digest,
  // serialization compat). Validation reads ForEachRRset's views instead.
  std::vector<dns::RRset> AllRRsets() const;

  // Deep copy back into the mutable Zone form (cold path).
  Zone ToZone() const;

  // Content equality (same apex and identical RRsets in canonical order),
  // regardless of page structure.
  bool SameContent(const ZoneSnapshot& other) const;

  // --- structural-sharing introspection (tests and benches) ---
  // Number of arena pages backing this snapshot (1 after Build, parent+1
  // after Apply).
  std::size_t page_count() const { return pages_.size(); }
  // RRsets owned by the newest page — after Apply this is exactly the number
  // of added+changed RRsets (the O(changed) data cost of the swap).
  std::size_t newest_page_rrset_count() const;
  // Pages this snapshot shares (same object) with `other`.
  std::size_t SharedPageCount(const ZoneSnapshot& other) const;

  // Internal storage — public only so std::make_shared can construct; use
  // Build()/Apply().
  struct StoredRRset {
    dns::Name name;
    dns::RRType type = dns::RRType::kA;
    dns::RRClass rrclass = dns::RRClass::kIN;
    std::uint32_t ttl = 0;
    std::uint32_t rdata_offset = 0;  // into the owning page's arena
    std::uint32_t rdata_count = 0;
    // RRSIG owners only: pre-split covering groups in page->sig_groups.
    std::uint32_t sig_offset = 0;
    std::uint32_t sig_count = 0;
  };

  // RRSIG rdatas bucketed by type_covered at build time, so AppendRrsig is a
  // pointer lookup instead of a per-query filter-and-copy. Groups whose
  // members are contiguous in the parent set alias its run; others get a
  // duplicated run at the end of the arena.
  struct SigGroup {
    dns::RRType covered = dns::RRType::kA;
    std::uint32_t rdata_offset = 0;
    std::uint32_t rdata_count = 0;
  };

  // One immutable arena page. A Build snapshot has one; each Apply adds one
  // delta page and shares the rest.
  struct Page {
    std::vector<StoredRRset> rrsets;
    std::vector<dns::Rdata> rdatas;  // the arena
    std::vector<SigGroup> sig_groups;
  };

  ZoneSnapshot() = default;

 private:
  friend ZoneDiff DiffSnapshots(const ZoneSnapshot& old_snapshot,
                                const ZoneSnapshot& new_snapshot);
  // Sorted-index entry: borrowed pointers into one page.
  struct Entry {
    const StoredRRset* set = nullptr;
    const dns::Rdata* rdatas = nullptr;      // set's run
    const SigGroup* sig_groups = nullptr;    // RRSIG owners only
    const dns::Rdata* arena = nullptr;       // page arena base (sig offsets)
  };

  static dns::RRsetView ViewOf(const Entry& e) {
    return dns::RRsetView{&e.set->name, e.set->type, e.set->rrclass,
                          e.set->ttl,
                          std::span<const dns::Rdata>(e.rdatas,
                                                      e.set->rdata_count)};
  }

  // First entry of `name`'s owner run (its RRsets are contiguous in
  // canonical order), or nullptr. `hash` is name.Hash().
  const Entry* FindOwner(const dns::NameView& name, std::size_t hash) const;
  const Entry* FindOwner(const dns::Name& name) const {
    return FindOwner(dns::NameView(name), name.Hash());
  }
  // The (type, IN) entry in the owner run starting at `run` (may be null).
  const Entry* FindInRun(const Entry* run, dns::RRType type) const;
  const Entry* FindEntry(const dns::Name& name, dns::RRType type) const {
    return FindInRun(FindOwner(name), type);
  }
  const Entry* FindDelegation(const dns::Name& name) const;
  const Entry* FindCoveringNsec(const dns::Name& qname) const;
  void AppendGlue(const dns::RRsetView& ns_set, LookupView& out) const;
  // Appends the RRSIGs covering `covered` at the owner of `run`, an entry
  // that sorts at or before the owner's RRSIG entry.
  void AppendRrsig(const Entry* run, dns::RRType covered,
                   std::vector<dns::RRsetView>& out) const;

  // Copies `set` into `page` (sig groups included). Returns nothing; the
  // entry pointers are fixed up later, after the page's vectors are final.
  static void StoreRRset(const dns::RRset& set, Page& page);
  // Builds the Entry for page->rrsets[i] once the page is finalized.
  static Entry MakeEntry(const Page& page, std::size_t i);

  // Runs after index_ is final (Build and Apply): builds the owner index and
  // caches the apex SOA, the last NSEC, serial and record count.
  void FinishInit();

  dns::Name apex_;
  std::uint32_t serial_ = 0;
  std::size_t record_count_ = 0;
  std::vector<std::shared_ptr<const Page>> pages_;
  std::vector<Entry> index_;  // canonical (name, type, class) order
  // Owner Name::Hash() -> position in index_ of that owner's first entry.
  util::FlatHashIndex owners_;
  const Entry* soa_ = nullptr;        // apex SOA
  const Entry* last_nsec_ = nullptr;  // wrap-around NSEC (last in the chain)
};

// Computes new - old by lockstep walk over the two sorted indexes; produces
// the same diff as DiffZones on the equivalent Zones. O(n) with no maps.
ZoneDiff DiffSnapshots(const ZoneSnapshot& old_snapshot,
                       const ZoneSnapshot& new_snapshot);

}  // namespace rootless::zone
