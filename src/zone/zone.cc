#include "zone/zone.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace rootless::zone {

using dns::Name;
using dns::RRset;
using dns::RRsetKey;
using dns::RRType;
using util::Error;

util::Status Zone::AddRecord(const dns::ResourceRecord& record) {
  RRset set;
  set.name = record.name;
  set.type = record.type;
  set.rrclass = record.rrclass;
  set.ttl = record.ttl;
  set.rdatas.push_back(record.rdata);
  return AddRRset(std::move(set));
}

util::Status Zone::AddRRset(RRset rrset) {
  if (!rrset.name.IsSubdomainOf(apex_))
    return Error("zone: owner " + rrset.name.ToString() + " out of zone " +
                 apex_.ToString());
  RRsetKey key = rrset.key();
  if (rrsets_.empty() || std::prev(rrsets_.end())->first < key) {
    rrsets_.emplace_hint(rrsets_.end(), std::move(key), std::move(rrset));
    return util::Status::Ok();
  }
  auto it = rrsets_.find(key);
  if (it == rrsets_.end()) {
    rrsets_.emplace(std::move(key), std::move(rrset));
    return util::Status::Ok();
  }
  RRset& existing = it->second;
  existing.ttl = std::min(existing.ttl, rrset.ttl);
  for (auto& rd : rrset.rdatas) {
    if (std::find(existing.rdatas.begin(), existing.rdatas.end(), rd) ==
        existing.rdatas.end()) {
      existing.rdatas.push_back(std::move(rd));
    }
  }
  return util::Status::Ok();
}

bool Zone::RemoveRRset(const RRsetKey& key) {
  return rrsets_.erase(key) > 0;
}

void Zone::Clear() { rrsets_.clear(); }

const RRset* Zone::Find(const Name& name, RRType type) const {
  auto it = rrsets_.find(RRsetKey{name, type, dns::RRClass::kIN});
  if (it == rrsets_.end()) return nullptr;
  return &it->second;
}

const RRset* Zone::soa() const { return Find(apex_, RRType::kSOA); }

std::uint32_t Zone::Serial() const {
  const RRset* s = soa();
  if (s == nullptr || s->rdatas.empty()) return 0;
  return std::get<dns::SoaData>(s->rdatas.front()).serial;
}

std::vector<RRset> Zone::AllRRsets() const {
  std::vector<RRset> out;
  out.reserve(rrsets_.size());
  for (const auto& [key, rrset] : rrsets_) out.push_back(rrset);
  return out;
}

std::vector<dns::ResourceRecord> Zone::AllRecords() const {
  std::vector<dns::ResourceRecord> out;
  for (const auto& [key, rrset] : rrsets_) {
    auto records = rrset.ToRecords();
    out.insert(out.end(), records.begin(), records.end());
  }
  return out;
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [key, rrset] : rrsets_) n += rrset.size();
  return n;
}

}  // namespace rootless::zone
