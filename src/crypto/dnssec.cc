#include "crypto/dnssec.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "dns/message.h"
#include "util/flat_hash.h"

namespace rootless::crypto {

using dns::DnskeyData;
using dns::DsData;
using dns::Name;
using dns::RRset;
using dns::RRsetView;
using dns::RrsigData;
using dns::RRType;
using util::Bytes;
using util::ByteWriter;
using util::Error;

namespace {

Bytes DnskeyRdataWire(const DnskeyData& dnskey) {
  ByteWriter w;
  dns::EncodeRdata(dns::Rdata(dnskey), w);
  return w.TakeData();
}

// Everything VerifyRRset checks about an RRSIG short of the MAC, in this
// order: algorithms, covered type, key tag, validity window, signer.
util::Status CheckRrsigFields(const RRsetView& rrset, const RrsigData& rrsig,
                              std::uint8_t key_algorithm,
                              std::uint16_t key_tag, std::uint32_t now) {
  if (rrsig.algorithm != kSimSigAlgorithm)
    return Error("rrsig: unsupported algorithm");
  if (key_algorithm != kSimSigAlgorithm)
    return Error("dnskey: unsupported algorithm");
  if (rrsig.type_covered != rrset.type)
    return Error("rrsig: type covered mismatch");
  if (rrsig.key_tag != key_tag) return Error("rrsig: key tag mismatch");
  if (now < rrsig.inception) return Error("rrsig: not yet valid");
  if (now > rrsig.expiration) return Error("rrsig: expired");
  if (!rrset.name->IsSubdomainOf(rrsig.signer))
    return Error("rrsig: owner not under signer");
  return util::Status::Ok();
}

util::Status CheckMac(const RRsetView& rrset, const RrsigData& rrsig,
                      const HmacSha256Key& mac, CanonicalWriter& writer) {
  const Digest256 expected = mac.Mac(writer.SigningForm(rrsig, rrset));
  if (rrsig.signature.size() != expected.size() ||
      !std::equal(expected.begin(), expected.end(), rrsig.signature.begin()))
    return Error("rrsig: signature mismatch");
  return util::Status::Ok();
}

// A signing key resolved once for a batch of RRsets: its tag and keyed MAC.
struct Signer {
  std::uint8_t algorithm;
  std::uint16_t key_tag;
  HmacSha256Key mac;

  explicit Signer(const SigningKey& key)
      : algorithm(key.dnskey.algorithm),
        key_tag(key.key_tag()),
        mac(key.secret) {}

  RrsigData Sign(const RRsetView& rrset, const Name& signer,
                 std::uint32_t inception, std::uint32_t expiration,
                 CanonicalWriter& writer) const {
    RrsigData sig;
    sig.type_covered = rrset.type;
    sig.algorithm = algorithm;
    sig.labels = static_cast<std::uint8_t>(rrset.name->label_count());
    sig.original_ttl = rrset.ttl;
    sig.expiration = expiration;
    sig.inception = inception;
    sig.key_tag = key_tag;
    sig.signer = signer;
    const Digest256 d = mac.Mac(writer.SigningForm(sig, rrset));
    sig.signature.assign(d.begin(), d.end());
    return sig;
  }
};

std::uint64_t OwnerTypeHash(const Name& owner, RRType type) {
  return owner.Hash() ^
         static_cast<std::uint64_t>(type) * 0x9E3779B97F4A7C15ULL;
}

std::string RRsetLabel(const RRsetView& s) {
  return s.name->ToString() + " " + dns::RRTypeToString(s.type);
}

}  // namespace

std::span<const std::uint8_t> CanonicalWriter::SigningForm(
    const RrsigData& t, const RRsetView& rrset) {
  out_.Clear();
  // RRSIG RDATA minus the signature field.
  out_.WriteU16(static_cast<std::uint16_t>(t.type_covered));
  out_.WriteU8(t.algorithm);
  out_.WriteU8(t.labels);
  out_.WriteU32(t.original_ttl);
  out_.WriteU32(t.expiration);
  out_.WriteU32(t.inception);
  out_.WriteU16(t.key_tag);
  t.signer.EncodeCanonicalWire(out_);
  AppendRRset(rrset, t.original_ttl);
  return out_.span();
}

std::span<const std::uint8_t> CanonicalWriter::RRsetForm(
    const RRsetView& rrset) {
  out_.Clear();
  AppendRRset(rrset, rrset.ttl);
  return out_.span();
}

void CanonicalWriter::AppendRRset(const RRsetView& rrset, std::uint32_t ttl) {
  rdata_.Clear();
  spans_.clear();
  for (const auto& rd : rrset.rdatas) {
    const std::size_t offset = rdata_.size();
    dns::EncodeRdata(rd, rdata_);
    spans_.push_back(
        RdataSpan{static_cast<std::uint32_t>(offset),
                  static_cast<std::uint32_t>(rdata_.size() - offset)});
  }
  // Sorted by wire form, a prefix before its extensions: the order of
  // std::vector<uint8_t>'s operator<.
  const std::span<const std::uint8_t> wires = rdata_.span();
  std::sort(spans_.begin(), spans_.end(),
            [&wires](const RdataSpan& a, const RdataSpan& b) {
              const int c = std::memcmp(wires.data() + a.offset,
                                        wires.data() + b.offset,
                                        std::min(a.size, b.size));
              return c != 0 ? c < 0 : a.size < b.size;
            });
  for (const RdataSpan& rd : spans_) {
    rrset.name->EncodeCanonicalWire(out_);
    out_.WriteU16(static_cast<std::uint16_t>(rrset.type));
    out_.WriteU16(static_cast<std::uint16_t>(rrset.rrclass));
    out_.WriteU32(ttl);
    out_.WriteU16(static_cast<std::uint16_t>(rd.size));
    out_.WriteBytes(wires.subspan(rd.offset, rd.size));
  }
}

std::uint16_t SigningKey::key_tag() const { return ComputeKeyTag(dnskey); }

SigningKey GenerateKey(std::uint16_t flags, util::Rng& rng) {
  SigningKey key;
  key.secret.resize(32);
  for (auto& b : key.secret) b = static_cast<std::uint8_t>(rng.Below(256));
  const Digest256 id = Sha256::Hash(key.secret);
  key.dnskey.flags = flags;
  key.dnskey.protocol = 3;
  key.dnskey.algorithm = kSimSigAlgorithm;
  key.dnskey.public_key.assign(id.begin(), id.end());
  return key;
}

std::uint16_t ComputeKeyTag(const DnskeyData& dnskey) {
  const Bytes wire = DnskeyRdataWire(dnskey);
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    acc += (i & 1) ? wire[i] : static_cast<std::uint32_t>(wire[i]) << 8;
  }
  acc += (acc >> 16) & 0xFFFF;
  return static_cast<std::uint16_t>(acc & 0xFFFF);
}

RrsigData SignRRset(const RRset& rrset, const SigningKey& key,
                    const Name& signer, std::uint32_t inception,
                    std::uint32_t expiration) {
  CanonicalWriter writer;
  return Signer(key).Sign(RRsetView::Of(rrset), signer, inception, expiration,
                          writer);
}

void KeyStore::AddKey(const SigningKey& key) {
  keys_[key.dnskey.public_key] = key;
}

const SigningKey* KeyStore::Find(const DnskeyData& dnskey) const {
  auto it = keys_.find(dnskey.public_key);
  if (it == keys_.end()) return nullptr;
  return &it->second;
}

util::Status VerifyRRset(const RRset& rrset, const RrsigData& rrsig,
                         const DnskeyData& dnskey, const KeyStore& store,
                         std::uint32_t now) {
  const RRsetView view = RRsetView::Of(rrset);
  ROOTLESS_RETURN_IF_ERROR(CheckRrsigFields(view, rrsig, dnskey.algorithm,
                                            ComputeKeyTag(dnskey), now));
  const SigningKey* key = store.Find(dnskey);
  if (key == nullptr) return Error("dnskey: unknown key identifier");
  CanonicalWriter writer;
  return CheckMac(view, rrsig, HmacSha256Key(key->secret), writer);
}

DsData MakeDs(const Name& owner, const DnskeyData& dnskey) {
  Sha256 h;
  const Bytes owner_wire = owner.CanonicalWire();
  h.Update(owner_wire);
  h.Update(DnskeyRdataWire(dnskey));
  const Digest256 digest = h.Finish();
  DsData ds;
  ds.key_tag = ComputeKeyTag(dnskey);
  ds.algorithm = dnskey.algorithm;
  ds.digest_type = kDigestTypeSha256;
  ds.digest.assign(digest.begin(), digest.end());
  return ds;
}

bool DsMatchesKey(const DsData& ds, const Name& owner,
                  const DnskeyData& dnskey) {
  if (ds.key_tag != ComputeKeyTag(dnskey)) return false;
  if (ds.algorithm != dnskey.algorithm) return false;
  if (ds.digest_type != kDigestTypeSha256) return false;
  const DsData expected = MakeDs(owner, dnskey);
  return expected.digest == ds.digest;
}

Digest256 ZoneDigest(const std::vector<RRset>& rrsets) {
  // Canonical order over (owner, type, class), then hash each RRset's
  // canonical wire form.
  std::vector<const RRset*> ordered;
  ordered.reserve(rrsets.size());
  for (const auto& s : rrsets) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const RRset* a, const RRset* b) {
              if (auto c = a->name <=> b->name; c != 0) return c < 0;
              if (a->type != b->type) return a->type < b->type;
              return a->rrclass < b->rrclass;
            });
  Sha256 h;
  CanonicalWriter writer;
  for (const RRset* s : ordered) h.Update(writer.RRsetForm(RRsetView::Of(*s)));
  return h.Finish();
}

std::vector<RRset> SignZoneRRsets(const std::vector<RRset>& rrsets,
                                  const SigningKey& zsk, const Name& apex,
                                  std::uint32_t inception,
                                  std::uint32_t expiration) {
  const Signer signer(zsk);
  CanonicalWriter writer;
  std::vector<RRset> out = rrsets;
  for (const auto& rrset : rrsets) {
    if (rrset.type == RRType::kRRSIG) continue;
    RRset sig_set;
    sig_set.name = rrset.name;
    sig_set.type = RRType::kRRSIG;
    sig_set.rrclass = rrset.rrclass;
    sig_set.ttl = rrset.ttl;
    sig_set.rdatas.push_back(dns::Rdata(signer.Sign(
        RRsetView::Of(rrset), apex, inception, expiration, writer)));
    out.push_back(std::move(sig_set));
  }
  return out;
}

util::Result<std::size_t> ValidateZoneRRsets(std::span<const RRsetView> rrsets,
                                             const DnskeyData& dnskey,
                                             const KeyStore& store,
                                             std::uint32_t now) {
  if (dnskey.algorithm != kSimSigAlgorithm)
    return Error("zone: dnskey: unsupported algorithm");
  const SigningKey* key = store.Find(dnskey);
  if (key == nullptr) return Error("zone: dnskey: unknown key identifier");
  const std::uint16_t key_tag = ComputeKeyTag(dnskey);
  const HmacSha256Key mac(key->secret);

  // Pass 1: every RRSIG, grouped by (owner, covered type). A group's RRSIGs
  // are chained through `next` in input order.
  struct Sig {
    const RrsigData* rrsig;
    std::uint32_t next;
  };
  struct Group {
    const Name* owner;
    RRType covered;
    std::uint32_t first;
    std::uint32_t last;
  };
  constexpr std::uint32_t kEnd = util::FlatHashIndex::kNpos;
  std::size_t sig_count = 0;
  for (const auto& s : rrsets) {
    if (s.type == RRType::kRRSIG) sig_count += s.rdatas.size();
  }
  std::vector<Sig> sigs;
  std::vector<Group> groups;
  sigs.reserve(sig_count);
  groups.reserve(sig_count);
  util::FlatHashIndex index;
  index.Reserve(sig_count);
  auto hash_of = [&groups](std::uint32_t g) {
    return OwnerTypeHash(*groups[g].owner, groups[g].covered);
  };
  auto find_group = [&](const Name& owner, RRType covered, std::uint64_t h) {
    return index.Find(h, [&](std::uint32_t g) {
      return groups[g].covered == covered && *groups[g].owner == owner;
    });
  };
  for (const auto& s : rrsets) {
    if (s.type != RRType::kRRSIG) continue;
    for (const auto& rd : s.rdatas) {
      const auto& rrsig = std::get<RrsigData>(rd);
      const auto id = static_cast<std::uint32_t>(sigs.size());
      sigs.push_back(Sig{&rrsig, kEnd});
      const std::uint64_t h = OwnerTypeHash(*s.name, rrsig.type_covered);
      const std::uint32_t g = find_group(*s.name, rrsig.type_covered, h);
      if (g == kEnd) {
        index.Insert(h, static_cast<std::uint32_t>(groups.size()), hash_of);
        groups.push_back(Group{s.name, rrsig.type_covered, id, id});
      } else {
        sigs[groups[g].last].next = id;
        groups[g].last = id;
      }
    }
  }

  // Pass 2: each RRset against its own group's RRSIGs by this key; any one
  // that verifies is enough.
  CanonicalWriter writer;
  std::size_t validated = 0;
  for (const auto& s : rrsets) {
    if (s.type == RRType::kRRSIG) continue;
    const std::uint32_t g =
        find_group(*s.name, s.type, OwnerTypeHash(*s.name, s.type));
    if (g == kEnd) return Error("zone: unsigned RRset " + RRsetLabel(s));
    std::optional<util::Status> failure;  // of the first RRSIG tried
    bool verified = false;
    for (std::uint32_t i = groups[g].first; i != kEnd && !verified;
         i = sigs[i].next) {
      const RrsigData& rrsig = *sigs[i].rrsig;
      if (rrsig.key_tag != key_tag || rrsig.algorithm != dnskey.algorithm)
        continue;
      util::Status status =
          CheckRrsigFields(s, rrsig, dnskey.algorithm, key_tag, now);
      if (status.ok()) status = CheckMac(s, rrsig, mac, writer);
      verified = status.ok();
      if (!verified && !failure) failure = std::move(status);
    }
    if (!verified) {
      return Error("zone: " + RRsetLabel(s) + ": " +
                   (failure ? failure->message()
                            : "no RRSIG by key tag " + std::to_string(key_tag)));
    }
    ++validated;
  }
  return validated;
}

util::Result<std::size_t> ValidateZoneRRsets(const std::vector<RRset>& rrsets,
                                             const DnskeyData& dnskey,
                                             const KeyStore& store,
                                             std::uint32_t now) {
  std::vector<RRsetView> views;
  views.reserve(rrsets.size());
  for (const auto& s : rrsets) views.push_back(RRsetView::Of(s));
  return ValidateZoneRRsets(views, dnskey, store, now);
}

}  // namespace rootless::crypto

namespace rootless::crypto {

std::vector<RRset> BuildNsecChain(const std::vector<RRset>& rrsets,
                                  const Name& apex, std::uint32_t ttl) {
  // Collect the distinct owner names in canonical order with their types.
  std::map<Name, std::vector<RRType>> owners;
  for (const auto& s : rrsets) {
    if (s.type == RRType::kRRSIG || s.type == RRType::kNSEC) continue;
    owners[s.name].push_back(s.type);
  }
  std::vector<RRset> chain;
  if (owners.empty()) return chain;
  // Make sure the apex participates even if it owns no plain records.
  owners.try_emplace(apex);

  for (auto it = owners.begin(); it != owners.end(); ++it) {
    auto next_it = std::next(it);
    const Name& next_owner =
        next_it == owners.end() ? owners.begin()->first : next_it->first;
    dns::NsecData nsec;
    nsec.next = next_owner;
    nsec.types = it->second;
    nsec.types.push_back(RRType::kNSEC);
    nsec.types.push_back(RRType::kRRSIG);
    std::sort(nsec.types.begin(), nsec.types.end());
    nsec.types.erase(std::unique(nsec.types.begin(), nsec.types.end()),
                     nsec.types.end());

    RRset set;
    set.name = it->first;
    set.type = RRType::kNSEC;
    set.ttl = ttl;
    set.rdatas.push_back(dns::Rdata(std::move(nsec)));
    chain.push_back(std::move(set));
  }
  return chain;
}

bool NsecCovers(const Name& nsec_owner, const dns::NsecData& nsec,
                const Name& qname, const Name& apex) {
  const bool after_owner = qname > nsec_owner;
  const bool wraps = nsec.next == apex || !(nsec_owner < nsec.next);
  if (wraps) {
    // Last NSEC in the chain: covers everything after the owner (and, for a
    // query below the apex, anything before the first owner).
    return after_owner || qname < nsec.next;
  }
  return after_owner && qname < nsec.next;
}

util::Status ValidateDenial(const Name& qname,
                            const std::vector<RRset>& authority,
                            const DnskeyData& dnskey, const KeyStore& store,
                            std::uint32_t now, const Name& apex) {
  const std::uint16_t key_tag = ComputeKeyTag(dnskey);
  for (const auto& s : authority) {
    if (s.type != RRType::kNSEC) continue;
    for (const auto& rd : s.rdatas) {
      const auto& nsec = std::get<dns::NsecData>(rd);
      if (!NsecCovers(s.name, nsec, qname, apex)) continue;
      // Found a covering NSEC; it must carry a valid signature.
      for (const auto& sig_set : authority) {
        if (sig_set.type != RRType::kRRSIG || !(sig_set.name == s.name))
          continue;
        for (const auto& sig_rd : sig_set.rdatas) {
          const auto& sig = std::get<dns::RrsigData>(sig_rd);
          // The RRSIG made by this key (RFC 4035 §5.3.1).
          if (sig.type_covered != RRType::kNSEC || sig.key_tag != key_tag ||
              sig.algorithm != dnskey.algorithm)
            continue;
          return VerifyRRset(s, sig, dnskey, store, now);
        }
      }
      return util::Error("denial: covering NSEC has no RRSIG");
    }
  }
  return util::Error("denial: no covering NSEC for " + qname.ToString());
}

}  // namespace rootless::crypto
