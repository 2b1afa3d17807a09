#include "zone/sign.h"

namespace rootless::zone {

Zone SignZone(const Zone& plain, const crypto::SigningKey& zsk,
              const SigningWindow& window) {
  std::vector<dns::RRset> rrsets = plain.AllRRsets();

  // Apex DNSKEY.
  dns::RRset dnskey_set;
  dnskey_set.name = plain.apex();
  dnskey_set.type = dns::RRType::kDNSKEY;
  dnskey_set.ttl = 172800;
  dnskey_set.rdatas.push_back(dns::Rdata(zsk.dnskey));
  rrsets.push_back(std::move(dnskey_set));

  // NSEC chain, then signatures over everything.
  auto chain = crypto::BuildNsecChain(rrsets, plain.apex(), 86400);
  rrsets.insert(rrsets.end(), chain.begin(), chain.end());
  const auto signed_rrsets = crypto::SignZoneRRsets(
      rrsets, zsk, plain.apex(), window.inception, window.expiration);

  Zone out(plain.apex());
  for (const auto& rrset : signed_rrsets) {
    // By construction all owners are in-zone; AddRRset cannot fail here.
    (void)out.AddRRset(rrset);
  }
  return out;
}

util::Result<std::size_t> ValidateSignedZone(const Zone& signed_zone,
                                             const dns::DnskeyData& dnskey,
                                             const crypto::KeyStore& store,
                                             std::uint32_t now) {
  std::vector<dns::RRsetView> views;
  views.reserve(signed_zone.rrset_count());
  for (const auto& [key, rrset] : signed_zone.rrset_map()) {
    views.push_back(dns::RRsetView::Of(rrset));
  }
  return crypto::ValidateZoneRRsets(views, dnskey, store, now);
}

util::Result<std::size_t> ValidateSignedZone(const ZoneSnapshot& signed_zone,
                                             const dns::DnskeyData& dnskey,
                                             const crypto::KeyStore& store,
                                             std::uint32_t now) {
  std::vector<dns::RRsetView> views;
  views.reserve(signed_zone.rrset_count());
  signed_zone.ForEachRRset(
      [&views](const dns::RRsetView& view) { views.push_back(view); });
  return crypto::ValidateZoneRRsets(views, dnskey, store, now);
}

}  // namespace rootless::zone
