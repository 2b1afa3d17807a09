// Producing a fully signed root zone: DNSKEY at the apex, an NSEC chain for
// authenticated denial, and RRSIGs over every RRset — the artifact the
// paper's proposal distributes ("the entire root zone file could be
// cryptographically signed such that it can be validated quickly").
#pragma once

#include "crypto/dnssec.h"
#include "zone/zone.h"
#include "zone/zone_snapshot.h"

namespace rootless::zone {

struct SigningWindow {
  std::uint32_t inception = 0;
  std::uint32_t expiration = 0xFFFFFFFF;
};

// Returns a new zone containing everything in `plain` plus the apex DNSKEY,
// the NSEC chain, and RRSIGs signed with `zsk`.
Zone SignZone(const Zone& plain, const crypto::SigningKey& zsk,
              const SigningWindow& window);

// Validates a signed zone produced by SignZone: every RRset signed and
// verifiable. Returns validated RRset count. Both forms validate borrowed
// views of the zone's RRsets in place (crypto::ValidateZoneRRsets); neither
// copies the zone.
util::Result<std::size_t> ValidateSignedZone(const Zone& signed_zone,
                                             const dns::DnskeyData& dnskey,
                                             const crypto::KeyStore& store,
                                             std::uint32_t now);
util::Result<std::size_t> ValidateSignedZone(const ZoneSnapshot& signed_zone,
                                             const dns::DnskeyData& dnskey,
                                             const crypto::KeyStore& store,
                                             std::uint32_t now);

}  // namespace rootless::zone
