// SHA-256 (FIPS 180-4), implemented from scratch — used by DS digests, the
// whole-zone digest, the keyed signature scheme, and the rsync strong hash.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace rootless::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  Sha256& Update(std::span<const std::uint8_t> data);
  Sha256& Update(std::string_view data);

  // Finalizes and returns the digest. The object must not be reused after;
  // copy it first to keep a midstate (HmacSha256Key does).
  Digest256 Finish();

  static Digest256 Hash(std::span<const std::uint8_t> data);
  static Digest256 Hash(std::string_view data);

 private:
  void ProcessBlock(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// HMAC-SHA256 (RFC 2104) with the key schedule done once: holds the
// SHA-256 midstates after the ipad and opad blocks, so each Mac() costs only
// the message blocks plus two finishing blocks. Build one per key and reuse
// it for every message signed or verified under that key.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::span<const std::uint8_t> key);

  Digest256 Mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

// One-shot HMAC-SHA256 (RFC 2104).
Digest256 HmacSha256(std::span<const std::uint8_t> key,
                     std::span<const std::uint8_t> message);

}  // namespace rootless::crypto
