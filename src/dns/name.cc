#include "dns/name.h"

#include <algorithm>

#include "util/simd.h"
#include "util/strings.h"

namespace rootless::dns {

using util::Error;
using util::Result;

namespace {

constexpr std::size_t kMaxLabelLength = 63;
constexpr std::size_t kMaxLabels = 127;  // 254 flat bytes / 2 minimum each

// Scratch space for building a flattened name on the stack before the final
// (possibly inline) buffer is adopted.
struct FlatBuilder {
  std::uint8_t bytes[Name::kMaxFlatBytes];
  std::size_t size = 0;
  std::size_t labels = 0;

  // Appends one label; false if it would exceed the name/label limits.
  bool Append(const char* data, std::size_t len) {
    if (len == 0 || len > kMaxLabelLength) return false;
    if (size + 1 + len > Name::kMaxFlatBytes) return false;
    bytes[size++] = static_cast<std::uint8_t>(len);
    std::memcpy(bytes + size, data, len);
    size += len;
    ++labels;
    return true;
  }
};

}  // namespace

Result<Name> Name::FromLabels(std::vector<std::string> labels) {
  FlatBuilder b;
  for (const auto& l : labels) {
    if (l.empty()) return Error("name: empty label");
    if (l.size() > kMaxLabelLength) return Error("name: label too long");
    if (!b.Append(l.data(), l.size())) return Error("name: name too long");
  }
  return Name(b.bytes, b.size, b.labels);
}

Result<Name> Name::Parse(std::string_view text) {
  if (text.empty() || text == ".") return Name();
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return Error("name: consecutive dots");

  FlatBuilder b;
  char current[kMaxLabelLength];
  std::size_t current_len = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '.') {
      if (current_len == 0) return Error("name: empty label");
      if (!b.Append(current, current_len)) return Error("name: name too long");
      current_len = 0;
      continue;
    }
    char decoded = c;
    if (c == '\\') {
      if (i + 1 >= text.size()) return Error("name: dangling escape");
      const char next = text[i + 1];
      if (next >= '0' && next <= '9') {
        if (i + 3 >= text.size()) return Error("name: truncated \\DDD escape");
        int value = 0;
        for (int k = 1; k <= 3; ++k) {
          const char d = text[i + k];
          if (d < '0' || d > '9') return Error("name: bad \\DDD escape");
          value = value * 10 + (d - '0');
        }
        if (value > 255) return Error("name: \\DDD escape out of range");
        decoded = static_cast<char>(value);
        i += 3;
      } else {
        decoded = next;
        i += 1;
      }
    }
    if (current_len >= kMaxLabelLength) return Error("name: label too long");
    current[current_len++] = decoded;
  }
  if (current_len == 0) return Error("name: empty label");
  if (!b.Append(current, current_len)) return Error("name: name too long");
  return Name(b.bytes, b.size, b.labels);
}

Result<Name> Name::DecodeWire(util::ByteReader& reader) {
  FlatBuilder b;
  // After following the first pointer the reader's final position is fixed.
  bool followed_pointer = false;
  std::size_t resume_offset = 0;
  std::size_t position = reader.offset();
  // Pointers must point strictly backwards, so each hop decreases `position`
  // and the loop terminates.
  for (;;) {
    std::uint8_t len = 0;
    if (!reader.PeekAt(position, len)) return Error(ErrorCode::kTruncated, "name: truncated");
    if ((len & 0xC0) == 0xC0) {
      std::uint8_t low = 0;
      if (!reader.PeekAt(position + 1, low)) return Error(ErrorCode::kTruncated, "name: truncated pointer");
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | low;
      if (target >= position) return Error(ErrorCode::kCorrupted, "name: forward compression pointer");
      if (!followed_pointer) {
        followed_pointer = true;
        resume_offset = position + 2;
      }
      position = target;
      continue;
    }
    if ((len & 0xC0) != 0) return Error(ErrorCode::kCorrupted, "name: reserved label type");
    if (len == 0) {
      position += 1;
      break;
    }
    if (b.size + 1 + len > kMaxFlatBytes)
      return Error(ErrorCode::kCorrupted, "name: name too long");
    if (b.labels >= kMaxLabels)
      return Error(ErrorCode::kCorrupted, "name: name too long");
    b.bytes[b.size] = len;
    for (std::size_t i = 0; i < len; ++i) {
      std::uint8_t byte = 0;
      if (!reader.PeekAt(position + 1 + i, byte))
        return Error(ErrorCode::kTruncated, "name: truncated label");
      b.bytes[b.size + 1 + i] = byte;
    }
    b.size += 1 + len;
    ++b.labels;
    position += 1 + len;
  }
  const std::size_t end = followed_pointer ? resume_offset : position;
  if (!reader.Seek(end)) return Error(ErrorCode::kCorrupted, "name: seek failed");
  return Name(b.bytes, b.size, b.labels);
}

void Name::EncodeWire(util::ByteWriter& writer) const {
  writer.WriteBytes(flat());
  writer.WriteU8(0);
}

void Name::EncodeCanonicalWire(util::ByteWriter& writer) const {
  std::uint8_t folded[kMaxFlatBytes + 1];
  // Length octets are <= 63 and thus outside 'A'..'Z': folding the whole
  // buffer blindly is safe.
  util::simd::FoldCopy(folded, data(), size_);
  folded[size_] = 0;
  writer.WriteBytes(std::span<const std::uint8_t>(folded, size_ + 1));
}

util::Bytes Name::CanonicalWire() const {
  util::ByteWriter writer;
  writer.Reserve(wire_length());
  EncodeCanonicalWire(writer);
  return writer.TakeData();
}

std::size_t Name::LabelOffsets(std::uint8_t* offsets) const {
  const std::uint8_t* p = data();
  std::size_t offset = 0;
  for (std::size_t i = 0; i < label_count_; ++i) {
    offsets[i] = static_cast<std::uint8_t>(offset);
    offset += 1 + p[offset];
  }
  return label_count_;
}

std::string_view Name::label(std::size_t i) const {
  const std::uint8_t* p = data();
  std::size_t offset = 0;
  for (std::size_t skipped = 0; skipped < i; ++skipped) {
    offset += 1 + p[offset];
  }
  return {reinterpret_cast<const char*>(p + offset + 1), p[offset]};
}

std::vector<std::string_view> Name::labels() const {
  std::vector<std::string_view> out;
  out.reserve(label_count_);
  const std::uint8_t* p = data();
  std::size_t offset = 0;
  for (std::size_t i = 0; i < label_count_; ++i) {
    out.emplace_back(reinterpret_cast<const char*>(p + offset + 1),
                     p[offset]);
    offset += 1 + p[offset];
  }
  return out;
}

std::string_view Name::tld_view() const {
  if (label_count_ == 0) return {};
  return label(label_count_ - 1);
}

std::string Name::tld() const { return util::ToLower(tld_view()); }

Name Name::Parent() const {
  const std::uint8_t* p = data();
  const std::size_t skip = 1 + std::size_t{p[0]};
  return Name(p + skip, size_ - skip, label_count_ - std::size_t{1});
}

Name Name::Suffix(std::size_t n) const {
  if (n >= label_count_) return *this;
  const std::uint8_t* p = data();
  std::size_t offset = 0;
  for (std::size_t skipped = label_count_ - n; skipped > 0; --skipped) {
    offset += 1 + p[offset];
  }
  return Name(p + offset, size_ - offset, n);
}

NameView Name::SuffixView(std::size_t n) const {
  if (n >= label_count_) return NameView(*this);
  const std::uint8_t* p = data();
  std::size_t offset = 0;
  for (std::size_t skipped = label_count_ - n; skipped > 0; --skipped) {
    offset += 1 + p[offset];
  }
  return NameView(p + offset, size_ - offset, n);
}

std::size_t NameView::Hash() const {
  // Shared definition (util::simd::NameHash) with Name::ComputeHash, so a
  // view probe lands on the same hash bucket as the owning entry.
  return static_cast<std::size_t>(util::simd::NameHash(data_, size_));
}

bool operator==(const Name& a, const NameView& b) {
  if (a.size_ != b.size_ || a.label_count_ != b.label_count_) return false;
  return util::simd::EqualFold(a.data(), b.data_, a.size_);
}

Result<Name> Name::Concat(const Name& suffix) const {
  const std::size_t total = size_ + std::size_t{suffix.size_};
  if (total > kMaxFlatBytes) return Error("name: name too long");
  std::uint8_t combined[kMaxFlatBytes];
  std::memcpy(combined, data(), size_);
  std::memcpy(combined + size_, suffix.data(), suffix.size_);
  return Name(combined, total,
              label_count_ + std::size_t{suffix.label_count_});
}

bool Name::IsSubdomainOf(const Name& other) const {
  if (other.label_count_ > label_count_) return false;
  if (other.label_count_ == 0) return true;
  // Align at a label boundary: skip our leading labels, then compare the
  // remaining byte run case-insensitively (length octets are < 'A' so the
  // blind fold below never corrupts them).
  const std::uint8_t* p = data();
  std::size_t offset = 0;
  for (std::size_t skip = label_count_ - other.label_count_; skip > 0;
       --skip) {
    offset += 1 + p[offset];
  }
  if (size_ - offset != other.size_) return false;
  return util::simd::EqualFold(p + offset, other.data(), other.size_);
}

bool Name::operator==(const Name& other) const {
  if (size_ != other.size_ || label_count_ != other.label_count_)
    return false;
  const std::uint64_t ha = hash_.load(std::memory_order_relaxed);
  const std::uint64_t hb = other.hash_.load(std::memory_order_relaxed);
  if (ha != 0 && hb != 0 && ha != hb) return false;
  return util::simd::EqualFold(data(), other.data(), size_);
}

std::weak_ordering Name::operator<=>(const Name& other) const {
  // RFC 4034 §6.1: compare label sequences right to left.
  std::uint8_t my_offsets[kMaxLabels];
  std::uint8_t their_offsets[kMaxLabels];
  LabelOffsets(my_offsets);
  other.LabelOffsets(their_offsets);
  const std::uint8_t* a = data();
  const std::uint8_t* b = other.data();
  const std::size_t common = std::min<std::size_t>(label_count_,
                                                   other.label_count_);
  for (std::size_t k = 1; k <= common; ++k) {
    const std::uint8_t* la = a + my_offsets[label_count_ - k];
    const std::uint8_t* lb = b + their_offsets[other.label_count_ - k];
    const std::size_t n = std::min<std::size_t>(la[0], lb[0]);
    for (std::size_t i = 0; i < n; ++i) {
      const auto ca = static_cast<unsigned char>(
          util::AsciiToLower(static_cast<char>(la[1 + i])));
      const auto cb = static_cast<unsigned char>(
          util::AsciiToLower(static_cast<char>(lb[1 + i])));
      if (ca != cb) return ca <=> cb;
    }
    if (la[0] != lb[0]) return la[0] <=> lb[0];
  }
  return label_count_ <=> other.label_count_;
}

std::string Name::ToString() const {
  if (label_count_ == 0) return ".";
  std::string out;
  out.reserve(size_);
  const std::uint8_t* p = data();
  std::size_t offset = 0;
  for (std::size_t l = 0; l < label_count_; ++l) {
    const std::size_t len = p[offset];
    for (std::size_t i = 0; i < len; ++i) {
      const char c = static_cast<char>(p[offset + 1 + i]);
      if (c == '.' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x21 ||
                 static_cast<unsigned char>(c) > 0x7E) {
        const auto b = static_cast<unsigned char>(c);
        out.push_back('\\');
        out.push_back(static_cast<char>('0' + b / 100));
        out.push_back(static_cast<char>('0' + b / 10 % 10));
        out.push_back(static_cast<char>('0' + b % 10));
      } else {
        out.push_back(c);
      }
    }
    out.push_back('.');
    offset += 1 + len;
  }
  return out;
}

std::uint64_t Name::ComputeHash() const {
  // Case-folded wide hash over the flattened buffer (length octets included,
  // so sibling label sequences like (a)(bc) vs (ab)(c) hash apart), with the
  // 0 -> 1 remap: 0 means "not yet computed" in the cache slot. The shared
  // definition lives in util::simd::NameHash — backends (SSE2/NEON/scalar)
  // and raw-wire probes all produce identical values.
  return util::simd::NameHash(data(), size_);
}

}  // namespace rootless::dns
