// Bounds-checked byte-stream reader/writer used by every wire format in the
// library (DNS messages, zone snapshots, rsync deltas, RZC compression).
//
// Readers never throw on malformed input: every accessor reports failure via
// Result<> / bool so protocol parsers can treat truncation as data.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace rootless::util {

using Bytes = std::vector<std::uint8_t>;

// Sequential reader over a borrowed byte span. The span must outlive the
// reader (I.13: it is a non-owning view).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data, size) {}

  std::size_t offset() const { return offset_; }
  std::size_t size() const { return data_.size(); }
  std::size_t remaining() const { return data_.size() - offset_; }
  bool at_end() const { return offset_ == data_.size(); }

  // Repositions the cursor; fails if past the end.
  bool Seek(std::size_t offset) {
    if (offset > data_.size()) return false;
    offset_ = offset;
    return true;
  }

  bool Skip(std::size_t n) {
    if (n > remaining()) return false;
    offset_ += n;
    return true;
  }

  bool ReadU8(std::uint8_t& out) {
    if (remaining() < 1) return false;
    out = data_[offset_++];
    return true;
  }

  bool ReadU16(std::uint16_t& out) {  // big-endian (network order)
    if (remaining() < 2) return false;
    out = static_cast<std::uint16_t>(data_[offset_] << 8 | data_[offset_ + 1]);
    offset_ += 2;
    return true;
  }

  bool ReadU32(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = static_cast<std::uint32_t>(data_[offset_]) << 24 |
          static_cast<std::uint32_t>(data_[offset_ + 1]) << 16 |
          static_cast<std::uint32_t>(data_[offset_ + 2]) << 8 |
          static_cast<std::uint32_t>(data_[offset_ + 3]);
    offset_ += 4;
    return true;
  }

  bool ReadU64(std::uint64_t& out) {
    std::uint32_t hi = 0, lo = 0;
    if (!ReadU32(hi) || !ReadU32(lo)) return false;
    out = (static_cast<std::uint64_t>(hi) << 32) | lo;
    return true;
  }

  // LEB128-style unsigned varint (used by RZC and snapshot formats).
  bool ReadVarint(std::uint64_t& out) {
    out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      std::uint8_t byte = 0;
      if (!ReadU8(byte)) return false;
      out |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return true;
    }
    return false;  // overlong encoding
  }

  // Returns a view of the next n bytes without copying.
  bool ReadSpan(std::size_t n, std::span<const std::uint8_t>& out) {
    if (n > remaining()) return false;
    out = data_.subspan(offset_, n);
    offset_ += n;
    return true;
  }

  bool ReadBytes(std::size_t n, Bytes& out) {
    std::span<const std::uint8_t> view;
    if (!ReadSpan(n, view)) return false;
    out.assign(view.begin(), view.end());
    return true;
  }

  bool ReadString(std::size_t n, std::string& out) {
    std::span<const std::uint8_t> view;
    if (!ReadSpan(n, view)) return false;
    out.assign(reinterpret_cast<const char*>(view.data()), view.size());
    return true;
  }

  // Peek a byte at an absolute offset (used by DNS name decompression).
  bool PeekAt(std::size_t offset, std::uint8_t& out) const {
    if (offset >= data_.size()) return false;
    out = data_[offset];
    return true;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

// Append-only writer producing an owned buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  std::size_t size() const { return data_.size(); }
  const Bytes& data() const& { return data_; }
  Bytes&& TakeData() { return std::move(data_); }
  void Reserve(std::size_t n) { data_.reserve(n); }
  // Empties the buffer, keeping its capacity for reuse.
  void Clear() { data_.clear(); }
  std::span<const std::uint8_t> span() const { return data_; }

  void WriteU8(std::uint8_t v) { data_.push_back(v); }

  void WriteU16(std::uint16_t v) {
    data_.push_back(static_cast<std::uint8_t>(v >> 8));
    data_.push_back(static_cast<std::uint8_t>(v));
  }

  void WriteU32(std::uint32_t v) {
    WriteU16(static_cast<std::uint16_t>(v >> 16));
    WriteU16(static_cast<std::uint16_t>(v));
  }

  void WriteU64(std::uint64_t v) {
    WriteU32(static_cast<std::uint32_t>(v >> 32));
    WriteU32(static_cast<std::uint32_t>(v));
  }

  void WriteVarint(std::uint64_t v) {
    while (v >= 0x80) {
      data_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    data_.push_back(static_cast<std::uint8_t>(v));
  }

  void WriteBytes(std::span<const std::uint8_t> bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }

  void WriteString(std::string_view s) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    data_.insert(data_.end(), p, p + s.size());
  }

  // Patch a previously written big-endian u16 (e.g. RDLENGTH back-fill).
  void PatchU16(std::size_t offset, std::uint16_t v) {
    data_.at(offset) = static_cast<std::uint8_t>(v >> 8);
    data_.at(offset + 1) = static_cast<std::uint8_t>(v);
  }

 private:
  Bytes data_;
};

}  // namespace rootless::util
