#include "dns/message.h"

#include <array>

#include "util/strings.h"

namespace rootless::dns {

using util::Error;
using util::Result;

namespace {

// Compression dictionary with zero heap use: the candidate set is the wire
// offsets where a name's encoding starts (every label position we have
// emitted), and matching compares the query suffix against the bytes already
// written — following compression pointers — instead of storing keys. The
// dictionary contents, first-match-wins order, and therefore the produced
// bytes are identical to a map keyed by flattened lowered suffixes; this
// form just never allocates, which keeps the zero-copy AnswerWire path at
// O(1) allocations per response.
class NameCompressor {
 public:
  void EncodeName(const Name& name, util::ByteWriter& w) {
    const auto flat = name.flat();
    std::size_t offset = 0;
    for (std::size_t i = 0; i < name.label_count(); ++i) {
      const std::size_t match = FindSuffix(w.span(), flat, offset);
      if (match != kNoMatch) {
        w.WriteU16(static_cast<std::uint16_t>(0xC000 | match));
        return;
      }
      if (w.size() <= 0x3FFF && count_ < kMaxStarts) {
        starts_[count_++] = static_cast<std::uint16_t>(w.size());
      }
      const std::size_t len = flat[offset];
      w.WriteBytes(flat.subspan(offset, 1 + len));
      offset += 1 + len;
    }
    w.WriteU8(0);
  }

 private:
  static constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);
  // More starts than any response holds; overflow just means later names
  // compress a little less (never triggered by DNS-sized messages).
  static constexpr std::size_t kMaxStarts = 192;

  // True iff the name encoded in `wire` at `at` equals the suffix of `flat`
  // beginning at `from` (label content ASCII case-insensitive). Encodings
  // still being written simply run out of bytes and fail the match.
  static bool WireMatches(std::span<const std::uint8_t> wire, std::size_t at,
                          std::span<const std::uint8_t> flat,
                          std::size_t from) {
    for (;;) {
      if (at >= wire.size()) return false;
      const std::uint8_t len = wire[at];
      if ((len & 0xC0) == 0xC0) {
        if (at + 1 >= wire.size()) return false;
        at = static_cast<std::size_t>(len & 0x3F) << 8 | wire[at + 1];
        continue;
      }
      if (len == 0) return from == flat.size();
      if (from >= flat.size() || flat[from] != len ||
          at + 1 + len > wire.size()) {
        return false;
      }
      for (std::size_t i = 0; i < len; ++i) {
        if (util::AsciiToLower(static_cast<char>(wire[at + 1 + i])) !=
            util::AsciiToLower(static_cast<char>(flat[from + 1 + i]))) {
          return false;
        }
      }
      at += 1 + len;
      from += 1 + len;
    }
  }

  std::size_t FindSuffix(std::span<const std::uint8_t> wire,
                         std::span<const std::uint8_t> flat,
                         std::size_t from) const {
    for (std::size_t k = 0; k < count_; ++k) {
      if (WireMatches(wire, starts_[k], flat, from)) return starts_[k];
    }
    return kNoMatch;
  }

  std::array<std::uint16_t, kMaxStarts> starts_;
  std::size_t count_ = 0;
};

void EncodeHeader(const Header& h, std::uint16_t qd, std::uint16_t an,
                  std::uint16_t ns, std::uint16_t ar, util::ByteWriter& w) {
  w.WriteU16(h.id);
  std::uint16_t flags = 0;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(h.opcode) & 0xF)
           << 11;
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint8_t>(h.rcode) & 0xF);
  w.WriteU16(flags);
  w.WriteU16(qd);
  w.WriteU16(an);
  w.WriteU16(ns);
  w.WriteU16(ar);
}

void EncodeRecord(const ResourceRecord& rr, NameCompressor& compressor,
                  util::ByteWriter& w) {
  compressor.EncodeName(rr.name, w);
  w.WriteU16(static_cast<std::uint16_t>(rr.type));
  w.WriteU16(static_cast<std::uint16_t>(rr.rrclass));
  w.WriteU32(rr.ttl);
  const std::size_t len_offset = w.size();
  w.WriteU16(0);  // placeholder RDLENGTH
  const std::size_t start = w.size();
  EncodeRdata(rr.rdata, w);
  w.PatchU16(len_offset, static_cast<std::uint16_t>(w.size() - start));
}

// Same wire bytes as EncodeRecord on the expanded ResourceRecord, but reads
// name/ttl/rdata straight out of borrowed storage.
void EncodeViewRecord(const RRsetView& set, const Rdata& rdata,
                      NameCompressor& compressor, util::ByteWriter& w) {
  compressor.EncodeName(*set.name, w);
  w.WriteU16(static_cast<std::uint16_t>(set.type));
  w.WriteU16(static_cast<std::uint16_t>(set.rrclass));
  w.WriteU32(set.ttl);
  const std::size_t len_offset = w.size();
  w.WriteU16(0);  // placeholder RDLENGTH
  const std::size_t start = w.size();
  EncodeRdata(rdata, w);
  w.PatchU16(len_offset, static_cast<std::uint16_t>(w.size() - start));
}

// Writes a response in one pass and truncates it by cutting the wire.
// Compression pointers only point backwards, so the encoding of the first k
// records is a byte prefix of the full encoding. Dropping whole records from
// the back (additional, then authority, then answers) until the datagram
// fits therefore equals cutting at the last record boundary that fits:
// records are added in wire order, the end of each one that fits is
// remembered, and the first one that does not ends the encode.
class TruncatingEncoder {
 public:
  TruncatingEncoder(const Header& header, const std::vector<Question>& qs,
                    std::size_t an, std::size_t ns, std::size_t ar,
                    std::size_t max_size)
      : max_size_(max_size) {
    w_.Reserve(max_size ? max_size : 512);
    Header h = header;
    h.tc = false;
    EncodeHeader(h, static_cast<std::uint16_t>(qs.size()),
                 static_cast<std::uint16_t>(an), static_cast<std::uint16_t>(ns),
                 static_cast<std::uint16_t>(ar), w_);
    for (const auto& q : qs) {
      compressor_.EncodeName(q.name, w_);
      w_.WriteU16(static_cast<std::uint16_t>(q.type));
      w_.WriteU16(static_cast<std::uint16_t>(q.rrclass));
    }
    fit_size_ = w_.size();
  }

  NameCompressor& compressor() { return compressor_; }
  util::ByteWriter& writer() { return w_; }

  // Closes the record just written into `section` (0 = answer, 1 =
  // authority, 2 = additional). Returns false once the message overflows
  // max_size; the caller then stops adding records.
  bool EndRecord(std::size_t section) {
    if (max_size_ != 0 && w_.size() > max_size_) {
      overflow_ = true;
      return false;
    }
    ++fit_[section];
    fit_size_ = w_.size();
    return true;
  }

  // Only a record can overflow: a message without records is returned
  // whole, even when its header and questions alone exceed max_size.
  util::Bytes Finish() {
    if (!overflow_) return w_.TakeData();
    util::Bytes wire = w_.TakeData();
    wire.resize(fit_size_);
    wire[2] |= 0x02;  // TC
    for (std::size_t s = 0; s < 3; ++s) {
      wire[6 + 2 * s] = static_cast<std::uint8_t>(fit_[s] >> 8);
      wire[7 + 2 * s] = static_cast<std::uint8_t>(fit_[s]);
    }
    return wire;
  }

 private:
  util::ByteWriter w_;
  NameCompressor compressor_;
  std::size_t max_size_;
  std::size_t fit_size_ = 0;
  std::size_t fit_[3] = {0, 0, 0};
  bool overflow_ = false;
};

std::size_t SectionRecordCount(const std::vector<RRsetView>& sets) {
  std::size_t n = 0;
  for (const auto& set : sets) n += set.size();
  return n;
}

}  // namespace

std::size_t Message::WireSize() const { return EncodeMessage(*this).size(); }

util::Bytes EncodeMessage(const Message& m, std::size_t max_size) {
  TruncatingEncoder enc(m.header, m.questions, m.answers.size(),
                        m.authority.size(), m.additional.size(), max_size);
  const std::vector<ResourceRecord>* sections[] = {&m.answers, &m.authority,
                                                   &m.additional};
  for (std::size_t s = 0; s < 3; ++s) {
    for (const auto& rr : *sections[s]) {
      EncodeRecord(rr, enc.compressor(), enc.writer());
      if (!enc.EndRecord(s)) return enc.Finish();
    }
  }
  return enc.Finish();
}

util::Bytes EncodeMessage(const MessageView& m, std::size_t max_size) {
  // Each view expands to one record per rdata, in rdata order.
  TruncatingEncoder enc(m.header, m.questions, SectionRecordCount(m.answers),
                        SectionRecordCount(m.authority),
                        SectionRecordCount(m.additional), max_size);
  const std::vector<RRsetView>* sections[] = {&m.answers, &m.authority,
                                              &m.additional};
  for (std::size_t s = 0; s < 3; ++s) {
    for (const auto& set : *sections[s]) {
      for (const auto& rd : set.rdatas) {
        EncodeViewRecord(set, rd, enc.compressor(), enc.writer());
        if (!enc.EndRecord(s)) return enc.Finish();
      }
    }
  }
  return enc.Finish();
}

Result<Message> DecodeMessage(std::span<const std::uint8_t> wire) {
  util::ByteReader r(wire);
  Message m;
  std::uint16_t flags = 0, qd = 0, an = 0, ns = 0, ar = 0;
  if (!r.ReadU16(m.header.id) || !r.ReadU16(flags) || !r.ReadU16(qd) ||
      !r.ReadU16(an) || !r.ReadU16(ns) || !r.ReadU16(ar))
    return Error(ErrorCode::kTruncated, "message: truncated header");
  m.header.qr = flags & 0x8000;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  m.header.aa = flags & 0x0400;
  m.header.tc = flags & 0x0200;
  m.header.rd = flags & 0x0100;
  m.header.ra = flags & 0x0080;
  m.header.rcode = static_cast<RCode>(flags & 0xF);

  for (int i = 0; i < qd; ++i) {
    Question q;
    auto name = Name::DecodeWire(r);
    if (!name.ok()) return name.error();
    q.name = std::move(*name);
    std::uint16_t type = 0, cls = 0;
    if (!r.ReadU16(type) || !r.ReadU16(cls))
      return Error(ErrorCode::kTruncated, "message: truncated question");
    q.type = static_cast<RRType>(type);
    q.rrclass = static_cast<RRClass>(cls);
    m.questions.push_back(std::move(q));
  }

  auto read_records = [&](int count,
                          std::vector<ResourceRecord>& out) -> util::Status {
    for (int i = 0; i < count; ++i) {
      ResourceRecord rr;
      auto name = Name::DecodeWire(r);
      if (!name.ok()) return name.error();
      rr.name = std::move(*name);
      std::uint16_t type = 0, cls = 0, rdlength = 0;
      if (!r.ReadU16(type) || !r.ReadU16(cls) || !r.ReadU32(rr.ttl) ||
          !r.ReadU16(rdlength))
        return Error(ErrorCode::kTruncated, "message: truncated record header");
      rr.type = static_cast<RRType>(type);
      rr.rrclass = static_cast<RRClass>(cls);
      auto rdata = DecodeRdata(rr.type, rdlength, r);
      if (!rdata.ok()) return rdata.error();
      rr.rdata = std::move(*rdata);
      out.push_back(std::move(rr));
    }
    return util::Status::Ok();
  };

  ROOTLESS_RETURN_IF_ERROR(read_records(an, m.answers));
  ROOTLESS_RETURN_IF_ERROR(read_records(ns, m.authority));
  ROOTLESS_RETURN_IF_ERROR(read_records(ar, m.additional));

  if (!r.at_end()) return Error(ErrorCode::kCorrupted, "message: trailing bytes");
  return m;
}

Message MakeQuery(std::uint16_t id, const Name& name, RRType type,
                  bool recursion_desired) {
  Message m;
  m.header.id = id;
  m.header.rd = recursion_desired;
  m.questions.push_back(Question{name, type, RRClass::kIN});
  return m;
}

Message MakeResponse(const Message& query, RCode rcode) {
  Message m;
  m.header = query.header;
  m.header.qr = true;
  m.header.ra = false;
  m.header.rcode = rcode;
  m.questions = query.questions;
  return m;
}

}  // namespace rootless::dns
