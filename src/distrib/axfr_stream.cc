#include "distrib/axfr_stream.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace rootless::distrib {

using util::Error;

std::vector<util::Bytes> BuildAxfrStream(const zone::ZoneSnapshot& snapshot,
                                         const dns::Message& query,
                                         std::size_t records_per_message) {
  if (records_per_message == 0) records_per_message = 1;
  auto soa = snapshot.soa();
  if (!soa || soa->rdatas.empty()) return {};
  soa->rdatas = soa->rdatas.first(1);

  std::vector<util::Bytes> out;
  dns::MessageView msg;
  msg.header.id = query.header.id;
  msg.header.qr = true;
  msg.header.aa = true;
  msg.questions = query.questions;  // echoed in the first message only
  std::size_t pending = 0;          // records in `msg`
  // Appends a set's records, cutting it where a message fills up.
  const auto append = [&](dns::RRsetView set) {
    while (!set.rdatas.empty()) {
      const std::size_t take =
          std::min(set.rdatas.size(), records_per_message - pending);
      dns::RRsetView part = set;
      part.rdatas = set.rdatas.first(take);
      msg.answers.push_back(part);
      set.rdatas = set.rdatas.subspan(take);
      pending += take;
      if (pending == records_per_message) {
        out.push_back(dns::EncodeMessage(msg));
        msg.clear();
        pending = 0;
      }
    }
  };

  // SOA, every non-SOA record in canonical order, SOA again.
  append(*soa);
  snapshot.ForEachRRset([&](const dns::RRsetView& set) {
    if (set.type != dns::RRType::kSOA) append(set);
  });
  append(*soa);
  if (pending > 0) out.push_back(dns::EncodeMessage(msg));
  return out;
}

util::Result<std::size_t> AppendAxfrFrame(
    std::span<const std::uint8_t> frame,
    std::vector<dns::ResourceRecord>& records) {
  auto msg = dns::DecodeMessage(frame);
  if (!msg.ok()) return msg.error();
  if (msg->header.rcode != dns::RCode::kNoError) {
    return Error(ErrorCode::kProtocol,
                 "axfr: server answered " +
                     dns::RCodeToString(msg->header.rcode));
  }
  std::size_t soas = 0;
  for (auto& rr : msg->answers) {
    if (rr.type == dns::RRType::kSOA) ++soas;
    records.push_back(std::move(rr));
  }
  return soas;
}

util::Result<zone::SnapshotPtr> AssembleAxfrStream(
    std::vector<dns::ResourceRecord> records) {
  if (records.size() < 2) {
    return Error(ErrorCode::kProtocol, "axfr: stream too short");
  }
  const dns::ResourceRecord& open = records.front();
  const dns::ResourceRecord& close = records.back();
  if (open.type != dns::RRType::kSOA || close.type != dns::RRType::kSOA) {
    return Error(ErrorCode::kProtocol, "axfr: stream not SOA-bracketed");
  }
  if (!(open == close)) {
    return Error(ErrorCode::kProtocol, "axfr: SOA bracket mismatch");
  }
  records.pop_back();

  // The stream opens with the SOA, ahead of the apex types that sort below
  // it (NS). Moving it to its canonical slot leaves an in-order transfer in
  // order, so the builder has nothing to sort.
  const auto key_of = [](const dns::ResourceRecord& rr) {
    return std::tie(rr.name, rr.type, rr.rrclass);
  };
  auto slot = records.begin() + 1;
  while (slot != records.end() && key_of(*slot) < key_of(records.front())) {
    ++slot;
  }
  std::rotate(records.begin(), records.begin() + 1, slot);

  zone::ZoneSnapshot::Builder builder((slot - 1)->name);
  for (auto& rr : records) {
    auto status = builder.Add(std::move(rr));
    if (!status.ok()) {
      return Error(ErrorCode::kProtocol,
                   "axfr: bad record: " + status.message());
    }
  }
  return std::move(builder).Finish();
}

}  // namespace rootless::distrib
