#include "rootsrv/pipeline.h"

#include <algorithm>
#include <cstring>

namespace rootless::rootsrv {

using zone::LookupDisposition;

namespace {

// TCP DNS messages are bounded by the 2-byte length prefix, not EDNS.
constexpr std::size_t kMaxTcpMessage = 0xFFFF;

}  // namespace

void AuthCounters::Register(obs::Registry& reg) {
  const obs::Labels labels{reg.NextInstance("rootsrv.auth"), "", ""};
  queries = reg.counter("rootsrv.auth.queries", labels);
  answers = reg.counter("rootsrv.auth.answers", labels);
  referrals = reg.counter("rootsrv.auth.referrals", labels);
  nxdomain = reg.counter("rootsrv.auth.nxdomain", labels);
  nodata = reg.counter("rootsrv.auth.nodata", labels);
  refused = reg.counter("rootsrv.auth.refused", labels);
  malformed = reg.counter("rootsrv.auth.malformed", labels);
  truncated = reg.counter("rootsrv.auth.truncated", labels);
  edns_queries = reg.counter("rootsrv.auth.edns_queries", labels);
  cache_hits = reg.counter("rootsrv.auth.cache_hits", labels);
  bytes_in = reg.counter("rootsrv.auth.bytes_in", labels);
  bytes_out = reg.counter("rootsrv.auth.bytes_out", labels);
}

void PipelineCounters::Register(obs::Registry& reg) {
  const obs::Labels labels{reg.NextInstance("rootsrv.pipeline"), "", ""};
  screen_diverted = reg.counter("rootsrv.pipeline.screen_diverted", labels);
  rrl_checked = reg.counter("rootsrv.pipeline.rrl_checked", labels);
  rrl_dropped = reg.counter("rootsrv.pipeline.rrl_dropped", labels);
  rrl_slipped = reg.counter("rootsrv.pipeline.rrl_slipped", labels);
  cache_probes = reg.counter("rootsrv.pipeline.cache_probes", labels);
  cache_insertions = reg.counter("rootsrv.pipeline.cache_insertions", labels);
  cache_evictions = reg.counter("rootsrv.pipeline.cache_evictions", labels);
  snapshot_answers = reg.counter("rootsrv.pipeline.snapshot_answers", labels);
}

void CountDisposition(AuthCounters& c, LookupDisposition disposition) {
  switch (disposition) {
    case LookupDisposition::kAnswer:
      c.answers.Inc();
      break;
    case LookupDisposition::kReferral:
      c.referrals.Inc();
      break;
    case LookupDisposition::kNoData:
      c.nodata.Inc();
      break;
    case LookupDisposition::kNxDomain:
      c.nxdomain.Inc();
      break;
    case LookupDisposition::kOutOfZone:
      c.refused.Inc();
      break;
  }
}

StageVerdict ScreenStage::Admit(QueryContext& ctx) {
  const dns::Message& query = *ctx.query;

  // EDNS0 (RFC 6891): the OPT pseudo-record's CLASS field carries the
  // requestor's maximum UDP payload size.
  int opt_count = 0;
  std::size_t requestor_payload = 0;
  for (const auto& rr : query.additional) {
    if (rr.type == dns::RRType::kOPT) {
      ++opt_count;
      requestor_payload = static_cast<std::uint16_t>(rr.rrclass);
    }
  }
  if (opt_count > 0) c_.edns_queries.Inc();
  const EdnsLimits limits = ApplyEdns(edns_, opt_count > 0, requestor_payload);
  ctx.payload_limit = limits.payload_limit;
  ctx.echo_opt = limits.echo_opt;
  if (ctx.channel == Channel::kTcp) ctx.payload_limit = kMaxTcpMessage;

  const auto divert = [&](dns::RCode rcode) {
    ctx.screened = true;
    ctx.screen_rcode = rcode;
    pc_.screen_diverted.Inc();
    return StageVerdict::kRespond;
  };
  // More than one OPT is a protocol violation (RFC 6891 §6.1.1).
  if (query.questions.size() != 1 || opt_count > 1) {
    c_.malformed.Inc();
    return divert(dns::RCode::kFormErr);
  }
  if (query.header.opcode != dns::Opcode::kQuery) {
    c_.refused.Inc();
    return divert(dns::RCode::kNotImp);
  }
  const dns::Question& q = query.questions.front();
  if (q.rrclass != dns::RRClass::kIN) {
    c_.refused.Inc();
    return divert(dns::RCode::kRefused);
  }
  // Zone transfers only over TCP (and only via the AXFR front-end glue).
  if (q.type == dns::RRType::kAXFR && ctx.channel == Channel::kUdp) {
    c_.refused.Inc();
    return divert(dns::RCode::kRefused);
  }
  return StageVerdict::kPass;
}

StageVerdict RateLimitStage::Admit(QueryContext& ctx) {
  // TCP queries already proved their source address; unattributed queries
  // (AnswerWire, detached tests) have no client to charge.
  if (limiter_ == nullptr || ctx.channel != Channel::kUdp ||
      ctx.client == QueryContext::kUnattributed) {
    return StageVerdict::kPass;
  }
  pc_.rrl_checked.Inc();
  switch (limiter_->Admit(ctx.client, ctx.now_us)) {
    case ResponseRateLimiter::Decision::kAllow:
      return StageVerdict::kPass;
    case ResponseRateLimiter::Decision::kSlip:
      pc_.rrl_slipped.Inc();
      c_.refused.Inc();
      ctx.rrl_slip = true;
      return StageVerdict::kRespond;
    case ResponseRateLimiter::Decision::kDrop:
      break;
  }
  pc_.rrl_dropped.Inc();
  return StageVerdict::kDrop;
}

std::uint32_t AnswerCacheStage::FindSlot(const WireKey& key,
                                         std::uint64_t key_hash) const {
  return index_.Find(key_hash, [&](std::uint32_t s) {
    const CachedAnswer& e = entries_[s];
    return e.hash == key_hash && e.type == key.type && e.flags == key.flags &&
           e.echo_opt == key.echo_opt &&
           e.payload_limit == key.payload_limit &&
           e.name.size() == key.qname.size() &&
           // The root qname is empty and its data() may be null, which
           // memcmp must not see even with a zero length.
           (key.qname.empty() ||
            std::memcmp(e.name.data(), key.qname.data(), key.qname.size()) ==
                0);
  });
}

bool AnswerCacheStage::Probe(const WireKey& key, std::uint64_t key_hash,
                             FastHit& hit) const {
  if (capacity_ == 0 || entries_.empty()) return false;
  const std::uint32_t slot = FindSlot(key, key_hash);
  if (slot == util::FlatHashIndex::kNpos) return false;
  const CachedAnswer& e = entries_[slot];
  hit.wire = e.wire.data();
  hit.size = e.wire.size();
  hit.disposition = e.disposition;
  hit.truncated = e.truncated;
  return true;
}

StageVerdict AnswerCacheStage::Admit(QueryContext& ctx) {
  if (capacity_ == 0) return StageVerdict::kPass;
  const dns::Question& q = ctx.query->questions.front();

  // The key covers every query property that can shape the response bytes
  // other than the id: the exact-case qname (the question echo preserves
  // case), qtype, the header flag bits copied into the response (tc, rd —
  // opcode and class are pinned by the screen stage), the effective payload
  // limit (which also folds in the channel and the EDNS clamp), and whether
  // an OPT record is echoed. Name::Hash() is case-folded, so different-case
  // spellings share a hash and are split by the exact-byte equality check.
  WireKey key;
  key.qname = q.name.flat();
  key.name_hash = q.name.Hash();
  key.type = q.type;
  key.flags = static_cast<std::uint8_t>(
      (ctx.query->header.tc ? 2 : 0) | (ctx.query->header.rd ? 1 : 0));
  key.echo_opt = ctx.echo_opt;
  key.payload_limit = ctx.payload_limit;
  ctx.cache_key_hash = KeyHash(key);
  ctx.cache_probed = true;
  pc_.cache_probes.Inc();

  const std::uint32_t slot = FindSlot(key, ctx.cache_key_hash);
  if (slot == util::FlatHashIndex::kNpos) return StageVerdict::kPass;

  const CachedAnswer& e = entries_[slot];
  CountDisposition(c_, e.disposition);
  if (e.truncated) c_.truncated.Inc();
  c_.cache_hits.Inc();
  ctx.cached_wire = e.wire;
  ctx.cached_wire[0] = static_cast<std::uint8_t>(ctx.query->header.id >> 8);
  ctx.cached_wire[1] = static_cast<std::uint8_t>(ctx.query->header.id);
  ctx.cache_hit = true;
  return StageVerdict::kRespond;
}

void AnswerCacheStage::OnResponse(QueryContext& ctx, const util::Bytes& wire,
                                  bool truncated) {
  // Insert only live lookups the probe missed: cache_probed excludes the
  // screened and cache-off paths, lookup excludes defense slips (which
  // never reached the answerer).
  if (!ctx.cache_probed || ctx.cache_hit || ctx.lookup == nullptr) return;
  const dns::Question& q = ctx.query->questions.front();
  const std::span<const std::uint8_t> qname = q.name.flat();

  CachedAnswer entry;
  entry.hash = ctx.cache_key_hash;
  entry.name.assign(qname.begin(), qname.end());
  entry.type = q.type;
  entry.flags = static_cast<std::uint8_t>(
      (ctx.query->header.tc ? 2 : 0) | (ctx.query->header.rd ? 1 : 0));
  entry.echo_opt = ctx.echo_opt;
  entry.payload_limit = static_cast<std::uint32_t>(ctx.payload_limit);
  entry.disposition = ctx.lookup->disposition;
  entry.truncated = truncated;
  entry.wire = wire;
  entry.wire[0] = 0;
  entry.wire[1] = 0;

  const auto hash_of = [this](std::uint32_t s) { return entries_[s].hash; };
  if (entries_.size() < capacity_) {
    const auto slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(std::move(entry));
    index_.Insert(entries_[slot].hash, slot, hash_of);
  } else {
    // At capacity: replace the oldest inserted entry (FIFO clock), so a
    // random-qname storm churns the cache instead of freezing its first
    // fill — and popular keys re-enter on their next miss.
    const auto victim = static_cast<std::uint32_t>(clock_);
    clock_ = (clock_ + 1) % capacity_;
    index_.Erase(entries_[victim].hash,
                 [&](std::uint32_t s) { return s == victim; });
    entries_[victim] = std::move(entry);
    index_.Insert(entries_[victim].hash, victim, hash_of);
    pc_.cache_evictions.Inc();
  }
  pc_.cache_insertions.Inc();
}

StageVerdict SnapshotAnswerStage::Admit(QueryContext& ctx) {
  const dns::Question& q = ctx.query->questions.front();
  (*snapshot_)->Lookup(q.name, q.type, include_dnssec_, scratch_);
  pc_.snapshot_answers.Inc();

  CountDisposition(c_, scratch_.disposition);
  dns::RCode rcode = dns::RCode::kNoError;
  if (scratch_.disposition == LookupDisposition::kNxDomain) {
    rcode = dns::RCode::kNXDomain;
  } else if (scratch_.disposition == LookupDisposition::kOutOfZone) {
    rcode = dns::RCode::kRefused;
  }
  ctx.aa = scratch_.disposition == LookupDisposition::kAnswer ||
           scratch_.disposition == LookupDisposition::kNoData ||
           scratch_.disposition == LookupDisposition::kNxDomain;
  ctx.rcode = rcode;
  ctx.lookup = &scratch_;
  return StageVerdict::kRespond;
}

}  // namespace rootless::rootsrv
