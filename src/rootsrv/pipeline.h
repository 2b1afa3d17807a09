// The auth server's query-processing pipeline: an ordered chain of
// composable stages that every serving path drives identically.
//
//   Screen        — header policy: EDNS clamp, FORMERR/NOTIMP/REFUSED.
//   RateLimit     — per-client response rate limiting / resolver quota
//                   (rootsrv/rrl.h); a defense stage, off by default.
//   AnswerCache   — memoized response packets with bounded FIFO eviction.
//   SnapshotAnswer— the zone lookup + classification that produces a live
//                   answer when nothing earlier resolved the query.
//
// AuthServer::AnswerWire (a decoded query) and the datagram paths that the
// simulator and the net:: TCP/UDP handlers drive all run the *same* chain —
// one EDNS-clamp/truncation implementation, one error policy, one cache
// probe, one defense hook — and the server renders the resulting
// QueryContext to wire bytes. A stage stops the chain by returning
// kRespond (the context describes the response) or kDrop (silence); kPass
// hands the query to the next stage.
//
// Counter layout: the per-disposition serving counters stay in module
// "rootsrv.auth" (AuthCounters, unchanged names — the byte/counter parity
// suites pin them); each stage additionally exposes its own activity in
// module "rootsrv.pipeline" (PipelineCounters).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dns/message.h"
#include "obs/metrics.h"
#include "rootsrv/rrl.h"
#include "util/bytes.h"
#include "util/flat_hash.h"
#include "zone/zone_snapshot.h"

namespace rootless::rootsrv {

// Which transport the response will travel over: UDP truncates at the EDNS
// limit; TCP never truncates (64KB message ceiling) and refuses nothing
// extra.
enum class Channel { kUdp, kTcp };

// EDNS0 (RFC 6891) response-size policy.
struct EdnsConfig {
  // Truncation limit for queries WITHOUT an OPT record. RFC 1035 says 512;
  // the simulator has always used the server's configured maximum (1232 by
  // default), and replay determinism depends on that, so the default stays.
  // Wire front-ends set 512.
  std::size_t default_udp_payload = 1232;
  // Clamp bounds for the requestor's advertised payload size.
  std::size_t min_udp_payload = 512;
  std::size_t max_udp_payload = 4096;
  // Payload size advertised in the OPT record echoed on EDNS responses.
  std::size_t advertise_udp_payload = 1232;
  // Echo an OPT record in responses to EDNS queries.
  bool echo_opt = true;
};

// The EDNS policy's verdict for one UDP query.
struct EdnsLimits {
  std::size_t payload_limit = 0;  // truncate the response at this size
  bool echo_opt = false;          // append an OPT record to the response
};

// The one place the EDNS policy is applied: `has_opt` says whether the
// query carried an OPT record, `requestor_payload` is the UDP payload size
// it advertised (ignored without one). ScreenStage (decoded queries) and
// AuthServer::TryFastLane (shallow-parsed datagrams) both call this, so the
// fast lane's cache key always equals the one the pipeline would build.
inline EdnsLimits ApplyEdns(const EdnsConfig& edns, bool has_opt,
                            std::size_t requestor_payload) {
  if (!has_opt) return {edns.default_udp_payload, false};
  return {std::clamp(requestor_payload, edns.min_udp_payload,
                     edns.max_udp_payload),
          edns.echo_opt};
}

// Pre-resolved registry handles for the serving counters (module
// "rootsrv.auth", one instance per server).
struct AuthCounters {
  obs::Counter queries;
  obs::Counter answers;
  obs::Counter referrals;
  obs::Counter nxdomain;
  obs::Counter nodata;
  obs::Counter refused;
  obs::Counter malformed;
  obs::Counter truncated;
  obs::Counter edns_queries;
  obs::Counter cache_hits;
  obs::Counter bytes_in;
  obs::Counter bytes_out;

  void Register(obs::Registry& registry);
};

// Per-stage activity counters (module "rootsrv.pipeline", one instance per
// server, registered alongside AuthCounters).
struct PipelineCounters {
  obs::Counter screen_diverted;   // queries answered with a screen error
  obs::Counter rrl_checked;       // queries evaluated by the rate limiter
  obs::Counter rrl_dropped;
  obs::Counter rrl_slipped;
  obs::Counter cache_probes;      // queries that reached the cache
  obs::Counter cache_insertions;
  obs::Counter cache_evictions;
  obs::Counter snapshot_answers;  // live lookup+encode executions

  void Register(obs::Registry& registry);
};

// Snapshot view of PipelineCounters (assembled by
// AuthServer::pipeline_stats(); benches and tests read this).
struct PipelineStats {
  std::uint64_t screen_diverted = 0;
  std::uint64_t rrl_checked = 0;
  std::uint64_t rrl_dropped = 0;
  std::uint64_t rrl_slipped = 0;
  std::uint64_t cache_probes = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t snapshot_answers = 0;
};

// Everything one query carries through the chain. The owning AuthServer
// fills the input block, the stages fill their output blocks, and the
// caller renders whichever output block the final verdict points at.
struct QueryContext {
  // No transport peer to attribute the query to (AnswerWire and detached
  // tests); the rate limiter passes these through.
  static constexpr std::uint64_t kUnattributed = ~0ULL;

  // ---- input ----------------------------------------------------------
  const dns::Message* query = nullptr;
  Channel channel = Channel::kUdp;
  std::uint64_t client = kUnattributed;  // transport source endpoint
  std::uint64_t now_us = 0;              // defense clock sample

  // ---- Screen outputs -------------------------------------------------
  bool screened = false;  // diverted to an error response
  dns::RCode screen_rcode = dns::RCode::kNoError;
  std::size_t payload_limit = 0;
  bool echo_opt = false;

  // ---- RateLimit outputs ----------------------------------------------
  bool rrl_slip = false;  // respond TC|REFUSED instead of dropping

  // ---- AnswerCache outputs --------------------------------------------
  bool cache_hit = false;
  bool cache_probed = false;
  std::uint64_t cache_key_hash = 0;
  util::Bytes cached_wire;  // hit: response bytes, id already patched

  // ---- SnapshotAnswer outputs -----------------------------------------
  const zone::LookupView* lookup = nullptr;
  dns::RCode rcode = dns::RCode::kNoError;
  bool aa = false;
};

enum class StageVerdict {
  kPass,     // hand the query to the next stage
  kRespond,  // stop: the context describes the response to render
  kDrop,     // stop: no response at all
};

class QueryStage {
 public:
  virtual ~QueryStage() = default;
  virtual const char* name() const = 0;
  // Admission: runs in chain order until a stage returns kRespond/kDrop.
  virtual StageVerdict Admit(QueryContext& ctx) = 0;
  // Post-render hook: observes the final response bytes of a live answer.
  // Default no-op; the cache stage inserts here.
  virtual void OnResponse(QueryContext& ctx, const util::Bytes& wire,
                          bool truncated) {
    (void)ctx;
    (void)wire;
    (void)truncated;
  }
};

// The ordered chain. Owns nothing; the AuthServer owns the stages and their
// registration order fixes the policy (screen before defense before cache
// before answer).
class QueryPipeline {
 public:
  void Append(QueryStage* stage) { stages_.push_back(stage); }
  StageVerdict Admit(QueryContext& ctx) {
    for (QueryStage* stage : stages_) {
      const StageVerdict verdict = stage->Admit(ctx);
      if (verdict != StageVerdict::kPass) return verdict;
    }
    return StageVerdict::kRespond;
  }
  void OnResponse(QueryContext& ctx, const util::Bytes& wire, bool truncated) {
    for (QueryStage* stage : stages_) stage->OnResponse(ctx, wire, truncated);
  }
  const std::vector<QueryStage*>& stages() const { return stages_; }

 private:
  std::vector<QueryStage*> stages_;
};

// Bumps the per-disposition serving counter; shared by the live lookup path
// and the cache-hit replay so cached and uncached serving count identically.
void CountDisposition(AuthCounters& c, zone::LookupDisposition disposition);

// ---- stage implementations ---------------------------------------------

// Header-level screening: EDNS payload clamp, question/OPT cardinality,
// opcode and class policy, AXFR-over-UDP refusal.
class ScreenStage : public QueryStage {
 public:
  ScreenStage(const EdnsConfig& edns, AuthCounters& c, PipelineCounters& pc)
      : edns_(edns), c_(c), pc_(pc) {}
  const char* name() const override { return "screen"; }
  StageVerdict Admit(QueryContext& ctx) override;

 private:
  const EdnsConfig& edns_;
  AuthCounters& c_;
  PipelineCounters& pc_;
};

// Per-client response rate limiting (UDP only — TCP clients already proved
// their source address). Inactive without a limiter, and passes queries the
// transport could not attribute to a client.
class RateLimitStage : public QueryStage {
 public:
  RateLimitStage(AuthCounters& c, PipelineCounters& pc) : c_(c), pc_(pc) {}
  void SetLimiter(ResponseRateLimiter* limiter) { limiter_ = limiter; }
  bool active() const { return limiter_ != nullptr; }
  const char* name() const override { return "rate_limit"; }
  StageVerdict Admit(QueryContext& ctx) override;

 private:
  ResponseRateLimiter* limiter_ = nullptr;
  AuthCounters& c_;
  PipelineCounters& pc_;
};

// Answer packet cache: wire responses memoized per snapshot, keyed on
// everything that shapes the wire besides the message id (exact-case qname
// bytes, qtype, echoed header flags, payload limit, OPT echo). A hit is a
// hash probe + memcpy + id patch instead of a zone lookup + encode. Sound
// because the snapshot is immutable; Drop()ped on zone swap. Bounded: at
// capacity, a miss evicts the oldest inserted entry (FIFO clock) — a
// random-qname water-torture storm churns the cache instead of pinning its
// first fill forever, and the eviction counter makes the churn observable.
class AnswerCacheStage : public QueryStage {
 public:
  // The full cache key, assembled either from a decoded Message (Admit) or
  // straight from raw datagram bytes by the UDP fast lane (wire_probe.h).
  // `name_hash` must equal dns::Name::Hash() of the qname — compute it with
  // util::simd::NameHash over the flat label bytes.
  struct WireKey {
    std::span<const std::uint8_t> qname;  // flat, exact case, no root octet
    std::uint64_t name_hash = 0;
    dns::RRType type = dns::RRType::kA;
    std::uint8_t flags = 0;  // echoed header bits: tc<<1 | rd
    bool echo_opt = false;
    std::size_t payload_limit = 0;
  };
  // Borrowed view of a cached hit; valid until the next insert or Drop().
  struct FastHit {
    const std::uint8_t* wire = nullptr;  // id bytes zeroed
    std::size_t size = 0;
    zone::LookupDisposition disposition = zone::LookupDisposition::kAnswer;
    bool truncated = false;
  };
  // One key-hash formula for Admit and the fast lane: the name hash salted
  // with every other response-shaping property.
  static std::uint64_t KeyHash(const WireKey& key) {
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(key.type) << 32) |
        (static_cast<std::uint64_t>(key.payload_limit) << 8) |
        (static_cast<std::uint64_t>(key.flags) << 1) | (key.echo_opt ? 1 : 0);
    return key.name_hash ^ (salt * 0x9E3779B97F4A7C15ULL);
  }

  AnswerCacheStage(std::size_t capacity, AuthCounters& c, PipelineCounters& pc)
      : capacity_(capacity), c_(c), pc_(pc) {}
  const char* name() const override { return "answer_cache"; }
  StageVerdict Admit(QueryContext& ctx) override;
  void OnResponse(QueryContext& ctx, const util::Bytes& wire,
                  bool truncated) override;

  // Side-effect-free lookup for the fast lane: no counters, no context —
  // the caller only commits to serving (and counting) after a hit, so a
  // miss leaves the pipeline's state exactly as the fallback path expects.
  bool Probe(const WireKey& key, std::uint64_t key_hash, FastHit& hit) const;

  void Drop() {
    entries_.clear();
    index_.Clear();
    clock_ = 0;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  struct CachedAnswer {
    std::uint64_t hash = 0;
    util::Bytes name;  // exact-case qname wire bytes (the echo must match)
    dns::RRType type = dns::RRType::kA;
    std::uint8_t flags = 0;  // echoed header bits: tc<<1 | rd
    bool echo_opt = false;
    std::uint32_t payload_limit = 0;
    zone::LookupDisposition disposition = zone::LookupDisposition::kAnswer;
    bool truncated = false;
    util::Bytes wire;  // stored with the id bytes zeroed
  };

  std::uint32_t FindSlot(const WireKey& key, std::uint64_t key_hash) const;

  std::size_t capacity_;
  AuthCounters& c_;
  PipelineCounters& pc_;
  std::vector<CachedAnswer> entries_;
  util::FlatHashIndex index_;
  std::size_t clock_ = 0;  // next eviction victim once at capacity
};

// The snapshot answerer: zone lookup + disposition classification. Always
// the last stage; never passes.
class SnapshotAnswerStage : public QueryStage {
 public:
  SnapshotAnswerStage(const zone::SnapshotPtr* snapshot, bool include_dnssec,
                      AuthCounters& c, PipelineCounters& pc)
      : snapshot_(snapshot), include_dnssec_(include_dnssec), c_(c), pc_(pc) {}
  const char* name() const override { return "snapshot_answer"; }
  StageVerdict Admit(QueryContext& ctx) override;

 private:
  const zone::SnapshotPtr* snapshot_;  // the owning server's swappable slot
  bool include_dnssec_;
  AuthCounters& c_;
  PipelineCounters& pc_;
  zone::LookupView scratch_;  // capacity retained across queries
};

}  // namespace rootless::rootsrv
