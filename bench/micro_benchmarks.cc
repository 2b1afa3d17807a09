// Micro-benchmarks (google-benchmark) for the performance-critical paths:
// wire codec, cache operations, zone parsing, signing, compression, rsync.
#include <benchmark/benchmark.h>

#include <memory>

#include <cstdio>

#include "crypto/dnssec.h"
#include "crypto/sha256.h"
#include "distrib/rsync.h"
#include "dns/message.h"
#include "obs/export.h"
#include "resolver/cache.h"
#include "resolver/zone_db.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/master_file.h"
#include "zone/rzc.h"
#include "zone/snapshot.h"

namespace {

using namespace rootless;

const zone::Zone& RootZone() {
  static const zone::Zone* z = [] {
    zone::EvolutionConfig config;
    const auto* model = new zone::RootZoneModel(config);
    return new zone::Zone(model->Snapshot({2019, 6, 7}));
  }();
  return *z;
}

const zone::SnapshotPtr& RootSnapshot() {
  static const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(RootZone());
  return snapshot;
}

dns::Message SampleMessage() {
  const auto result = RootSnapshot()->Lookup(
      *dns::Name::Parse("www.example.com."), dns::RRType::kA);
  dns::Message m =
      dns::MakeQuery(42, *dns::Name::Parse("www.example.com."), dns::RRType::kA);
  m.header.qr = true;
  for (const auto& s : result.authority) {
    for (auto&& rr : s.Materialize().ToRecords()) {
      m.authority.push_back(std::move(rr));
    }
  }
  for (const auto& s : result.additional) {
    for (auto&& rr : s.Materialize().ToRecords()) {
      m.additional.push_back(std::move(rr));
    }
  }
  return m;
}

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    auto name = dns::Name::Parse("www.some-long-host.example.com.");
    benchmark::DoNotOptimize(name);
  }
}
BENCHMARK(BM_NameParse);

void BM_MessageEncode(benchmark::State& state) {
  const dns::Message m = SampleMessage();
  for (auto _ : state) {
    auto wire = dns::EncodeMessage(m);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_MessageEncode);

void BM_MessageDecode(benchmark::State& state) {
  const auto wire = dns::EncodeMessage(SampleMessage());
  for (auto _ : state) {
    auto m = dns::DecodeMessage(wire);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MessageDecode);

void BM_ZoneLookupReferral(benchmark::State& state) {
  const zone::ZoneSnapshot& z = *RootSnapshot();
  const dns::Name name = *dns::Name::Parse("www.example.com.");
  zone::LookupView result;
  for (auto _ : state) {
    z.Lookup(name, dns::RRType::kA, false, result);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ZoneLookupReferral);

void BM_CacheGetHit(benchmark::State& state) {
  resolver::DnsCache cache;
  for (const auto& s : RootZone().AllRRsets()) cache.Put(s, 0);
  const dns::RRsetKey key{*dns::Name::Parse("com."), dns::RRType::kNS,
                          dns::RRClass::kIN};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(key, 1));
  }
}
BENCHMARK(BM_CacheGetHit);

void BM_CachePut(benchmark::State& state) {
  const auto rrsets = RootZone().AllRRsets();
  resolver::DnsCache cache(8192);
  std::size_t i = 0;
  for (auto _ : state) {
    cache.Put(rrsets[i++ % rrsets.size()], 0);
  }
}
BENCHMARK(BM_CachePut);

void BM_ZoneDbLookup(benchmark::State& state) {
  resolver::ZoneDb db(RootSnapshot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Lookup("com"));
  }
}
BENCHMARK(BM_ZoneDbLookup);

void BM_MasterFileParse(benchmark::State& state) {
  // Parse a 200-record slice of the root zone per iteration.
  auto records = RootZone().AllRecords();
  records.resize(200);
  const std::string text = zone::SerializeMasterFile(records);
  for (auto _ : state) {
    auto parsed = zone::ParseMasterFile(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_MasterFileParse);

void BM_Sha256(benchmark::State& state) {
  util::Bytes data(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Below(256));
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(64 * 1024);

void BM_SignRRset(benchmark::State& state) {
  util::Rng rng(2);
  const crypto::SigningKey key = crypto::GenerateKey(crypto::kZskFlags, rng);
  const dns::RRset* com =
      RootZone().Find(*dns::Name::Parse("com."), dns::RRType::kNS);
  for (auto _ : state) {
    auto sig = crypto::SignRRset(*com, key, dns::Name(), 0, 1000);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_SignRRset);

void BM_RzcCompressZone(benchmark::State& state) {
  const std::string text = zone::SerializeMasterFile(RootZone().AllRecords());
  for (auto _ : state) {
    auto compressed = zone::RzcCompressText(text);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_RzcCompressZone);

void BM_RzcDecompressZone(benchmark::State& state) {
  const std::string text = zone::SerializeMasterFile(RootZone().AllRecords());
  const auto compressed = zone::RzcCompressText(text);
  for (auto _ : state) {
    auto decompressed = zone::RzcDecompressText(compressed);
    benchmark::DoNotOptimize(decompressed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_RzcDecompressZone);

void BM_RsyncDeltaDailyZone(benchmark::State& state) {
  static const zone::RootZoneModel model;
  const auto day1 = zone::SerializeSnapshot(
      *zone::ZoneSnapshot::Build(model.Snapshot({2019, 4, 1})));
  const auto day2 = zone::SerializeSnapshot(
      *zone::ZoneSnapshot::Build(model.Snapshot({2019, 4, 2})));
  const auto sig = distrib::ComputeSignature(day1, 2048);
  for (auto _ : state) {
    auto delta = distrib::ComputeDelta(sig, day2);
    benchmark::DoNotOptimize(delta);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(day2.size()));
}
BENCHMARK(BM_RsyncDeltaDailyZone);

}  // namespace

// Expanded BENCHMARK_MAIN() with the standardized run header/export around
// the google-benchmark harness (cache/resolver fixtures above register their
// counters in the default registry, so the export reflects this run).
int main(int argc, char** argv) {
  const rootless::obs::RunInfo run_info{"micro_benchmarks", 0,
                                        "harness=google-benchmark"};
  std::printf("%s", rootless::obs::RunHeader(run_info).c_str());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rootless::obs::ExportRun(run_info);
  return 0;
}
