// The four named workloads (end-to-end pass) and the per-layer ledger
// (traced pass). Each fills generic end-to-end metrics, the workload-level
// detail metrics under their own names, and a correctness tally.
#pragma once

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;  // tiny sizes, for the self-test
  // Gate under test: "socket", "replay" or "refresh" feeds that gate a
  // deliberately corrupted reference, so it must report failures.
  std::string corrupt;
};

struct RunOutput {
  Metrics e2e;      // the contract metrics (BENCHMARK.json end_to_end)
  Metrics detail;   // the same run under workload-specific names
  Metrics layers;   // traced pass only (BENCHMARK.json per_layer)
  Tally tally;
};

bool KnownWorkload(const std::string& name);
// The end-to-end pass of `config.workload`.
RunOutput RunWorkload(const RunConfig& config);
// The traced pass: times each layer's public entry points from this
// benchmark's own code and reports the per-layer ledger.
RunOutput RunLedger(const RunConfig& config);

}  // namespace perfbench
