// rootless_perfbench: the repository's benchmark.
//
//   rootless_perfbench --workload <udp-hot|udp-cold|zone-refresh|ditl-replay>
//                      --seed N --seconds S --trace 0|1
//                      [--smoke] [--corrupt socket|replay|refresh]
//                      [--result FILE]
//
// --trace 0 runs the workload end to end and reports the end-to-end
// metrics; --trace 1 runs the per-layer ledger instead. The last line of
// standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Earlier lines carry the provenance and the workload's detail metrics
// under their workload-specific names. --result also writes all of it, with
// the provenance, as one JSON document (run.py compare reads two of them).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <udp-hot|udp-cold|zone-refresh|"
               "ditl-replay> --seed N --seconds S --trace 0|1 [--smoke] "
               "[--corrupt socket|replay|refresh] [--result FILE]\n",
               argv0);
  return 2;
}

std::string ProvenanceJson() {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : Provenance()) {
    out += (first ? "\"" : ", \"") + key + "\": \"" + JsonEscape(value) + "\"";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  int trace = -1;
  std::string result_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") config.workload = next();
    else if (arg == "--seed") config.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--seconds") config.seconds = std::atof(next().c_str());
    else if (arg == "--trace") trace = std::atoi(next().c_str());
    else if (arg == "--smoke") config.smoke = true;
    else if (arg == "--corrupt") config.corrupt = next();
    else if (arg == "--result") result_path = next();
    else return Usage(argv[0]);
  }
  if (!KnownWorkload(config.workload) || (trace != 0 && trace != 1) ||
      config.seconds <= 0) {
    return Usage(argv[0]);
  }

  const std::string provenance = ProvenanceJson();
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  const RunOutput out = trace ? RunLedger(config) : RunWorkload(config);
  const std::vector<Metric>& reported =
      trace ? out.layers.all() : out.e2e.all();

  for (const Metric& m : out.detail.all()) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& note : out.tally.notes) {
    std::printf("FAILED: %s\n", note.c_str());
    std::fprintf(stderr, "FAILED: %s\n", note.c_str());
  }
  const std::string detail = MetricsJson(out.detail.all());
  std::printf("detail %s\n", detail.c_str());

  const bool correct = out.tally.failed == 0 && out.tally.attempted > 0;
  const std::string metrics = MetricsJson(reported);
  if (!result_path.empty()) {
    std::ofstream doc(result_path);
    doc << "{\"workload\": \"" << JsonEscape(config.workload)
        << "\", \"seed\": " << config.seed << ", \"seconds\": "
        << config.seconds << ", \"trace\": " << trace
        << ", \"provenance\": " << provenance << ", \"correct\": "
        << (correct ? "true" : "false") << ", \"metrics\": " << metrics
        << ", \"detail\": " << detail << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  out.tally.attempted > 0 ? out.tally.attempted : 1),
              static_cast<unsigned long long>(out.tally.failed),
              metrics.c_str());
  return 0;
}
