// paper_bench — the documented driver for BENCH_paper.json:
//
//   build/bench/paper_bench --out BENCH_paper.json
//
// It reruns the tutorial's twelve illustrative experiments (E1-E12, see
// EXPERIMENTS.md) plus the RAM-budget ablation, and writes one record per
// parameter point, tagged with its experiment id. Each point is computed
// once: counters are exact and seeded, averages run a fixed probe count,
// and the only timings are the ones EXPERIMENTS.md quotes (E6's rungs,
// E7's primitives, E8's thread sweep and E9's seal/verify cost), each the
// median of kReps samples after a warmup. The driver checks no shape
// itself; the `paper_bench` ctest runs it and then bench/validate_bench.py,
// which does. It exits non-zero if any step fails to run.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "paper_bench.h"

int main(int argc, char** argv) {
  std::string out_path = "BENCH_paper.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: paper_bench [--out FILE]\n";
      return 1;
    }
  }
  pds::bench::Records records;
  for (auto* part : {pds::bench::RunPart2, pds::bench::RunPart3}) {
    const pds::Status s = part(&records);
    if (!s.ok()) {
      std::cerr << "paper_bench: FAILED: " << s.ToString() << "\n";
      return 1;
    }
  }
  std::ofstream out(out_path, std::ios::binary);
  out << "{\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    out << "    " << records[i].json()
        << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  if (!out) {
    std::cerr << "paper_bench: FAILED: writing " << out_path << "\n";
    return 1;
  }
  std::cout << "paper_bench: wrote " << records.size() << " records to "
            << out_path << "\n";
  return 0;
}
