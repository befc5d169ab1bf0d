// pdsbench — the libpds benchmark driver (see bench.h).
//
//   pdsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--threads <n>] [--commit <sha>] [--dirty <0|1|unknown>]
//            [--source-sha256 <hex>]
//
// Workloads: fleet_secure_agg, fleet_packed_paillier, token_pds. The last
// line of standard output is the result object; the line before it is the
// report (provenance, sample counts, tail latency, and in traced runs the
// per-layer split).

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "pdsbench: " << why
            << "\nusage: pdsbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--threads <n>] [--commit <sha>] "
               "[--dirty <0|1>] [--source-sha256 <hex>]\n";
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  pdsbench::Options opts;
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t cap = std::min(nproc, pdsbench::kMaxThreads);
  opts.threads = cap;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseU64(value, &n)) {
      opts.seed = n;
    } else if (flag == "--seconds" && ParseU64(value, &n) && n > 0) {
      opts.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseU64(value, &n) && n <= 1) {
      opts.trace = n == 1;
    } else if (flag == "--threads" && ParseU64(value, &n) && n > 0) {
      if (n > cap) {
        return Usage("--threads " + std::to_string(n) +
                     " exceeds the cap min(nproc, " +
                     std::to_string(pdsbench::kMaxThreads) +
                     ") = " + std::to_string(cap));
      }
      opts.threads = n;
    } else if (flag == "--commit") {
      opts.commit = value;
    } else if (flag == "--dirty") {
      opts.dirty = value;
    } else if (flag == "--source-sha256") {
      opts.source_sha256 = value;
    } else {
      return Usage("bad argument " + flag + " " + value);
    }
  }
  if (!have_workload) {
    return Usage("--workload is required");
  }

  std::unique_ptr<pdsbench::Workload> workload;
  if (opts.workload == "fleet_secure_agg") {
    workload = pdsbench::MakeFleetSecureAgg(opts);
  } else if (opts.workload == "fleet_packed_paillier") {
    workload = pdsbench::MakeFleetPackedPaillier(opts);
  } else if (opts.workload == "token_pds") {
    workload = pdsbench::MakeTokenPds(opts);
  } else {
    return Usage("unknown workload " + opts.workload);
  }
  return pdsbench::Run(opts, workload.get());
}
