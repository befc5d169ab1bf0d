#!/usr/bin/env bash
# Builds the four bench drivers, writes every BENCH file at the repo root,
# and checks them all with one bench/validate_bench.py call:
#
#   crypto_round_bench  BENCH_crypto.json  kernel-vs-scalar rungs (median
#                       of N after warmup) + the per-op vs packed fleet-64
#                       Paillier round
#   obs_profile         BENCH_obs.json     one secure-aggregation round +
#                       trace_obs.json     one profiled SPJ query
#   net_bench           BENCH_net.json     wire sweep on in-process and
#                       trace_net.json     socket transports, quorum
#                                          scenarios, fault matrix
#   sim_bench           BENCH_sim.json     simulated fleet sweep 1k -> 1M
#                                          (~32 s, ~3.6 GB peak RSS) +
#                                          quorum/churn/determinism
#
# Usage: bench/run_benches.sh [build_dir]   (default build_dir: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/bench"

cmake --build "$BUILD_DIR" \
  --target crypto_round_bench obs_profile net_bench sim_bench

echo "== crypto_round_bench =="
"$BIN/crypto_round_bench" --out BENCH_crypto.json
echo "== obs_profile =="
"$BIN/obs_profile" --trace trace_obs.json --metrics BENCH_obs.json
echo "== net_bench =="
"$BIN/net_bench" --out BENCH_net.json --trace trace_net.json
echo "== sim_bench =="
"$BIN/sim_bench" --out BENCH_sim.json

python3 bench/validate_bench.py BENCH_crypto.json BENCH_obs.json \
  trace_obs.json BENCH_net.json BENCH_sim.json
