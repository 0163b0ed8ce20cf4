#!/usr/bin/env bash
# Builds the engine micro-benchmarks in Release and writes google-benchmark
# JSON with 3 repetitions per benchmark. The committed perf baseline
# (BENCH_sim_engine.json) is produced with exactly this script, so CI's
# regression gate compares like with like (min of 3 reps on both sides).
#
# Usage: scripts/run_benches.sh [output.json] [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_json="${1:-${repo_root}/BENCH_sim_engine.json}"
build_dir="${2:-${repo_root}/build-bench}"

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" --target micro_sim_engine -j >/dev/null

"${build_dir}/bench/micro_sim_engine" \
  --benchmark_repetitions=3 \
  --benchmark_min_time=0.2 \
  --benchmark_out="${out_json}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true

# The large-cluster scaling run is the evidence for the indexed-placement
# rework; a baseline without it silently drops that coverage from the gate.
if ! grep -q '"BM_EndToEndLargeRun/10240"' "${out_json}"; then
  echo "error: ${out_json} is missing BM_EndToEndLargeRun/10240" >&2
  exit 1
fi

# The exchange-scaling run is the evidence for the dirty-set incremental
# exchange + active-set tick loop (O(active), not O(n)); same rule.
if ! grep -q '"BM_ExchangeScaling/10240"' "${out_json}"; then
  echo "error: ${out_json} is missing BM_ExchangeScaling/10240" >&2
  exit 1
fi

# The streaming-arrival benches are the evidence for the pull-based pump
# (DESIGN.md §14): SWF line-parse throughput and the streamed counterpart of
# the 1024-node end-to-end run; same rule. No closing quote in the pattern:
# arg'd benchmarks are named "BM_Foo/0", so "BM_Foo\"" would never match.
for required in BM_SwfParse BM_StreamingArrivals; do
  if ! grep -q "\"${required}" "${out_json}"; then
    echo "error: ${out_json} is missing ${required}" >&2
    exit 1
  fi
done

# The malleable benches are the evidence for the width-reconfiguration axis
# (DESIGN.md §15): the isolated resize-cycle micro and the rigid-vs-malleable
# end-to-end pair; same rule.
for required in BM_MalleableResize BM_MalleableEndToEnd; do
  if ! grep -q "\"${required}" "${out_json}"; then
    echo "error: ${out_json} is missing ${required}" >&2
    exit 1
  fi
done

echo "wrote ${out_json}"
