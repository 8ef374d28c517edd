#!/usr/bin/env bash
# One command for a full report: build, run every workload (-reps untraced
# repeats, each a fresh process, then one traced run; the probes once at the
# end), write the result file, and compare it against a baseline file if one
# is given.
#
#   bench/run.sh [-s seed] [-r reps] [-o out.json] [-b baseline.json] [-w budget_seconds]
#
# A wall-clock budget (-w) lowers the number of repeats, never the measured
# window: a shorter window is a different benchmark, fewer repeats only a
# noisier median.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=42 reps=3 out=bench/out/run.json baseline= budget=
while getopts "s:r:o:b:w:" opt; do
  case $opt in
    s) seed=$OPTARG ;; r) reps=$OPTARG ;; o) out=$OPTARG ;; b) baseline=$OPTARG ;; w) budget=$OPTARG ;;
    *) echo "usage: $0 [-s seed] [-r reps] [-o out.json] [-b baseline.json] [-w budget_seconds]" >&2; exit 2 ;;
  esac
done

# Measured on the reference container at run_seconds = 20: one untraced pass
# over the four workloads takes about 110 s, the traced pass with the probes
# about 100 s.
per_rep=110 traced=100
if [[ -n $budget ]]; then
  fit=$(( (budget - traced) / per_rep ))
  (( fit < 1 )) && fit=1
  if (( fit < reps )); then
    echo "run.sh: budget ${budget}s fits $fit repeats, not $reps" >&2
    reps=$fit
  fi
fi

bash bench/bench.sh -all -seed "$seed" -reps "$reps" -trace 1 -out "$out"
if [[ -n $baseline ]]; then
  .bench_build/dcobench -compare "$baseline" "$out"
fi
