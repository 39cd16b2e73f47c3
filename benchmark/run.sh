#!/usr/bin/env bash
# One command for a full set: build, run every workload untraced and traced
# (each in a fresh process), write benchmark/out/<label>/result.json and the
# four trace_<workload>.json, print the table.
#
#   benchmark/run.sh [label] [seed] [seconds]
#
# Compare two sets with:  benchmark/bench.sh compare benchmark/out/A/result.json benchmark/out/B/result.json
set -euo pipefail
exec "$(dirname "$0")/bench.sh" run -label "${1:-latest}" -seed "${2:-1}" -seconds "${3:-20}"
