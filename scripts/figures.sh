#!/usr/bin/env bash
# Paper figures: every simulated c3bench experiment at quick scale, printed
# to stdout with the per-experiment timing lines ("[<id> in <dur>]") removed,
# so two runs of the same code are byte-identical. The live membership-churn
# experiment (elastic) is skipped: it runs real TCP nodes and is not
# deterministic.
#
# Use it as the no-behaviour-change check for a refactor of the selection
# path (internal/core, ewma, ratelimit, sim, cassim, queuesim):
#
#   scripts/figures.sh > /tmp/after.txt     # in the change
#   scripts/figures.sh > /tmp/before.txt    # in a clone of the parent
#   cmp /tmp/before.txt /tmp/after.txt
#
# ~1 min on a 2-core host.
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/c3bench" ./cmd/c3bench

status=0
for id in $("$tmpdir/c3bench" -list | awk '{print $1}'); do
  [ "$id" = elastic ] && continue
  "$tmpdir/c3bench" -fig "$id" -scale quick -elasticjson '' |
    grep -v "^   \[$id in .*\]$" || status=1
done
exit $status
