#!/usr/bin/env bash
# Lint entry point, used by `make lint` and CI.
#
# Fails when gofmt would change any Go file. Then builds the repository's
# invariant checker (cmd/c3vet) and runs it over the whole tree through
# `go vet -vettool`, so the five hot-path analyzers
# (accountpair, aliasretain, poolsafe, typederr, lockscope) ride go vet's
# per-package export data and incremental cache. Then runs staticcheck and
# govulncheck when they are installed: CI installs pinned versions (see
# .github/workflows/ci.yml); local runs without them skip those steps with a
# note rather than failing, since the container may not carry the tools.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt would reformat:" >&2
  echo "$unformatted" >&2
  exit 1
fi
echo "gofmt OK"

bin=${C3VET_BIN:-bin/c3vet}
mkdir -p "$(dirname "$bin")"
go build -o "$bin" ./cmd/c3vet
go vet -vettool="$(pwd)/$bin" ./...
echo "c3vet OK"

if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
  echo "staticcheck OK"
else
  echo "staticcheck not installed; skipped (CI runs the pinned version)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  govulncheck ./...
  echo "govulncheck OK"
else
  echo "govulncheck not installed; skipped (CI runs the pinned version)"
fi
