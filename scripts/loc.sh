#!/usr/bin/env bash
# Counts Go source lines per package: non-test files only, skipping blank
# lines and comment-only lines (// lines and /* */ blocks). This is the
# number a simplification claim is judged by — moving code into _test.go
# files, deleting comments or reflowing blank lines does not change it.
#
# Usage: scripts/loc.sh [dir ...]   (default: the current directory)
# Paths are relative to the current directory, so the same script counts any
# checkout: cd into it and pass the package directories.
set -euo pipefail

if [ $# -eq 0 ]; then
  set -- .
fi

find "$@" -name '*.go' ! -name '*_test.go' \
  ! -path '*/testdata/*' ! -path '*/.bench_build/*' | sort |
  awk '
    {
      file = $0
      dir = file
      sub(/\/[^\/]*$/, "", dir)
      sub(/^\.\//, "", dir)
      inblock = 0
      while ((getline line < file) > 0) {
        if (inblock) {
          if (line !~ /\*\//) continue
          sub(/^.*\*\//, "", line)
          inblock = 0
        }
        gsub(/^[ \t]+|[ \t]+$/, "", line)
        if (line == "" || line ~ /^\/\//) continue
        if (line ~ /^\/\*/) {
          if (line !~ /\*\//) { inblock = 1; continue }
          sub(/^\/\*.*\*\//, "", line)
          gsub(/^[ \t]+/, "", line)
          if (line == "" || line ~ /^\/\//) continue
        }
        count[dir]++
        total++
      }
      close(file)
    }
    END {
      for (d in count) printf "%7d  %s\n", count[d], d | "sort -k2"
      close("sort -k2")
      printf "%7d  total\n", total
    }
  '
