#!/usr/bin/env bash
# Non-test line counts: each *.rs file is cut at its first `#[cfg(test)]`
# line (the in-file test module) and what is above it is counted.
# Usage: scripts/loc.sh [PATH...]   (files or directories; default crates/*/src)
# Prints "<lines> <file>" per file, then "<lines> total".
set -euo pipefail
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/*/src
find "$@" -type f -name '*.rs' | LC_ALL=C sort | while IFS= read -r f; do
  printf '%s %s\n' "$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")" "$f"
done | awk '{print; total += $1} END{print total+0, "total"}'
