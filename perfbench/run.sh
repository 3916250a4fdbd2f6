#!/usr/bin/env bash
# Builds the perfbench harness from source and runs one workload.
#
#   bash perfbench/run.sh --workload inline-b100 --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build cache, binary and temp files stay in
# .bench_build/ under the current directory; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

# Never let git walk above the checkout looking for a repository.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo none)

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
