#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there, passing every argument through. The Go build
# cache is kept inside the checkout too, so nothing outside it is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$root/.bench_build/wormbench" .) >&2
cd "$root"
exec "$root/.bench_build/wormbench" "$@"
