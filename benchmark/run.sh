#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (binary, Go build cache, the toolchain's
# per-user files) lands under .bench_build/ at the checkout root, so a
# run reads and writes nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

compile() {
	HOME="$build/home" GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
		GOTOOLCHAIN=local go build -C "$here" "$@" -o "$build/consim-bench" .
}
# The git revision is stamped into the binary when the checkout is a git
# repository; where git cannot answer (no repository, or one it refuses
# to read) the build goes without it and outputs say "unknown".
compile 2>/dev/null || compile -buildvcs=false

exec "$build/consim-bench" -tmp "$build/tmp" "$@"
