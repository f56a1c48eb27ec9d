#!/bin/sh
# The benchmark is a nested module (benchmark/go.mod) that the root
# ./... patterns skip, and its staged replay calls internal packages
# directly. Vet it, run its unit tests, and run every workload once at
# smoke budgets (~10 s), so an internal-API or model change that breaks
# it is caught before merge. An operation that is not correct (error,
# panic, invariant breach, digest mismatch between reps, engine error
# over its bound) is counted in its workload's "failed"; any non-zero
# count fails the smoke.
set -eu
cd "$(dirname "$0")/.."

go -C benchmark vet .
go -C benchmark test .

doc=.bench_build/quick.json
mkdir -p .bench_build
bash benchmark/run.sh -all -quick -out "$doc"
if grep -En '"failed": *[1-9]' "$doc"; then
	echo "bench_smoke.sh: benchmark operations failed (see $doc)" >&2
	exit 1
fi
echo "bench_smoke.sh: OK"
