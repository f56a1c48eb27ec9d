#!/bin/sh
# Tier-1 gate: vet, build, race-enabled tests, and the allocation-budget
# guards. Run from the repo root before sending a change.
#
#   scripts/check.sh           # short mode (~20 minutes on two cores)
#   FULL=1 scripts/check.sh    # full test suite (tens of minutes)
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] \
	|| { echo "check.sh: gofmt -l lists:" >&2; echo "$unformatted" >&2; exit 1; }

echo "== go vet =="
# Includes asmdecl over internal/prefetch's stub for this architecture;
# the arm64 stub is vetted below.
go vet ./...

echo "== go build =="
go build ./...
# internal/prefetch has one assembly stub per architecture and a no-op
# fallback, and huge-page advice that is madvise on Linux and a no-op
# elsewhere; compile the variants this host does not.
GOARCH=arm64 go vet ./internal/prefetch
GOARCH=arm64 go build ./...
GOARCH=riscv64 go build ./...
GOOS=darwin go build ./...
GOOS=windows go build ./...

echo "== go test -race =="
# internal/core alone needs 13-17 minutes under -race -short on a
# 2-vCPU host, over go test's 10-minute default.
if [ "${FULL:-}" = "1" ]; then
	go test -race -timeout 110m ./...
else
	go test -race -short -timeout 30m ./...
fi

echo "== host-memory hints =="
# The lookahead's hints, fetchTM's victim-bucket hints and the directory's
# huge-page advice are read-only: every on/off combination (a paper-scale
# case on the advised table among them) leaves the same Result and
# machine, without a race; the -short pass above skips the paper-scale
# case, and the parallel engine's window workers run beside them.
go test -race -run 'Lookahead|Prefetch|ShardedReplayBitIdentical|PdesDeterministic|HugePages|LineIsInert' ./internal/core ./internal/coherence ./internal/prefetch

echo "== inlining budget =="
# The directory's lookups must stay inlined, at the eviction paths' call
# sites too.
scripts/inline_check.sh

echo "== allocation budgets =="
# Steady-state simulation loop must not allocate (perf regression guard).
# TestSteadyStateAllocBudget runs with live metrics AND a -timeseries
# recorder attached, so the observability publish cadence is inside the
# guarded path.
go test -run 'TestSteadyStateAllocBudget' ./internal/core
go test -run 'TestPdesAllocBudget' ./internal/core
go test -run 'TestDirectorySteadyStateAllocs' ./internal/coherence
# The mesh model charges every message its unloaded latency, history-free;
# the sweeps' recorded mesh traffic replayed into the flit-level network
# must land within the stated bound of it (64-core chip included).
go test -run 'TestModelLatencyIsHistoryFree' ./internal/mesh
go test -run 'TestMeshReplayNearUnloaded' ./internal/core
# Directory caches hold only the sets a home node can index: answers equal
# to full-size per-node caches, and NewSystem under its byte budget — a
# repeated build under the table-free one, since Zipf alias tables are
# built once per process and shared, across goroutines too.
go test -run 'TestDirCacheMatchesPerNodeFullSets' ./internal/coherence
go test -run 'TestNewSystemHeapBudget' ./internal/core
# The directory table is sized once from the lines the LLC can hold: a
# bounded directory owns none until its first fill, which allocates the
# bound's table, and bounded traffic never regrows it, in parity with the
# map oracle; the victim-hint gate reads the bound's size; NewDirectory
# keeps its doubling layout; simulated machines (both scales, sequential
# and sampled) stay within the bound, and a paper-scale run allocates one
# table. A cache slab is empty as allocated (complemented tags). A
# directory slot is 24 bytes (its 32-bit tag in the entry's padding): keys
# stop at cache.MaxLines, a whole-Entry store is reported, the prefetch
# hints cover straddling slots; a 12-byte alias slot draws as before. The
# table is exactly the bound's capacity and an overflow tail: streams that
# outrun the tail reach the growth fallback in parity with the oracle,
# simulator-shaped keys at 3/4 load probe within 20% of linear probing's
# expectation, and every benchmark machine keeps its victim-hint decision.
go test -run 'TestDirectoryBoundHoldsCapacity|TestDirectoryPastBoundDoubles|TestDirectoryFirstAllocation|TestDirectoryBytes|TestNewDirectoryUnchanged' ./internal/coherence
go test -run 'TestDirectoryKeyDomain|TestWholeEntryStoreReported|TestPrefetchHintsCoverSlot' ./internal/coherence
go test -run 'TestDirectoryTailOverflow|TestDirectoryProbeLengths|FuzzDirectoryOps' ./internal/coherence
go test -run 'TestDirectoryWithinBound|TestDirectoryTableAllocatedOnce|TestLookaheadGate' ./internal/core
go test -run 'TestComplementTagEdges|TestFreshSlabIsEmpty' ./internal/cache
go test -run 'TestZipfStreamPinned|TestZipfSlotPacked' ./internal/sim
go test -race -count=10 -run 'TestZipfMemo|TestZipfThetaOneSharesEntry' ./internal/sim

echo "== golden fixtures =="
# The -short race pass above skips them; every smoke below leans on the
# sequential engine's results being pinned bit-for-bit.
go test -run 'TestGoldenResults' ./internal/core

echo "== removed flags stay removed =="
# The -shards engine was deleted in PR 16 (never faster than sequential;
# EXPERIMENTS.md "Intra-run sharding"). A resurrected flag must be
# noticed: the flag package has to refuse it.
shards_out=$(go run ./cmd/consim -shards 2 2>&1) \
	&& { echo "check.sh: consim accepted -shards" >&2; exit 1; }
echo "$shards_out" | grep -q "flag provided but not defined: -shards" \
	|| { echo "check.sh: consim -shards failed for another reason: $shards_out" >&2; exit 1; }
# -pdes-pipeline (window/replay pipelining) and -pdes-replay-workers (the
# bank-sharded replay) were deleted: neither was ever faster than the
# serial replay (EXPERIMENTS.md "Parallel replay"). -pdes and
# -pdes-window went from every subcommand: the parallel engine is never
# faster and leaves its error bound off affinity placement, so it runs
# only where a caller sets core.Config.Pdes.
for sub in run tables ablate calibrate; do
	for removed in -pdes -pdes-window -pdes-pipeline -pdes-replay-workers; do
		removed_out=$(go run ./cmd/consim "$sub" "$removed" 2 2>&1) \
			&& { echo "check.sh: consim $sub accepted $removed" >&2; exit 1; }
		echo "$removed_out" | grep -q -- "flag provided but not defined: $removed" \
			|| { echo "check.sh: consim $sub $removed failed for another reason: $removed_out" >&2; exit 1; }
	done
done
# The time series lives in each run's manifest record: the separate
# -timeseries file, its run-id join, its hand-written encoder and obs
# report's -ts option were deleted and must stay gone.
ts_out=$(go run ./cmd/consim obs report -ts ts.jsonl m.jsonl 2>&1) \
	&& { echo "check.sh: consim obs report accepted -ts" >&2; exit 1; }
echo "$ts_out" | grep -q -- "flag provided but not defined: -ts" \
	|| { echo "check.sh: consim obs report -ts failed for another reason: $ts_out" >&2; exit 1; }
if grep -rnwE 'TSWriter|OpenTimeSeries|NewRecorder|DefaultTSCapacity|ReadTimeSeries|appendJSONFloat|appendJSONString|SetTimeseriesPath|Timeseries|TimeseriesRun|TimeseriesRows|TSRow' --include='*.go' .; then
	echo "check.sh: a deleted time-series sidecar symbol is back (above)" >&2; exit 1
fi
# cmd/bench and its BENCH_consim.json gate were deleted in PR 19
# (benchmark/ measures everything they did; EXPERIMENTS.md "One
# benchmark harness"). A second harness must not come back.
test ! -e cmd/bench || { echo "check.sh: cmd/bench exists again" >&2; exit 1; }
# obs top and the expvar registry dump it polled were deleted: the run
# record (manifest "layers", read by obs report) carries what it showed,
# and -debug-addr serves pprof only. obs diff was deleted too: one run's
# wall time is one noisy sample, and benchmark/ -compare gives the
# regression verdict.
for gone in top diff; do
	gone_out=$(go run ./cmd/consim obs $gone 2>&1) \
		&& { echo "check.sh: consim accepted obs $gone" >&2; exit 1; }
	echo "$gone_out" | grep -q "\"obs $gone\" is not a command" \
		|| { echo "check.sh: consim obs $gone failed for another reason: $gone_out" >&2; exit 1; }
done
if grep -rnwE 'RunSummary|SummarizeManifest|ReadRunSummaries|DiffSummaries|ApplyFractionGate|FFCostGateFrac|HistogramID|HistCounts|HistQuantile|HistBuckets|ObserveMissLat|ProcessCPUSeconds|CPUSeconds' --include='*.go' .; then
	echo "check.sh: a deleted obs diff, histogram or CPU-time symbol is back (above)" >&2; exit 1
fi
# Checkpoint record/replay (internal/trace, consim trace record|info|replay)
# was deleted: it recorded the statistical generator and replayed the
# recording, a second stand-in for the same checkpoints that no figure,
# study or benchmark workload used.
for gone in record info replay; do
	gone_out=$(go run ./cmd/consim trace $gone 2>&1) \
		&& { echo "check.sh: consim accepted trace $gone" >&2; exit 1; }
	echo "$gone_out" | grep -q "is not a command" \
		|| { echo "check.sh: consim trace $gone failed for another reason: $gone_out" >&2; exit 1; }
done
test ! -e internal/trace || { echo "check.sh: internal/trace exists again" >&2; exit 1; }
# One binary: tables, ablate, calibrate and obs are subcommands of consim
# over one run-flag set, not mains of their own.
cmds=$(go list ./cmd/...)
[ "$cmds" = "consim/cmd/consim" ] \
	|| { echo "check.sh: go list ./cmd/... prints $cmds, want consim/cmd/consim alone" >&2; exit 1; }
# The library links no network stack: -debug-addr's pprof server is
# cmd/consim's alone, so the benchmark, the examples and every test
# binary do not pay net, net/http and crypto/tls's memory for it.
netdeps=$(go list -deps . ./internal/... | grep -E '^(net|net/.*|crypto/tls)$' || true)
[ -z "$netdeps" ] \
	|| { echo "check.sh: the library links a network stack:" >&2; echo "$netdeps" >&2; exit 1; }

echo "== sampled engine smoke =="
# Interval sampling must engage (the provenance line appears), stay
# deterministic per seed, and leave detailed runs untouched (golden
# fixtures above already pin the -sample-off path bit-for-bit).
go test -run 'TestSampledDeterministic|TestSampledWarmupContract|TestFastForwardNoTimingLeak' ./internal/core
# The warm-up is one 1000-reference pilot window, the other 1000 functional.
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 20000 \
	-sample 1000 -sample-ci 0.2 | grep -q "sampled: .*warm-up: 1000 detailed + 100[01] functional refs/core" \
	|| { echo "check.sh: sampled run produced no provenance line, or one without its warm-up" >&2; exit 1; }

echo "== warm-walk smoke =="
# Fast-forward's reference supply (warm.go) must hand the one access walk
# the same references in the same order as the plain ffLoop oracle —
# bit-identical cache tags/LRU, directory, dircache, RNG cursor — with
# the shared lookahead prefetch forced on, and an observed -sample -timeseries run must surface the
# fast-forward phase split, cost ratio and time series in its obs report,
# read from the manifest alone.
go test -short -run 'TestWarmWalkDifferential' ./internal/core
# One walk: warm.go's functional copy of it was deleted in PR 17. Each
# protocol assertion lives in exactly one non-test file of internal/core,
# so a re-pasted walk fails here.
for msg in 'inclusion violated' 'directory disagrees' 'directory owner bank'; do
	n=$(grep -l --exclude='*_test.go' "$msg" internal/core/*.go | wc -l)
	[ "$n" -eq 1 ] || { echo "check.sh: \"$msg\" asserted in $n non-test files of internal/core, want 1 (a second coherence walk?)" >&2; exit 1; }
done
warm_dir=$(mktemp -d /tmp/consim_warm.XXXXXX)
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 20000 \
	-sample 1000 -sample-ci 0.2 \
	-timeseries -manifest "$warm_dir/m.jsonl" >/dev/null
warm_report=$(go run ./cmd/consim obs report "$warm_dir/m.jsonl")
echo "$warm_report" | grep -q "time series ([0-9]* rows)" \
	|| { echo "check.sh: obs report missing the time-series summary: $warm_report" >&2; exit 1; }
echo "$warm_report" | grep -q "fast-forward" \
	|| { echo "check.sh: obs report missing the fast-forward phase: $warm_report" >&2; exit 1; }
echo "$warm_report" | grep -q "warm-up: 1000 detailed + 100[01] functional refs/core" \
	|| { echo "check.sh: obs report missing the warm-up split: $warm_report" >&2; exit 1; }
echo "$warm_report" | grep -q "ff cost ratio" \
	|| { echo "check.sh: obs report missing the ff cost ratio: $warm_report" >&2; exit 1; }
rm -rf "$warm_dir"

echo "== parallel (pdes) engine smoke =="
# The split-transaction parallel engine must stay within the equivalence
# bound of the sequential engine (single seed here; CI's nightly matrix
# covers more), stay deterministic per seed, and leave sequential runs
# untouched (golden fixtures above pin the sequential path bit-for-bit).
go test -short -run 'TestPdesValidation|TestPdesDeterministic|TestPdesEquivalence' ./internal/core
go test -short -run 'TestParallelEquivalence' ./internal/harness
# An older -pdes run's record (pdes_window_cycles, the pdes_* provenance
# fields, per-domain phase entries and series columns) still reads, and
# obs report still prints its warmup/measure split, apply fraction and
# time series.
go test -run 'TestReadManifestsPdesSeriesRecord' ./internal/obs
# The parallel engine's telemetry outside pdes.go is the four numbers the
# benchmark reads (Result.Pdes Workers, Windows, StallSeconds and the
# replay time behind ApplyFraction): its per-domain phase table, window
# and barrier timers, worker trace lanes, manifest provenance fields and
# the harness's comparison wrapper were deleted and must stay gone.
if grep -rnwE 'DomainPhase|CompareParallelRun|compareParallelTo|pdesBound|attachTracer|PdesWindowSeconds|PdesBarrierSeconds|PdesDomains|PdesOps' --include='*.go' --exclude-dir=testdata .; then
	echo "check.sh: a deleted parallel-engine telemetry symbol is back (above)" >&2; exit 1
fi

echo "== phase profiler smoke =="
# A -timeseries run must record per-window telemetry rows in its
# manifest record and a phase profile whose obs report prints the
# warmup/measure decomposition and the time series.
obs_dir=$(mktemp -d /tmp/consim_obs.XXXXXX)
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 20000 \
	-timeseries -manifest "$obs_dir/m.jsonl" >/dev/null
obs_report=$(go run ./cmd/consim obs report "$obs_dir/m.jsonl")
echo "$obs_report" | grep -q "engine=sequential" \
	|| { echo "check.sh: obs report missing the sequential engine tag: $obs_report" >&2; exit 1; }
echo "$obs_report" | grep -q "^  warmup " \
	|| { echo "check.sh: obs report missing the warmup term: $obs_report" >&2; exit 1; }
echo "$obs_report" | grep -q "^  measure " \
	|| { echo "check.sh: obs report missing the measure term: $obs_report" >&2; exit 1; }
echo "$obs_report" | grep -q "time series ([0-9]* rows)" \
	|| { echo "check.sh: obs report missing the time-series summary: $obs_report" >&2; exit 1; }
rm -rf "$obs_dir"

echo "== config memo smoke =="
# Every configuration runs one way, through RunConfigs' single-flight
# memo keyed on the whole core.Config, which concurrent batches share.
go test -race -run 'SingleFlight|RunConfigs|RunKey|FigureBatches' ./internal/harness
# A2's four-controller row and A6's 150-cycle row are both the default
# memory system: the repeated configuration simulates once, so 8
# configurations write 7 records.
memo_manifest=$(mktemp /tmp/consim_memo.XXXXXX.jsonl)
go run ./cmd/consim ablate -exp A2,A6 -scale 64 -warm 500 -meas 1000 \
	-manifest "$memo_manifest" >/dev/null
memo_records=$(wc -l < "$memo_manifest")
[ "$memo_records" -eq 7 ] \
	|| { echo "check.sh: ablate A2,A6 wrote $memo_records manifest records, want 7" >&2; exit 1; }
rm -f "$memo_manifest"

echo "== benchmark module smoke =="
scripts/bench_smoke.sh

echo "== observability smoke =="
# A tiny observed run must produce a non-empty Chrome trace and a
# manifest line alongside a clean exit, and obs report must print the
# record's memory-system ledger.
obs_trace=$(mktemp /tmp/consim_trace.XXXXXX.json)
obs_manifest=$(mktemp /tmp/consim_manifest.XXXXXX.jsonl)
go run ./cmd/consim -workloads TPC-H -scale 16 -warm 2000 -meas 4000 \
	-progress -tracefile "$obs_trace" -manifest "$obs_manifest" >/dev/null
test -s "$obs_trace" || { echo "check.sh: empty trace file" >&2; exit 1; }
test -s "$obs_manifest" || { echo "check.sh: empty manifest" >&2; exit 1; }
go run ./cmd/consim obs report "$obs_manifest" | grep -q "memory system" \
	|| { echo "check.sh: obs report printed no memory system block" >&2; exit 1; }
rm -f "$obs_trace" "$obs_manifest"

echo "check.sh: OK"
