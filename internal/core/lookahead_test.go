package core

import (
	"bytes"
	"testing"

	"consim/internal/cache"
	"consim/internal/sched"
	"consim/internal/trace"
	"consim/internal/workload"
)

// lookaheadDigest folds everything a run leaves behind that a stray
// write from the lookahead could have moved: the functional-plane digest
// the warm-walk tests use (cache slots in recency order, directory table
// layout and Lookups, directory caches, back-invalidations), each core's
// think-time RNG cursor and progress, and each reference source's cursor
// — observed by drawing past the next ring refill, which folds in the
// generators' RNG streams and shared sampling cursors.
func lookaheadDigest(s *System) uint64 {
	h := warmStateDigest(s)
	for c := range s.cores {
		h = cache.MixDigest(h, s.cores[c].rng.State())
		h = cache.MixDigest(h, s.cores[c].refs)
	}
	for v, m := range s.vms {
		h = cache.MixDigest(h, m.Gen.TotalRefs())
		h = cache.MixDigest(h, m.TouchedBlocks())
		for th := 0; th < s.cfg.ThreadsOf(v); th++ {
			for i := 0; i < 300; i++ {
				a := m.Gen.Next(th)
				h = cache.MixDigest(h, a.Block<<1)
				if a.Write {
					h = cache.MixDigest(h, 1)
				}
			}
		}
	}
	return h
}

// TestLookaheadBitIdentical proves the lookahead is read-only: the same
// configuration run with it forced on and forced off must produce the
// same Result and leave the same machine behind. No benchmark-sized
// footprint fits a unit test, so the tests flip the unexported gate
// NewSystem computed. The cases cover every way a prediction goes stale
// or a peek is unavailable: timeslice rotation (the peeked runnable is
// the rotated-in one), dynamic rebalancing (the core may be handed
// another thread entirely) and a trace-replay source beside live
// generators (no ring to peek).
func TestLookaheadBitIdentical(t *testing.T) {
	mix := func() Config {
		cfg := fastCfg(4, sched.RoundRobin, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
		cfg.WarmupRefs, cfg.MeasureRefs = 10_000, 20_000
		return cfg
	}

	over := mix()
	over.Policy = sched.Affinity
	over.ThreadsPerVM = 8
	over.TimesliceCycles = 5_000

	reb := mix()
	reb.RebalanceCycles = 50_000

	qos := mix()
	qos.QoSPartition = true

	// VM 0 replays a capture of its own generator; the other three stay
	// live. Readers are stateful, so each system gets a fresh one.
	replay := mix()
	var capture bytes.Buffer
	gen := workload.NewGenerator(replay.Workloads[0].Scaled(replay.Scale), replay.ThreadsOf(0), 99)
	if _, err := trace.Capture(&capture, gen, replay.ThreadsOf(0), 15_000); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		cfg    Config
		replay bool
	}{
		{"mix4", mix(), false},
		{"overcommit", over, false},
		{"rebalance", reb, false},
		{"trace-replay", replay, true},
		{"qos-partitioned", qos, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(on bool) (string, uint64) {
				cfg := tc.cfg
				if tc.replay {
					rd, err := trace.NewReader(bytes.NewReader(capture.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					cfg.Sources = make([]workload.Source, len(cfg.Workloads))
					cfg.Sources[0] = rd
				}
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sys.lookahead {
					t.Fatalf("a scale-%d footprint of %d blocks switched the lookahead on by itself", cfg.Scale, sys.footprintBlocks())
				}
				sys.lookahead = on
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				return resultDigest(t, res), lookaheadDigest(sys)
			}
			offRes, offState := run(false)
			onRes, onState := run(true)
			if onRes != offRes {
				t.Errorf("Result changed with the lookahead on:\noff %s\non  %s", offRes, onRes)
			}
			if onState != offState {
				t.Errorf("machine state changed with the lookahead on: %#x vs %#x", offState, onState)
			}
		})
	}
}

// TestLookaheadGate pins the footprint rule: the paper-scale 4-VM mix is
// the one configuration in the benchmark big enough to switch the
// lookahead on; the same mix at scale 16 and an isolated paper-scale VM
// are not.
func TestLookaheadGate(t *testing.T) {
	mix := fastCfg(4, sched.RoundRobin, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	iso := fastCfg(16, sched.Affinity, workload.TPCH)
	for _, tc := range []struct {
		name  string
		cfg   Config
		scale int
		want  bool
	}{
		{"mix4 scale 1", mix, 1, true},
		{"mix4 scale 16", mix, 16, false},
		{"isolated TPC-H scale 1", iso, 1, false},
	} {
		tc.cfg.Scale = tc.scale
		sys, err := NewSystem(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.lookahead != tc.want {
			t.Errorf("%s: lookahead %v with %d footprint blocks, want %v", tc.name, sys.lookahead, sys.footprintBlocks(), tc.want)
		}
	}
}
