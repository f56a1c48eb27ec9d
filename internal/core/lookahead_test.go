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

// TestLookaheadBitIdentical proves the host-memory hints read-only: the
// same configuration run with the lookahead (prefetchRef) and fetchTM's
// victim hints each forced on and off, in all four combinations, must
// produce the same Result and leave the same machine behind. The scale-16
// cases flip the unexported switches NewSystem set. They cover every way
// a prediction goes stale or a peek is unavailable: timeslice rotation
// (the peeked runnable is the rotated-in one), dynamic rebalancing (the
// core may be handed another thread entirely), a trace-replay source
// beside live generators (no ring to peek) and a partitioned LLC (the
// bank victim comes from the VM's quota). The paper-scale case grows the
// directory table to 16 MB, so the walk runs on the huge-page-advised
// table (Directory.resize) with the lookahead gated on by footprint.
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

	paper := mix()
	paper.Scale = 1
	paper.WarmupRefs, paper.MeasureRefs = 10_000, 10_000

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
		{"paper-scale", paper, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.cfg.Scale == 1 {
				t.Skip("seconds per run under -race; the full run keeps it")
			}
			run := func(lookahead, victims bool) (string, uint64) {
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
				if want := cfg.Scale == 1; sys.lookahead != want || sys.victimHints != want {
					t.Fatalf("scale %d gated the lookahead %v and the victim hints %v, want both %v", cfg.Scale, sys.lookahead, sys.victimHints, want)
				}
				sys.lookahead, sys.victimHints = lookahead, victims
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Scale == 1 {
					if b := sys.dir.Bytes(); b < 4<<20 {
						t.Fatalf("paper-scale directory table is %d bytes, want a table holding an aligned 2 MB page", b)
					}
				}
				return resultDigest(t, res), lookaheadDigest(sys)
			}
			offRes, offState := run(false, false)
			for _, on := range []struct{ lookahead, victims bool }{{true, false}, {false, true}, {true, true}} {
				res, state := run(on.lookahead, on.victims)
				if res != offRes {
					t.Errorf("Result changed with lookahead %v, victim hints %v:\noff %s\non  %s", on.lookahead, on.victims, offRes, res)
				}
				if state != offState {
					t.Errorf("machine state changed with lookahead %v, victim hints %v: %#x vs %#x", on.lookahead, on.victims, offState, state)
				}
			}
		})
	}
}

// TestLookaheadGate pins the two size rules: the lookahead turns on by
// footprint, so the paper-scale 4-VM mix is the one configuration in the
// benchmark big enough for it, while the same mix at scale 16 and an
// isolated paper-scale VM are not; fetchTM's victim hints turn on with a
// directory table of huge-page size, which both paper-scale machines
// have and the scale-16 mix's 1 MB table does not.
func TestLookaheadGate(t *testing.T) {
	mix := fastCfg(4, sched.RoundRobin, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
	iso := fastCfg(16, sched.Affinity, workload.TPCH)
	for _, tc := range []struct {
		name      string
		cfg       Config
		scale     int
		lookahead bool
		hints     bool
	}{
		{"mix4 scale 1", mix, 1, true, true},
		{"mix4 scale 16", mix, 16, false, false},
		{"isolated TPC-H scale 1", iso, 1, false, true},
	} {
		tc.cfg.Scale = tc.scale
		sys, err := NewSystem(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.lookahead != tc.lookahead {
			t.Errorf("%s: lookahead %v with %d footprint blocks, want %v", tc.name, sys.lookahead, sys.footprintBlocks(), tc.lookahead)
		}
		if sys.victimHints != tc.hints {
			t.Errorf("%s: victim hints %v with a %d-byte directory table, want %v", tc.name, sys.victimHints, sys.dir.Bytes(), tc.hints)
		}
	}
}
