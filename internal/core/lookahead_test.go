package core

import (
	"bytes"
	"testing"

	"consim/internal/cache"
	"consim/internal/coherence"
	"consim/internal/prefetch"
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
	for _, m := range s.vms {
		h = cache.MixDigest(h, m.Gen.TotalRefs())
		h = cache.MixDigest(h, m.TouchedBlocks())
		for th := 0; th < s.cfg.ThreadsPerVM; th++ {
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
// a peek is unavailable or a hint unlike the plain mix's: timeslice
// rotation (the peeked runnable is the rotated-in one), a trace-replay
// source beside live generators (no ring to peek) and a partitioned LLC
// (the bank victim comes from the VM's quota). The paper-scale case fills the
// 8.0 MB directory table its bound asks for, so the walk runs on the
// huge-page-advised table (Directory.resize) with the lookahead gated on
// by footprint.
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

	qos := mix()
	qos.QoSPartition = true

	paper := mix()
	paper.Scale = 1
	paper.WarmupRefs, paper.MeasureRefs = 10_000, 10_000

	// VM 0 replays a capture of its own generator; the other three stay
	// live. Readers are stateful, so each system gets a fresh one.
	replay := mix()
	var capture bytes.Buffer
	gen := workload.NewGenerator(replay.Workloads[0].Scaled(replay.Scale), replay.ThreadsPerVM, 99)
	if _, err := trace.Capture(&capture, gen, replay.ThreadsPerVM, 15_000); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		cfg    Config
		replay bool
	}{
		{"mix4", mix(), false},
		{"overcommit", over, false},
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
					if b := dirTableBytesOf(sys.dir); b < 4<<20 {
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

// TestLookaheadGate pins the two size rules on every benchmark
// configuration, each to the decision it had when the directory's
// capacity was a power of two. The lookahead turns on by footprint, so
// the paper-scale 4-VM mix is the one configuration big enough for it.
// fetchTM's victim hints turn on with a directory table of huge-page
// size at its bound (coherence.TableBytes ≥ 2 MB): all three paper-scale
// machines have one — isolated TPC-H on private LLCs only just, its
// 65 536-line bound (the private banks of its four threads' cores) asking for
// 87 383 home buckets and the tail, 2.02 MB — and no scale-16 machine
// does, since even a bound of its whole LLC asks for a 0.5 MB table.
func TestLookaheadGate(t *testing.T) {
	mix := func(scale int, pol sched.Policy) Config {
		cfg := fastCfg(4, pol, workload.TPCW, workload.SPECjbb, workload.TPCH, workload.SPECweb)
		cfg.Scale = scale
		return cfg
	}
	iso := func(groupSize int) Config {
		cfg := fastCfg(groupSize, sched.Affinity, workload.TPCH)
		cfg.Scale = 1
		return cfg
	}
	sampled := mix(16, sched.RoundRobin)
	sampled.Sample = SampleConfig{WindowRefs: 5_000, FFRatio: 4, MaxRefs: 40_000}
	pdes := mix(16, sched.Affinity)
	pdes.Pdes = 2
	first := fastCfg(1, sched.Affinity, workload.TPCW) // figsweep's first simulation
	for _, tc := range []struct {
		name      string
		cfg       Config
		lookahead bool
		hints     bool
	}{
		{"mix4_paper", mix(1, sched.RoundRobin), true, true},
		{"iso_tpch_shared", iso(16), false, true},
		{"iso_tpch_private", iso(1), false, true},
		{"mix4_s16", mix(16, sched.RoundRobin), false, false},
		{"mix4_s16_pdes2", pdes, false, false},
		{"mix4_s16_sampled", sampled, false, false},
		{"figsweep T2 TPC-W", first, false, false},
	} {
		sys, err := NewSystem(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.lookahead != tc.lookahead {
			t.Errorf("%s: lookahead %v with %d footprint blocks, want %v", tc.name, sys.lookahead, sys.footprintBlocks(), tc.lookahead)
		}
		if sys.victimHints != tc.hints {
			t.Errorf("%s: victim hints %v with a %d-byte directory table at the bound, want %v", tc.name, sys.victimHints, coherence.TableBytes(sys.dirBound()), tc.hints)
		}
		t.Logf("%s: bound %d lines, table %d bytes", tc.name, sys.dirBound(), coherence.TableBytes(sys.dirBound()))
		if tc.cfg.Scale == 16 {
			llc := 0
			for _, b := range sys.banks {
				llc += b.Lines()
			}
			if b := coherence.TableBytes(llc); b >= prefetch.HugePageBytes {
				t.Errorf("%s: a bound of the whole %d-line LLC asks for a %d-byte table, which would turn victim hints on", tc.name, llc, b)
			}
		}
	}
}
