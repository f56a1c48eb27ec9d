package main

import (
	"fmt"
	"os"

	"consim/internal/core"
	"consim/internal/harness"
	"consim/internal/sched"
	"consim/internal/trace"
	"consim/internal/workload"
)

// record is consim trace record, the first half of the checkpoint
// workflow: capture a workload's transactions once, then replay them on
// any machine configuration.
//
//	consim trace record -workload TPC-H -out tpch.trc -refs 200000 -scale 8
//	consim trace replay tpch.trc -group 4 -policy affinity
func record(args []string) error {
	fs := newFlagSet("trace record", "")
	name := fs.String("workload", "TPC-H", "workload to capture")
	out := fs.String("out", "workload.trc", "output file")
	refs := fs.Uint64("refs", 200_000, "references per thread")
	threads := fs.Int("threads", 4, "threads")
	scale := fs.Int("scale", 8, "footprint scale divisor")
	seed := fs.Uint64("seed", 42, "generator seed")
	if _, err := parse(fs, args, 0, 0); err != nil {
		return err
	}
	spec, err := workload.ByName(*name)
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(spec.Scaled(*scale), *threads, *seed)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := trace.Capture(f, gen, *threads, *refs)
	if err != nil {
		return err
	}
	fmt.Printf("captured %d records (%d threads x %d refs) of %s at scale 1/%d to %s\n",
		h.Records, *threads, *refs, spec.Name, *scale, *out)
	return f.Close()
}

func openTrace(path string) (*trace.Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.NewReader(f)
}

func info(args []string) error {
	ops, err := parse(newFlagSet("trace info", "TRACE"), args, 1, 1)
	if err != nil {
		return err
	}
	rd, err := openTrace(ops[0])
	if err != nil {
		return err
	}
	h := rd.Header()
	fmt.Printf("workload:  %s\nthreads:   %d\nrecords:   %d\nfootprint: %d blocks (%.1f MB)\ntx size:   %d refs\n",
		h.Spec.Name, h.Threads, h.Records, h.Footprint, float64(h.Footprint*64)/(1<<20), h.Spec.RefsPerTx)
	// Quick mix census over one pass.
	writes := uint64(0)
	for t := 0; t < h.Threads; t++ {
		for i := uint64(0); i < h.Records/uint64(h.Threads); i++ {
			if rd.Next(t).Write {
				writes++
			}
		}
	}
	fmt.Printf("writes:    %.1f%%\n", 100*float64(writes)/float64(h.Records))
	return nil
}

// parseReplay is consim trace replay: the recorded transactions as one
// VM on the configured machine.
func parseReplay(args []string) (*job, error) {
	f := newRunFlags("trace replay", "TRACE", 0, 50_000, 100_000)
	group := f.fs.Int("group", 4, "cores per LLC group")
	policy := f.fs.String("policy", "affinity", "scheduling policy")
	ops, err := parse(f.fs, args, 1, 1)
	if err != nil {
		return nil, err
	}
	rd, err := openTrace(ops[0])
	if err != nil {
		return nil, err
	}
	pol, err := sched.ByName(*policy)
	if err != nil {
		return nil, err
	}
	cfg := f.config(rd.Spec())
	cfg.GroupSize, cfg.Policy = *group, pol
	cfg.ThreadsPerVM = rd.Header().Threads
	cfg.Sources = []workload.Source{rd}
	return f.job([]core.Config{cfg}, func(r *harness.Runner, cfgs []core.Config) error {
		results, err := r.RunConfigs(cfgs)
		if err != nil {
			return err
		}
		res, v := results[0], results[0].VMs[0]
		fmt.Printf("replayed %s on %s/%s: cyc/tx=%.0f missRate=%.4f missLat=%.1f c2c=%.3f (loops t0=%d)\n",
			v.Name, cfgs[0].SharingName(), cfgs[0].Policy,
			v.CyclesPerTx, v.MissRate(), v.AvgMissLatency(), v.Stats.C2CFraction(), rd.Loops(0))
		if sa := res.Sample; sa.Windows > 0 {
			fmt.Println(sa.Provenance())
		}
		return nil
	})
}
