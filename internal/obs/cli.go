package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLI is the uniform observability flag set shared by every consim
// command. Register it on the command's FlagSet, then call Start after
// flag parsing; the returned Observer (nil when no observability sink
// was requested) threads into runner options or per-run Config hooks,
// and the returned stop function flushes every sink.
//
//	var ocli obs.CLI
//	ocli.Register(flag.CommandLine)
//	flag.Parse()
//	o, stop, err := ocli.Start(os.Stderr)
//	...
//	defer stop()
type CLI struct {
	Progress   bool
	TraceFile  string
	Manifest   string
	TimeSeries bool
	CPUProfile string
	MemProfile string
	DebugAddr  string
}

// Register installs the flags on fs.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Progress, "progress", false, "render a live job/throughput status line on stderr")
	fs.StringVar(&c.TraceFile, "tracefile", "", "write a Chrome trace-format JSON timeline here (open in ui.perfetto.dev)")
	fs.StringVar(&c.Manifest, "manifest", "", "append per-run provenance manifests to this JSONL file (e.g. results/manifests.jsonl)")
	fs.BoolVar(&c.TimeSeries, "timeseries", false, "record each run's per-window telemetry rows in its -manifest record (read with consim obs report)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile here")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile here at exit")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve net/http/pprof under /debug/pprof/ on this address (e.g. localhost:6060)")
}

// enabled reports whether any sink needing an Observer was requested.
func (c *CLI) enabled() bool {
	return c.Progress || c.TraceFile != "" || c.Manifest != ""
}

// Start brings up every requested sink. The Observer is nil when only
// profiles and the pprof endpoint (or nothing) were requested; the stop
// function is always valid and idempotent-safe to defer. Status notes go
// to w. -timeseries without -manifest is an error: the series has
// nowhere else to go.
func (c *CLI) Start(w io.Writer) (*Observer, func() error, error) {
	if w == nil {
		w = os.Stderr
	}
	var cleanups []func() error
	stop := func() error {
		var first error
		for i := len(cleanups) - 1; i >= 0; i-- {
			if err := cleanups[i](); err != nil && first == nil {
				first = err
			}
		}
		cleanups = nil
		return first
	}
	fail := func(err error) (*Observer, func() error, error) {
		stop() //nolint:errcheck // the primary error wins
		return nil, func() error { return nil }, err
	}
	if c.TimeSeries && c.Manifest == "" {
		return fail(errors.New("obs: -timeseries requires -manifest (the series is stored in each run's manifest record)"))
	}

	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		path := c.CPUProfile
		cleanups = append(cleanups, func() error {
			pprof.StopCPUProfile()
			fmt.Fprintf(w, "[obs] cpu profile written to %s\n", path)
			return f.Close()
		})
	}
	if c.MemProfile != "" {
		path := c.MemProfile
		cleanups = append(cleanups, func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			fmt.Fprintf(w, "[obs] heap profile written to %s\n", path)
			return f.Close()
		})
	}
	if c.DebugAddr != "" {
		addr, shutdown, err := StartDebugServer(c.DebugAddr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "[obs] pprof on http://%s/debug/pprof/\n", addr)
		cleanups = append(cleanups, shutdown)
	}

	if !c.enabled() {
		return nil, stop, nil
	}

	var tracer *Tracer
	if c.TraceFile != "" {
		tracer = NewTracer()
		path := c.TraceFile
		cleanups = append(cleanups, func() error {
			if err := tracer.WriteFile(path); err != nil {
				return err
			}
			fmt.Fprintf(w, "[obs] trace (%d events) written to %s\n", tracer.Events(), path)
			return nil
		})
	}
	var man *ManifestWriter
	if c.Manifest != "" {
		var err error
		man, err = OpenManifest(c.Manifest)
		if err != nil {
			return fail(err)
		}
		cleanups = append(cleanups, man.Close)
	}
	var prog *Progress
	if c.Progress {
		prog = NewProgress(w)
	}

	o := NewObserver(tracer, man, prog)
	o.Series = c.TimeSeries

	if prog != nil {
		prog.Start(0)
		// Stop the display before the sinks above flush their own notes.
		cleanups = append(cleanups, func() error { prog.Stop(); return nil })
	}
	return o, stop, nil
}
