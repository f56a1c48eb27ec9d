package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rpprof "runtime/pprof"
	"time"

	"consim/internal/obs"
)

// sinkFlags is the observability flag set every simulating subcommand
// shares. It lives in the command, not in package obs, so the library
// and everything else that imports it link no network stack: only this
// binary serves -debug-addr. register installs the flags; start, after
// parsing, brings up the sinks and returns the Observer (nil when no
// sink needs one) that threads into the runner options, and the stop
// function that flushes every sink.
type sinkFlags struct {
	Progress   bool
	TraceFile  string
	Manifest   string
	TimeSeries bool
	CPUProfile string
	MemProfile string
	DebugAddr  string
}

// register installs the flags on fs.
func (c *sinkFlags) register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Progress, "progress", false, "render a live job/throughput status line on stderr")
	fs.StringVar(&c.TraceFile, "tracefile", "", "write a Chrome trace-format JSON timeline here (open in ui.perfetto.dev)")
	fs.StringVar(&c.Manifest, "manifest", "", "append per-run provenance manifests to this JSONL file (e.g. results/manifests.jsonl)")
	fs.BoolVar(&c.TimeSeries, "timeseries", false, "record each run's per-window telemetry rows in its -manifest record (read with consim obs report)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile here")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile here at exit")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve net/http/pprof under /debug/pprof/ on this address (e.g. localhost:6060)")
}

// enabled reports whether any sink needing an Observer was requested.
func (c *sinkFlags) enabled() bool {
	return c.Progress || c.TraceFile != "" || c.Manifest != ""
}

// start brings up every requested sink. The Observer is nil when only
// profiles and the pprof endpoint (or nothing) were requested; the stop
// function is always valid and idempotent-safe to defer. Status notes go
// to w. -timeseries without -manifest is an error: the series has
// nowhere else to go.
func (c *sinkFlags) start(w io.Writer) (*obs.Observer, func() error, error) {
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
	fail := func(err error) (*obs.Observer, func() error, error) {
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
		if err := rpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		path := c.CPUProfile
		cleanups = append(cleanups, func() error {
			rpprof.StopCPUProfile()
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
			if err := rpprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			fmt.Fprintf(w, "[obs] heap profile written to %s\n", path)
			return f.Close()
		})
	}
	if c.DebugAddr != "" {
		addr, shutdown, err := startDebugServer(c.DebugAddr)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "[obs] pprof on http://%s/debug/pprof/\n", addr)
		cleanups = append(cleanups, shutdown)
	}

	if !c.enabled() {
		return nil, stop, nil
	}

	var tracer *obs.Tracer
	if c.TraceFile != "" {
		tracer = obs.NewTracer()
		path := c.TraceFile
		cleanups = append(cleanups, func() error {
			if err := tracer.WriteFile(path); err != nil {
				return err
			}
			fmt.Fprintf(w, "[obs] trace (%d events) written to %s\n", tracer.Events(), path)
			return nil
		})
	}
	var man *obs.ManifestWriter
	if c.Manifest != "" {
		var err error
		man, err = obs.OpenManifest(c.Manifest)
		if err != nil {
			return fail(err)
		}
		cleanups = append(cleanups, man.Close)
	}
	var prog *obs.Progress
	if c.Progress {
		prog = obs.NewProgress(w)
	}

	o := obs.NewObserver(tracer, man, prog)
	o.Series = c.TimeSeries

	if prog != nil {
		prog.Start(0)
		// Stop the display before the sinks above flush their own notes.
		cleanups = append(cleanups, func() error { prog.Stop(); return nil })
	}
	return o, stop, nil
}

// startDebugServer serves net/http/pprof (profile, heap, goroutine,
// trace) under /debug/pprof/ on addr, so a long sweep can be profiled
// mid-flight with `go tool pprof http://addr/debug/pprof/profile`.
//
// It returns the bound address (resolving a ":0" request) and a
// shutdown function that gracefully drains in-flight requests, closes
// the listener, and waits for the serve loop to exit — the run ending
// never leaks the listener or its goroutine.
func startDebugServer(addr string) (string, func() error, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			// A hung profile stream outlived the grace period; force it.
			err = srv.Close()
		}
		if serr := <-served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return ln.Addr().String(), shutdown, nil
}
