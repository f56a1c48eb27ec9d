package obs

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StartDebugServer serves net/http/pprof (profile, heap, goroutine,
// trace) under /debug/pprof/ on addr, so a long sweep can be profiled
// mid-flight with `go tool pprof http://addr/debug/pprof/profile`.
//
// It returns the bound address (resolving a ":0" request) and a
// shutdown function that gracefully drains in-flight requests, closes
// the listener, and waits for the serve loop to exit — the run ending
// never leaks the listener or its goroutine.
func StartDebugServer(addr string) (string, func() error, error) {
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
