// Package daemon holds the process lifecycle the two HTTP daemons,
// cmd/pbqp-serve and cmd/pbqp-router, share: serve until a signal,
// then drain and close. It lives apart from internal/server and
// internal/router so that the libraries, and everything that links
// them, do not take on process-wide signal handling.
package daemon

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServeUntilSignal runs httpSrv until SIGTERM or SIGINT, then shuts
// down in order. drain stops admission first (new requests get 503 while the listener
// stays up, so load balancers see readyz flip rather than connection
// refused) and finishes the accepted work within drainTimeout; then the
// listener and idle connections close. A second signal aborts the
// drain. It returns nil after a clean drain, else the error that cut
// the sequence short; logf receives the progress lines.
func ServeUntilSignal(httpSrv *http.Server, drain func(context.Context) error, drainTimeout time.Duration, logf func(string, ...any)) error {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	return serveUntil(httpSrv, sigc, drain, drainTimeout, logf)
}

// serveUntil is ServeUntilSignal with the signals read from sigc.
func serveUntil(httpSrv *http.Server, sigc <-chan os.Signal, drain func(context.Context) error, drainTimeout time.Duration, logf func(string, ...any)) error {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logf("received %s, draining", sig)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- drain(drainCtx) }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
	case sig := <-sigc:
		return fmt.Errorf("received second %s, aborting drain", sig)
	}
	// Shutdown gets its own short budget: reusing drainCtx would make a
	// drain that legitimately consumed most of its timeout fail the
	// final (near-instant, in-flight work already done) listener close.
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	logf("drained cleanly, exiting")
	return nil
}
