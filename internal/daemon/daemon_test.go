package daemon

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// shutdownLog collects the lines serveUntil logs, all of which it
// logs on the caller's goroutine.
type shutdownLog []string

func (l *shutdownLog) logf(format string, args ...any) {
	*l = append(*l, fmt.Sprintf(format, args...))
}

func (l shutdownLog) String() string { return strings.Join(l, "\n") }

// TestServeUntilSignal drives the daemon shutdown sequence with a
// signal channel: a clean drain, a drain that fails, a second signal
// during the drain, and a listener that never comes up.
func TestServeUntilSignal(t *testing.T) {
	newHTTP := func() *http.Server { return &http.Server{Addr: "127.0.0.1:0", Handler: http.NotFoundHandler()} }

	t.Run("clean drain", func(t *testing.T) {
		sigc := make(chan os.Signal, 2)
		sigc <- syscall.SIGTERM
		var log shutdownLog
		drained := false
		err := serveUntil(newHTTP(), sigc, func(context.Context) error { drained = true; return nil }, time.Second, log.logf)
		if err != nil || !drained {
			t.Fatalf("err %v, drained %v", err, drained)
		}
		if !strings.Contains(log.String(), "received terminated, draining") || !strings.Contains(log.String(), "drained cleanly") {
			t.Fatalf("log %q", log.String())
		}
	})

	t.Run("drain fails", func(t *testing.T) {
		sigc := make(chan os.Signal, 2)
		sigc <- syscall.SIGINT
		var log shutdownLog
		err := serveUntil(newHTTP(), sigc, func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, time.Millisecond, log.logf)
		if !errors.Is(err, context.DeadlineExceeded) || !strings.HasPrefix(err.Error(), "drain incomplete") {
			t.Fatalf("err %v, want a drain-incomplete deadline error", err)
		}
		if strings.Contains(log.String(), "drained cleanly") {
			t.Fatalf("log %q claims a clean drain", log.String())
		}
	})

	t.Run("second signal", func(t *testing.T) {
		sigc := make(chan os.Signal, 2)
		sigc <- syscall.SIGTERM
		var log shutdownLog
		started := make(chan struct{})
		go func() { <-started; sigc <- syscall.SIGINT }()
		err := serveUntil(newHTTP(), sigc, func(ctx context.Context) error { close(started); <-ctx.Done(); return ctx.Err() }, time.Minute, log.logf)
		if err == nil || err.Error() != "received second interrupt, aborting drain" {
			t.Fatalf("err %v", err)
		}
	})

	t.Run("listen fails", func(t *testing.T) {
		var log shutdownLog
		bad := &http.Server{Addr: "127.0.0.1:-1"}
		if err := serveUntil(bad, make(chan os.Signal), func(context.Context) error { return nil }, time.Second, log.logf); err == nil {
			t.Fatal("a listener on an invalid port reported no error")
		}
	})
}
