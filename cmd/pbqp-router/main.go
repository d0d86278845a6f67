// Command pbqp-router runs the fleet front of the PBQP allocation
// service: a thin HTTP shard router that spreads solve traffic across
// N pbqp-serve backends with a content-addressed solution cache,
// singleflight request coalescing, consistent-hash sharding,
// health-checked failover, and per-backend circuit breakers.
//
// Usage:
//
//	pbqp-router -backends http://h1:8723,http://h2:8723 [-addr :8722]
//	            [-cache-bytes 67108864] [-max-tries 4]
//	            [-backoff-base 25ms] [-backoff-max 500ms]
//	            [-breaker-threshold 5] [-breaker-cooldown 2s]
//	            [-health-interval 1s] [-health-timeout 1s]
//	            [-workers 256] [-queue 512] [-max-body 4194304]
//	            [-default-deadline 2s] [-max-deadline 30s]
//	            [-max-vertices N] [-max-colors N]
//	            [-drain-timeout 30s]
//
// Endpoints mirror pbqp-serve:
//
//	POST /v1/solve      solve a graph; knobs via query or header:
//	                    chain/X-PBQP-Chain, deadline/X-PBQP-Deadline,
//	                    cost-mode/X-PBQP-Cost-Mode. The X-PBQP-Cache
//	                    response header reports hit/miss/coalesced.
//	GET  /metrics       metrics snapshot: cache hits/misses/evictions,
//	                    coalesced requests, per-backend tries and
//	                    failovers, breaker state, plus the request
//	                    families pbqp-serve publishes
//	GET  /healthz       liveness (200 while the process runs)
//	GET  /readyz        readiness (503 + Retry-After once draining)
//	GET  /debug/pprof/  runtime profiles
//
// A dead or draining backend is ejected by active /readyz probes and
// passive circuit breakers, and re-admitted automatically once it
// answers again; while any replica survives, requests keep completing.
// Under total backend loss the router serves cache hits and sheds
// everything else with 503 + Retry-After.
//
// On SIGTERM or SIGINT the router drains gracefully: readyz flips to
// 503, accepted requests finish, then it exits 0. A second signal —
// or the drain timeout — forces exit 1.
//
// Exit status:
//
//	0  drained cleanly after a signal
//	1  a forced drain or a listen failure
//	2  usage error: a bad flag, a stray argument, or a missing or
//	   malformed -backends
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"pbqprl/internal/daemon"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/router"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, routes until a signal
// drains the router, logs to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbqp-router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8722", "listen address")
	backends := fs.String("backends", "", "comma-separated pbqp-serve base URLs (required)")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "solution cache memory ceiling in bytes (negative disables)")
	maxTries := fs.Int("max-tries", 4, "forwarding attempts per request across all backends")
	backoffBase := fs.Duration("backoff-base", 25*time.Millisecond, "initial failover backoff")
	backoffMax := fs.Duration("backoff-max", 500*time.Millisecond, "failover backoff ceiling")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive failures that trip a backend's circuit breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", 2*time.Second, "open-breaker wait before a half-open probe")
	healthInterval := fs.Duration("health-interval", time.Second, "active /readyz probe period (0 disables)")
	healthTimeout := fs.Duration("health-timeout", time.Second, "active probe timeout")
	workers := fs.Int("workers", 256, "forwards in flight at once")
	queue := fs.Int("queue", 512, "admission queue depth; beyond it requests are shed with 429")
	maxBody := fs.Int64("max-body", 4<<20, "request body size cap in bytes")
	defaultDeadline := fs.Duration("default-deadline", 2*time.Second, "per-request budget when the client does not set one")
	maxDeadline := fs.Duration("max-deadline", 30*time.Second, "cap on client-requested deadlines")
	maxVertices := fs.Int("max-vertices", 0, "per-request vertex cap (0 = parser default)")
	maxColors := fs.Int("max-colors", 0, "per-request color cap (0 = parser default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may wait for in-flight requests")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pbqp-router: "+format+"\n", a...)
		return exitUsage
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	logger := log.New(stderr, "pbqp-router: ", log.LstdFlags|log.Lmsgprefix)

	// router.New fails only on the backend list, an empty one included.
	rt, err := router.New(router.Config{
		Backends:         splitList(*backends),
		CacheBytes:       *cacheBytes,
		MaxTries:         *maxTries,
		BackoffBase:      *backoffBase,
		BackoffMax:       *backoffMax,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		HealthInterval:   *healthInterval,
		HealthTimeout:    *healthTimeout,
		Workers:          *workers,
		QueueDepth:       *queue,
		MaxRequestBytes:  *maxBody,
		DefaultDeadline:  *defaultDeadline,
		MaxDeadline:      *maxDeadline,
		ReadLimits:       pbqp.ReadLimits{MaxVertices: *maxVertices, MaxColors: *maxColors},
		Logf:             logger.Printf,
	})
	if err != nil {
		return usage("%v", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	logger.Printf("routing to %s, listening on %s", *backends, *addr)
	if err := daemon.ServeUntilSignal(httpSrv, rt.Drain, *drainTimeout, logger.Printf); err != nil {
		logger.Print(err)
		return exitError
	}
	return exitOK
}

func splitList(spec string) []string {
	var out []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
