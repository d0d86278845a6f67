package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// referenceSeconds is the run length the work counts below were sized
// for on the reference box (README.md, "Sizing").
const referenceSeconds = 15

// Fixed parallelism of every workload: constants, not derived from the
// machine, so numbers compare across boxes with at least two cores.
const benchProcs = 2

// sizes are the work counts of one run. Every workload does a fixed
// amount of work, never a fixed duration, and no solver budget is
// time-based, so a run repeats; -seconds scales the counts (not the
// configurations) in proportion to referenceSeconds.
type sizes struct {
	setupReps     int // set-ups per run; setup_s is their median
	missPerClass  int // serve_miss: distinct pool graphs per size class
	hotPerClass   int // serve_hot: pre-solved graphs per size class
	hotRequests   int // serve_hot: requests over the hot graphs
	trainIters    int // train: iterations of trainEpisodes episodes
	trainEpisodes int
	bigRounds     int // biggraph: rounds over the three graphs
	bigVertices   int // biggraph: vertices of the two generated graphs
}

func sizesFor(seconds float64) sizes {
	scale := func(atReference int) int {
		n := int(math.Round(float64(atReference) * seconds / referenceSeconds))
		if n < 1 {
			n = 1
		}
		return n
	}
	return sizes{
		setupReps:     3,
		missPerClass:  scale(17),
		hotPerClass:   3,
		hotRequests:   scale(15000),
		trainIters:    scale(4),
		trainEpisodes: 32,
		bigRounds:     scale(15),
		bigVertices:   20000,
	}
}

// workload is one of the four measured paths.
type workload interface {
	// setUp makes the inputs from the seed and builds the system under
	// test; a non-nil tracer also installs span recording.
	setUp(tr *tracer) error
	tearDown()
	// measure does the workload's fixed work once and checks every
	// answer.
	measure(tr *tracer) (*pass, error)
	// layers derives the per-layer metrics from a traced pass and from
	// timing calls into the layers' public functions.
	layers(tr *tracer, m metrics) error
	// work names the counts this run was sized with.
	work() map[string]int
}

// pass is what one measure call observed.
type pass struct {
	throughput float64         // work units per second, in the workload's unit
	calls      []time.Duration // one sample per call a caller blocks on
	attempted  int
	failed     int
	failures   []string
	headline   metrics // workload-specific end-to-end values (biggraph: one per graph)
}

func (p *pass) fail(msg string) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, msg)
	}
}

// result is one run of one workload, as written to -out.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Traced    bool           `json:"traced"`
	Work      map[string]int `json:"work"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"ops_attempted"`
	Failed    int            `json:"ops_failed"`
	Failures  []string       `json:"failures,omitempty"`
	Metrics   metrics        `json:"metrics"`
}

var workloadNames = []string{"serve_miss", "serve_hot", "train", "biggraph"}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "serve_miss", "serve_hot":
		pool, err := loadPool()
		if err != nil {
			return nil, err
		}
		if name == "serve_miss" {
			return &serveMiss{serveBase: serveBase{seed: seed, perClass: sz.missPerClass, pool: pool}}, nil
		}
		return &serveHot{serveBase: serveBase{seed: seed, perClass: sz.hotPerClass, pool: pool}, requests: sz.hotRequests}, nil
	case "train":
		return &train{seed: seed, iters: sz.trainIters, episodes: sz.trainEpisodes}, nil
	case "biggraph":
		return &bigGraph{seed: seed, rounds: sz.bigRounds, vertices: sz.bigVertices}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runWorkload runs one workload: setupReps set-ups (the last one is
// measured on), one untraced pass for the end-to-end metrics, and — in
// a traced run — a second pass on a fresh set-up with span recording
// for the per-layer metrics. End-to-end metrics always come from the
// untraced pass; the difference between the passes is the tracing
// overhead.
func runWorkload(name string, seed int64, seconds float64, sz sizes, traced bool, traceOut string) (result, error) {
	res := result{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Metrics: metrics{}}
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return res, err
	}
	res.Work = w.work()
	res.Work["setup_reps"] = sz.setupReps
	defer w.tearDown()

	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	setups := make([]float64, sz.setupReps)
	for i := range setups {
		w.tearDown()
		t0 := now()
		if err := w.setUp(nil); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups[i] = now().Sub(t0).Seconds()
	}
	p, err := w.measure(nil)
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	res.Attempted, res.Failed, res.Failures = p.attempted, p.failed, p.failures
	endToEnd(p, median(setups), res.Metrics)
	for k, v := range p.headline {
		res.Metrics[k] = v
	}

	if traced {
		tr := newTracer()
		w.tearDown()
		if err := w.setUp(tr); err != nil {
			return res, fmt.Errorf("%s: traced set-up: %w", name, err)
		}
		tp, err := w.measure(tr)
		if err != nil {
			return res, fmt.Errorf("%s: traced: %w", name, err)
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		res.Failures = append(res.Failures, tp.failures...)
		if err := w.layers(tr, res.Metrics); err != nil {
			return res, fmt.Errorf("%s: layers: %w", name, err)
		}
		res.Metrics.set("trace.overhead_share", p.throughput/tp.throughput-1, "ratio")
		procMetrics(&before, res.Metrics)
		if traceOut != "" {
			if err := tr.dump(traceOut, traceRoots[name]); err != nil {
				return res, fmt.Errorf("%s: write trace: %w", name, err)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traceRoots names each workload's outermost span.
var traceRoots = map[string]string{
	"serve_miss": "client.request",
	"serve_hot":  "client.request",
	"train":      "train.iteration",
	"biggraph":   "decomp.solve",
}

// endToEnd fills the metrics a user of the system would see.
func endToEnd(p *pass, setupSeconds float64, m metrics) {
	lat := durationsMS(p.calls)
	m.set("setup_s", setupSeconds, "s")
	m.set("throughput_per_s", p.throughput, "1/s")
	m.set("latency_p50_ms", percentile(lat, 0.50), "ms")
	m.set("latency_p90_ms", percentile(lat, 0.90), "ms")
}

// procMetrics reports the process's memory behaviour over the run.
func procMetrics(before *runtime.MemStats, m metrics) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.set("proc.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")
	m.set("proc.gc_pause_ms", ms(time.Duration(after.PauseTotalNs-before.PauseTotalNs)), "ms")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	}
}
