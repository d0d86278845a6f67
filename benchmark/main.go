// Command benchmark is the repository's one layered benchmark: it
// drives the three end-to-end paths of the ROADMAP — serve (cache-miss
// and cache-hit traffic), train and big-graph — from one process on two
// cores, checks every answer, and prints every metric by name and unit.
// README.md in this directory has the metric × workload table and the
// reasons behind every workload and constant; /BENCHMARK.json is the
// machine-readable contract.
//
//	go run ./benchmark -workload all -seed 1 -out run.json   # untraced: end-to-end metrics
//	go run ./benchmark -workload all -seed 1 -trace 1        # traced: per-layer metrics
//	go run ./benchmark -compare old.json new.json            # apply the regression bounds
//	go run ./benchmark -screen                               # regenerate testdata/ate_pool.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is what -out writes: the environment and one result per run.
type report struct {
	Env     env      `json:"env"`
	Results []result `json:"results"`
}

// env records what the numbers were measured on.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	OS         string `json:"os"`
}

func readEnv() env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	// best effort: a checkout that is not a git repository has no commit
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed: picks the instances, never the size mix")
	seconds := fs.Float64("seconds", referenceSeconds, "run length the work counts are scaled to (they are sized for 15)")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", ".bench_build/trace.json", "where a traced run writes its spans and layer table")
	runs := fs.Int("runs", 1, "repeat each workload this many times (for -compare's spread)")
	out := fs.String("out", "", "also write the results, with the environment, to this file")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare old.json new.json")
	screen := fs.Bool("screen", false, "regenerate "+poolPath+" and print the pass rate per size class")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *screen:
		pool, err := screenPool(stdout)
		if err == nil {
			err = os.WriteFile(poolPath, encodePool(pool), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds and -runs must be positive, -trace 0 or 1")
		return 2
	}
	names := []string{*workloadFlag}
	if *workloadFlag == "all" {
		names = workloadNames
	}

	runtime.GOMAXPROCS(benchProcs)
	rep := report{Env: readEnv()}
	traced := *trace == 1
	specs := endToEndSpecs
	if traced {
		specs = perLayerSpecs
	}
	failed := false
	for _, name := range names {
		for r := 0; r < *runs; r++ {
			path := ""
			if traced {
				path = strings.TrimSuffix(*traceOut, ".json") + "-" + name + ".json"
			}
			res, err := runWorkload(name, *seed, *seconds, sizesFor(*seconds), traced, path)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if traced {
				fillUnexercised(res.Metrics)
			}
			rep.Results = append(rep.Results, res)
			printResult(stdout, res, specs)
			failed = failed || !res.Correct
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// fillUnexercised gives every per-layer metric a value in every traced
// run: a layer the workload never enters did no work, which reads 0.
// That zero is the evidence that a workload bypasses a layer.
func fillUnexercised(m metrics) {
	for _, s := range perLayerSpecs {
		if _, ok := m[s.Name]; !ok {
			m.set(s.Name, 0, s.Unit)
		}
	}
}

// printResult prints every metric of the run by name and unit, then —
// as the last line — the one JSON object the benchmark contract asks
// for, holding exactly the metrics of specs.
func printResult(w io.Writer, res result, specs []metricSpec) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g traced=%v work=%v\n", res.Workload, res.Seed, res.Seconds, res.Traced, res.Work)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Fprintf(w, "%-40s %14d\n%-40s %14d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	line := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics{}}
	for _, s := range specs {
		line.Metrics[s.Name] = res.Metrics[s.Name]
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(w, "benchmark: result does not encode:", err)
		return
	}
	fmt.Fprintf(w, "%s\n", data)
}
